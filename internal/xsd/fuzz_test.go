package xsd_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"goldweb/internal/core"
	"goldweb/internal/xmldom"
	"goldweb/internal/xsd"
)

// FuzzValidate validates arbitrary documents against the GOLD schema,
// once in full and, when skipIdentity is set, once more with
// SkipIdentityConstraints. It must never panic; every error must carry a
// path; every node an identity error refers to must belong to the
// validated document; and the skipping run must report exactly the full
// run's StructuralErrors.
func FuzzValidate(f *testing.F) {
	var files []string
	for _, dir := range []string{
		filepath.Join("..", "..", "examples", "models"),
		filepath.Join("..", "analysis", "testdata", "models"),
	} {
		found, err := filepath.Glob(filepath.Join(dir, "*.xml"))
		if err != nil || len(found) == 0 {
			f.Fatalf("no seed models in %s: %v", dir, err)
		}
		files = append(files, found...)
	}
	for _, file := range files {
		src, err := os.ReadFile(file)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(src, false)
		f.Add(src, true)
	}
	schema := core.MustSchema()
	f.Fuzz(func(t *testing.T, src []byte, skipIdentity bool) {
		doc, err := xmldom.Parse(src)
		if err != nil {
			return
		}
		full := schema.ValidateAndFreeze(doc, xsd.ValidateOptions{ApplyDefaults: true})
		for _, e := range full.Errors {
			if e.Path == "" {
				t.Fatalf("error without a path: %v", e)
			}
			if id := e.Identity; id != nil {
				for _, n := range []*xmldom.Node{id.Scope, id.Node, id.First} {
					if n != nil && root(n) != full.Doc {
						t.Fatalf("%v: refers to a node outside the validated document", e)
					}
				}
			}
		}
		if !skipIdentity {
			return
		}
		again, err := xmldom.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		skipped := schema.Validate(again, xsd.ValidateOptions{ApplyDefaults: true, SkipIdentityConstraints: true})
		structural := full.StructuralErrors()
		if len(skipped) != len(structural) {
			t.Fatalf("SkipIdentityConstraints: %d errors, StructuralErrors %d", len(skipped), len(structural))
		}
		for i, e := range skipped {
			if e.Error() != structural[i].Error() {
				t.Fatalf("SkipIdentityConstraints: error %d is %v, StructuralErrors has %v", i, e, structural[i])
			}
		}
	})
}

// maxFuzzSchema bounds FuzzParseSchema's input. It admits the GOLD
// schema seed (about 17 KiB) and keeps each run short.
const maxFuzzSchema = 32 << 10

// FuzzParseSchema parses arbitrary schema text. Parsing must never
// panic. When the schema compiles, validating each conformance instance
// and a fixed small document against it must not panic either, and
// every error must carry a path.
func FuzzParseSchema(f *testing.F) {
	f.Add([]byte(core.SchemaXSD))
	instances := []string{"<r><a/><b/></r>"}
	err := filepath.WalkDir(filepath.Join("testdata", "conformance"), func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		switch {
		case strings.HasSuffix(path, ".xsd"):
			f.Add(src)
		case strings.HasSuffix(path, ".xml"):
			instances = append(instances, string(src))
		}
		return nil
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, src []byte) {
		if len(src) > maxFuzzSchema {
			return
		}
		schema, err := xsd.ParseSchemaString(string(src))
		if err != nil {
			return
		}
		for _, inst := range instances {
			for _, e := range schema.ValidateString(inst, xsd.ValidateOptions{ApplyDefaults: true}) {
				if e.Path == "" {
					t.Fatalf("error without a path: %v", e)
				}
			}
		}
	})
}

// root returns the document node above n.
func root(n *xmldom.Node) *xmldom.Node {
	for n.Parent != nil {
		n = n.Parent
	}
	return n
}
