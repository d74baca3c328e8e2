package xsd_test

import (
	"os"
	"path/filepath"
	"testing"

	"goldweb/internal/core"
	"goldweb/internal/xmldom"
	"goldweb/internal/xsd"
)

// FuzzValidate validates arbitrary documents against the GOLD schema,
// once in full and once under a MaxErrors cut. It must never panic; every
// error must carry a path; the cut run must report at most maxErrors
// errors, and they must be the first errors of the full run; and every
// node an identity error refers to must belong to the validated document.
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
		f.Add(src, uint8(0))
		f.Add(src, uint8(1))
	}
	schema := core.MustSchema()
	f.Fuzz(func(t *testing.T, src []byte, maxErrors uint8) {
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
		if maxErrors == 0 {
			return
		}
		again, err := xmldom.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		cut := schema.ValidateAndFreeze(again, xsd.ValidateOptions{ApplyDefaults: true, MaxErrors: int(maxErrors)}).Errors
		if len(cut) > int(maxErrors) {
			t.Fatalf("MaxErrors %d: %d errors", maxErrors, len(cut))
		}
		for i, e := range cut {
			if i >= len(full.Errors) || e.Error() != full.Errors[i].Error() {
				t.Fatalf("MaxErrors %d: error %d is %v, not the full run's", maxErrors, i, e)
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
