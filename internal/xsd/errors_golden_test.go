package xsd_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"goldweb/internal/core"
	"goldweb/internal/xmldom"
	"goldweb/internal/xsd"
)

var updateErrors = flag.Bool("update-errors", false, "rewrite testdata/errors.golden")

// errorCase is one invalid instance with the schema it validates against.
type errorCase struct {
	name   string // path relative to the repository's internal/ directory
	schema *xsd.Schema
	src    []byte
}

// errorCases collects every conformance invalid-* instance (each against
// its feature's schema) and the GW401/GW402 lint corpus models (against
// the GOLD schema), sorted by name.
func errorCases(t *testing.T) []errorCase {
	t.Helper()
	var cases []errorCase
	read := func(name, path string, s *xsd.Schema) {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, errorCase{name: name, schema: s, src: src})
	}
	dirs, err := filepath.Glob(filepath.Join("testdata", "conformance", "*", "schema.xsd"))
	if err != nil || len(dirs) == 0 {
		t.Fatalf("no conformance schemas: %v", err)
	}
	for _, schemaFile := range dirs {
		dir := filepath.Dir(schemaFile)
		s, err := xsd.LoadSchemaFile(schemaFile)
		if err != nil {
			t.Fatalf("%s: %v", schemaFile, err)
		}
		instances, _ := filepath.Glob(filepath.Join(dir, "invalid-*.xml"))
		for _, f := range instances {
			read(filepath.ToSlash(filepath.Join("xsd", f)), f, s)
		}
	}
	models, _ := filepath.Glob(filepath.Join("..", "analysis", "testdata", "models", "*.xml"))
	if len(models) == 0 {
		t.Fatal("no lint corpus models")
	}
	for _, f := range models {
		read(filepath.ToSlash(strings.TrimPrefix(f, ".."+string(filepath.Separator))), f, core.MustSchema())
	}
	return cases
}

// renderErrors is the golden form of an error list: one line per error,
// in reported order, with path, line and message.
func renderErrors(errs []xsd.ValidationError) string {
	var b strings.Builder
	for _, e := range errs {
		fmt.Fprintf(&b, "%s\t%d\t%s\n", e.Path, e.Line, e.Msg)
	}
	return b.String()
}

func parse(t *testing.T, src []byte) *xmldom.Node {
	t.Helper()
	doc, err := xmldom.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

// entryPoints are the two ways to validate: in place, and in one pass
// that also freezes. Both must report identical error lists.
var entryPoints = []struct {
	name     string
	validate func(s *xsd.Schema, doc *xmldom.Node, opts xsd.ValidateOptions) []xsd.ValidationError
}{
	{"Validate", (*xsd.Schema).Validate},
	{"ValidateAndFreeze", func(s *xsd.Schema, doc *xmldom.Node, opts xsd.ValidateOptions) []xsd.ValidationError {
		res := s.ValidateAndFreeze(doc, opts)
		if !res.Doc.Frozen() {
			panic("ValidateAndFreeze returned an unfrozen document")
		}
		return res.Errors
	}},
}

// TestErrorListsGolden pins the full error lists — message, path, line
// and order — that validation with defaults applied reports for every
// invalid instance in the repository, through both entry points, and
// checks that each MaxErrors limit yields exactly a prefix of the full
// list.
func TestErrorListsGolden(t *testing.T) {
	cases := errorCases(t)
	for _, ep := range entryPoints {
		t.Run(ep.name, func(t *testing.T) {
			var all strings.Builder
			for _, c := range cases {
				errs := ep.validate(c.schema, parse(t, c.src), xsd.ValidateOptions{ApplyDefaults: true})
				if len(errs) == 0 {
					t.Errorf("%s: validated clean", c.name)
				}
				all.WriteString("== " + c.name + "\n" + renderErrors(errs))
				for k := 1; k <= len(errs); k++ {
					got := ep.validate(c.schema, parse(t, c.src), xsd.ValidateOptions{ApplyDefaults: true, MaxErrors: k})
					if renderErrors(got) != renderErrors(errs[:k]) {
						t.Errorf("%s: MaxErrors %d is not a prefix of the full list:\n%s", c.name, k, renderErrors(got))
					}
				}
			}
			golden := filepath.Join("testdata", "errors.golden")
			if *updateErrors && ep.name == "Validate" {
				if err := os.WriteFile(golden, []byte(all.String()), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("missing golden (regenerate with go test -run ErrorListsGolden -update-errors): %v", err)
			}
			if all.String() != string(want) {
				t.Errorf("error lists differ from %s\ngot:\n%s", golden, all.String())
			}
		})
	}
}

// TestValidateConcurrent: validators come from a pool and schemas are
// shared, so concurrent passes over the same schemas must each report
// exactly what a lone pass reports.
func TestValidateConcurrent(t *testing.T) {
	cases := errorCases(t)
	want := make([]string, len(cases))
	for i, c := range cases {
		want[i] = renderErrors(c.schema.Validate(parse(t, c.src), xsd.ValidateOptions{ApplyDefaults: true}))
	}
	docs := make([][]*xmldom.Node, 4)
	for g := range docs {
		for _, c := range cases {
			docs[g] = append(docs[g], parse(t, c.src))
		}
	}
	var wg sync.WaitGroup
	for g := range docs {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i, c := range cases {
				res := c.schema.ValidateAndFreeze(docs[g][i], xsd.ValidateOptions{ApplyDefaults: true})
				if got := renderErrors(res.Errors); got != want[i] {
					t.Errorf("goroutine %d, %s: got\n%s", g, c.name, got)
				}
			}
		}(g)
	}
	wg.Wait()
}
