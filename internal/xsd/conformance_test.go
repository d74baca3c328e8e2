package xsd

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestConformance runs the W3C-testsuite-style conformance table under
// testdata/conformance: each feature directory holds a schema.xsd entry
// point (whose xs:include/xs:import graph the Loader resolves relative
// to the directory) plus valid-*.xml and invalid-*.xml instances. The
// instance file name is the expectation — valid instances must produce
// zero errors, invalid ones at least one.
func TestConformance(t *testing.T) {
	root := filepath.Join("testdata", "conformance")
	features, err := os.ReadDir(root)
	if err != nil {
		t.Fatal(err)
	}
	ranFeatures := 0
	for _, f := range features {
		if !f.IsDir() {
			continue
		}
		ranFeatures++
		dir := filepath.Join(root, f.Name())
		t.Run(f.Name(), func(t *testing.T) {
			s, err := LoadSchemaFile(filepath.Join(dir, "schema.xsd"))
			if err != nil {
				t.Fatalf("schema: %v", err)
			}
			entries, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			ran := 0
			for _, e := range entries {
				name := e.Name()
				if e.IsDir() || !strings.HasSuffix(name, ".xml") {
					continue
				}
				wantValid := strings.HasPrefix(name, "valid-")
				if !wantValid && !strings.HasPrefix(name, "invalid-") {
					t.Fatalf("instance %s is neither valid-*.xml nor invalid-*.xml", name)
				}
				ran++
				t.Run(name, func(t *testing.T) {
					data, err := os.ReadFile(filepath.Join(dir, name))
					if err != nil {
						t.Fatal(err)
					}
					errs := s.ValidateString(string(data), ValidateOptions{ApplyDefaults: true})
					if wantValid && len(errs) > 0 {
						t.Errorf("want valid, got %d errors; first: %s", len(errs), errs[0])
					}
					if !wantValid && len(errs) == 0 {
						t.Error("want invalid, but the instance validated clean")
					}
				})
			}
			if ran == 0 {
				t.Fatal("feature directory has no instances")
			}
		})
	}
	if ranFeatures == 0 {
		t.Fatal("no conformance feature directories found")
	}
}

// TestConformanceProvenance spot-checks that multi-file features report
// which files their declarations came from.
func TestConformanceProvenance(t *testing.T) {
	s, err := LoadSchemaFile(filepath.Join("testdata", "conformance", "include-nested", "schema.xsd"))
	if err != nil {
		t.Fatal(err)
	}
	files := s.SourceFiles()
	want := []string{"schema.xsd", "sub/a.xsd", "sub/b.xsd"}
	if len(files) != len(want) {
		t.Fatalf("SourceFiles = %v, want %v", files, want)
	}
	for i := range want {
		if files[i] != want[i] {
			t.Fatalf("SourceFiles = %v, want %v", files, want)
		}
	}
	if got := s.fileOf(s.Elements["qty"].src); got != "sub/a.xsd" {
		t.Errorf("file of element qty = %q, want sub/a.xsd", got)
	}
	if got := s.fileOf(s.SimpleTypes["Qty"].src); got != "sub/b.xsd" {
		t.Errorf("file of simpleType Qty = %q, want sub/b.xsd", got)
	}
}
