package core

import (
	"os"
	"path/filepath"
	"testing"

	"goldweb/internal/xmldom"
)

// TestCanonicalDocumentRevalidates: for every document of the benchmark
// corpus (the example models and the synthetic sizes), a document that
// validates clean yields a model whose canonical document (the one
// SetModel and a catalog with its own schema publish from) validates
// clean too. That validation is not a no-op: ToXML omits default-valued attributes (a boolean is written only
// when true, showatts only when false), so validation applies defaults to
// every one of these documents, which grow by 13.9-20.5 %.
func TestCanonicalDocumentRevalidates(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "..", "bench", "testdata", "models", "*.xml"))
	if err != nil || len(files) != 13 {
		t.Fatalf("want the 13 benchmark corpus documents, got %d: %v", len(files), err)
	}
	for _, f := range files {
		t.Run(filepath.Base(f), func(t *testing.T) {
			src, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			doc, err := xmldom.Parse(src)
			if err != nil {
				t.Fatal(err)
			}
			if errs := ValidateAndFreeze(doc).Errors; len(errs) != 0 {
				t.Fatalf("input invalid: %v", errs[0])
			}
			m, err := ModelFromXML(doc)
			if err != nil {
				t.Fatal(err)
			}
			canon := m.ToXML()
			before := len(xmldom.SerializeToString(canon, xmldom.WriteOptions{}))
			pub := ValidateAndFreeze(canon)
			if len(pub.Errors) != 0 {
				t.Fatalf("canonical document invalid: %v", pub.Errors[0])
			}
			after := len(xmldom.SerializeToString(pub.Doc, xmldom.WriteOptions{}))
			if growth := float64(after-before) / float64(before); growth < 0.13 || growth > 0.21 {
				t.Errorf("defaults grew the canonical document %d -> %d bytes (%.1f %%), want 13-21 %%",
					before, after, 100*growth)
			}
			if filepath.Base(f) == "f4d8h3.xml" && (before != 13763 || after != 16202) {
				t.Errorf("f4d8h3: %d -> %d bytes, want 13763 -> 16202", before, after)
			}
		})
	}
}
