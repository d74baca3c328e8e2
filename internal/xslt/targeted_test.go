package xslt_test

import (
	"bytes"
	"slices"
	"testing"

	"goldweb/internal/xmldom"
	"goldweb/internal/xpath"
	"goldweb/internal/xslt"
)

// checkPage checks a targeted run of href against the full run: the same
// bytes (the principal output for the empty href), the same complete
// document order, and found exactly when the full run produced href.
func checkPage(t *testing.T, label string, s *xslt.Stylesheet, doc *xmldom.Node, params map[string]xpath.Value, full *xslt.BufferResult, href string) {
	t.Helper()
	got, err := s.TransformPage(doc, params, href)
	if err != nil {
		t.Fatalf("%s: targeted run of %q fails where the full run succeeds: %v", label, href, err)
	}
	want, ok := full.Main, true
	if href != "" {
		want, ok = full.Documents[href]
	}
	if got.Found != ok || !bytes.Equal(got.Page, want) {
		t.Fatalf("%s: targeted %q (found %v) differs from the full run's (found %v)\n--- targeted ---\n%s\n--- full ---\n%s",
			label, href, got.Found, ok, got.Page, want)
	}
	if !slices.Equal(got.DocumentOrder, full.DocumentOrder) {
		t.Fatalf("%s: targeted %q document order %q, want %q", label, href, got.DocumentOrder, full.DocumentOrder)
	}
}

// TestTransformPageMatchesGolden runs every golden sheet over every
// example model targeted at each output document it produces, and at a
// name it does not, against the full streamed run.
func TestTransformPageMatchesGolden(t *testing.T) {
	sheets := goldenSheets(t)
	docs := diffDocs(t)
	for _, sheetName := range sortedKeys(sheets) {
		for _, docName := range sortedKeys(docs) {
			s, doc := sheets[sheetName], docs[docName]
			full, err := s.TransformToBuffers(doc, goldenParams)
			if err != nil {
				continue // nothing to target
			}
			label := sheetName + " × " + docName
			for _, href := range append([]string{"", "absent.html"}, full.DocumentOrder...) {
				checkPage(t, label, s, doc, goldenParams, full, href)
			}
		}
	}
}

// TestTransformPageDiscardedBodiesFailAsInFull: a body that is not a
// proven leaf runs into a discard sink, which must answer xsl:attribute
// exactly as the real sink would — outside an element it fails, inside
// one it succeeds.
func TestTransformPageDiscardedBodiesFailAsInFull(t *testing.T) {
	doc := xmldom.MustParseString(`<a><b/></a>`)
	for _, c := range []struct{ name, body string }{
		{"outside an element", `<xsl:attribute name="x">1</xsl:attribute>`},
		{"inside an element", `<e><xsl:attribute name="x">1</xsl:attribute></e>`},
	} {
		s, err := xslt.CompileStylesheetString(`<xsl:stylesheet version="1.0" xmlns:xsl="http://www.w3.org/1999/XSL/Transform">
<xsl:template match="/"><r/><xsl:document href="outer.html">`+c.body+`<xsl:document href="inner.html"><i/></xsl:document></xsl:document></xsl:template>
</xsl:stylesheet>`, xslt.CompileOptions{})
		if err != nil {
			t.Fatal(err)
		}
		full, ferr := s.TransformToBuffers(doc, nil)
		for _, href := range []string{"", "inner.html"} {
			_, terr := s.TransformPage(doc, nil, href)
			if (ferr == nil) != (terr == nil) || (ferr != nil && ferr.Error() != terr.Error()) {
				t.Errorf("%s, target %q: targeted error %v, full run error %v", c.name, href, terr, ferr)
			}
			if ferr == nil {
				checkPage(t, c.name, s, doc, nil, full, href)
			}
		}
	}
}
