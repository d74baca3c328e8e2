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
// document order, and found exactly when the full run produced href. A
// run that does not ask for the order renders the same page without it.
func checkPage(t *testing.T, label string, s *xslt.Stylesheet, doc *xmldom.Node, params []xslt.Param, full *xslt.BufferResult, href string) {
	t.Helper()
	const prefix = "lent|"
	plain, _, err := s.TransformPage(nil, doc, params, href, false)
	if err != nil {
		t.Fatalf("%s: targeted run of %q without the order fails where the full run succeeds: %v", label, href, err)
	}
	got, buf, err := s.TransformPage([]byte(prefix), doc, params, href, true)
	if err != nil {
		t.Fatalf("%s: targeted run of %q fails where the full run succeeds: %v", label, href, err)
	}
	if string(buf[:len(prefix)]) != prefix || !bytes.Equal(buf[len(prefix):], got.Page) || cap(got.Page) != len(got.Page) {
		t.Fatalf("%s: targeted %q did not append just its page to the buffer: %q", label, href, buf)
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
	if plain.Found != got.Found || !bytes.Equal(plain.Page, got.Page) || plain.DocumentOrder != nil {
		t.Fatalf("%s: targeted %q without the order: found %v, order %q; with it found %v",
			label, href, plain.Found, plain.DocumentOrder, got.Found)
	}
}

// checkInto checks that TransformInto appends, after what the buffer
// held, the documents of the full run, each a capacity-limited sub-slice
// of the returned buffer: appending to one cannot overwrite the next.
func checkInto(t *testing.T, label string, s *xslt.Stylesheet, doc *xmldom.Node, full *xslt.BufferResult) {
	t.Helper()
	const prefix = "lent|"
	got, buf, err := s.TransformInto([]byte(prefix), doc, goldenParamList)
	if err != nil {
		t.Fatalf("%s: TransformInto fails where TransformToBuffers succeeds: %v", label, err)
	}
	if string(buf[:len(prefix)]) != prefix {
		t.Fatalf("%s: TransformInto overwrote the buffer's contents: %q", label, buf)
	}
	docs := [][]byte{got.Main}
	want := [][]byte{full.Main}
	for _, href := range full.DocumentOrder {
		docs = append(docs, got.Documents[href])
		want = append(want, full.Documents[href])
	}
	for i := range docs {
		if !bytes.Equal(docs[i], want[i]) || cap(docs[i]) != len(docs[i]) {
			t.Fatalf("%s: document %d differs from the full run's or is not capacity-limited", label, i)
		}
	}
	if total := len(bytes.Join(docs, nil)); len(buf) != len(prefix)+total {
		t.Fatalf("%s: buffer holds %d bytes after the prefix, the documents %d", label, len(buf)-len(prefix), total)
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
			checkInto(t, label, s, doc, full)
			for _, href := range append([]string{"", "absent.html"}, full.DocumentOrder...) {
				checkPage(t, label, s, doc, goldenParamList, full, href)
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
		s, err := xslt.CompileVerified(t, `<xsl:stylesheet version="1.0" xmlns:xsl="http://www.w3.org/1999/XSL/Transform">
<xsl:template match="/"><r/><xsl:document href="outer.html">`+c.body+`<xsl:document href="inner.html"><i/></xsl:document></xsl:document></xsl:template>
</xsl:stylesheet>`, xslt.CompileOptions{})
		if err != nil {
			t.Fatal(err)
		}
		full, ferr := s.TransformToBuffers(doc, nil)
		for _, href := range []string{"", "inner.html"} {
			_, _, terr := s.TransformPage(nil, doc, nil, href, false)
			if (ferr == nil) != (terr == nil) || (ferr != nil && ferr.Error() != terr.Error()) {
				t.Errorf("%s, target %q: targeted error %v, full run error %v", c.name, href, terr, ferr)
			}
			if ferr == nil {
				checkPage(t, c.name, s, doc, nil, full, href)
			}
		}
	}
}

// TestResultOrderOutlivesPooledEngine: the document order a result
// carries is its own. The engine that produced it keeps its order's
// array for later runs, which must not overwrite what a result holds.
func TestResultOrderOutlivesPooledEngine(t *testing.T) {
	s, err := xslt.CompileVerified(t, `<xsl:stylesheet version="1.0" xmlns:xsl="http://www.w3.org/1999/XSL/Transform">
<xsl:param name="p"/>
<xsl:template match="/"><r/><xsl:for-each select="//*"><xsl:document href="{$p}-{name()}.html"><d/></xsl:document></xsl:for-each></xsl:template>
</xsl:stylesheet>`, xslt.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	doc := xmldom.MustParseString(`<a><b/><c/></a>`)
	run := func(p string) ([]string, []string) {
		params := []xslt.Param{{Name: "p", Value: xpath.String(p)}}
		page, _, err := s.TransformPage(nil, doc, params, "", true)
		if err != nil {
			t.Fatal(err)
		}
		full, _, err := s.TransformInto(nil, doc, params)
		if err != nil {
			t.Fatal(err)
		}
		return page.DocumentOrder, full.DocumentOrder
	}
	want := []string{"first-a.html", "first-b.html", "first-c.html"}
	page, full := run("first")
	for i := 0; i < 20; i++ {
		run("later")
	}
	if !slices.Equal(page, want) || !slices.Equal(full, want) {
		t.Fatalf("document orders after later runs: targeted %q, full %q, want %q", page, full, want)
	}
}
