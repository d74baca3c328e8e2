package xslt

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"goldweb/internal/xmldom"
	"goldweb/internal/xpath"
)

// TestConcurrentTransformSharedSheet: one compiled stylesheet and one
// frozen source document, many concurrent Transforms — results must be
// identical and the race detector must stay quiet.
func TestConcurrentTransformSharedSheet(t *testing.T) {
	sheet, err := CompileStylesheetString(`<?xml version="1.0"?>
<xsl:stylesheet version="1.0" xmlns:xsl="http://www.w3.org/1999/XSL/Transform">
  <xsl:key name="byclass" match="item" use="@class"/>
  <xsl:template match="/">
    <out>
      <xsl:for-each select="//item">
        <xsl:sort select="@class"/>
        <i id="{generate-id()}" v="{@v}"/>
      </xsl:for-each>
      <k><xsl:value-of select="count(key('byclass','a'))"/></k>
      <id><xsl:value-of select="name(id('x1'))"/></id>
    </out>
  </xsl:template>
</xsl:stylesheet>`, CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var src bytes.Buffer
	src.WriteString(`<root id="x1">`)
	for i := 0; i < 40; i++ {
		fmt.Fprintf(&src, `<item class="%c" v="%d"/>`, 'a'+byte(i%3), i)
	}
	src.WriteString(`</root>`)
	doc := xmldom.MustParseString(src.String())
	xmldom.Freeze(doc)

	var want []byte
	{
		r, err := sheet.Transform(doc, nil)
		if err != nil {
			t.Fatal(err)
		}
		want = r.MainBytes()
	}
	const workers = 8
	var wg sync.WaitGroup
	got := make([][]byte, workers)
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for rep := 0; rep < 5; rep++ {
				r, err := sheet.Transform(doc, map[string]xpath.Value{})
				if err != nil {
					errs[w] = err
					return
				}
				got[w] = r.MainBytes()
			}
		}(w)
	}
	wg.Wait()
	for w := 0; w < workers; w++ {
		if errs[w] != nil {
			t.Fatalf("worker %d: %v", w, errs[w])
		}
		if !bytes.Equal(got[w], want) {
			t.Errorf("worker %d: output differs from sequential result", w)
		}
	}
}

// TestGenerateIDFrozenDeterministic: generate-id() on frozen nodes is a
// pure function of document and stamp — identical across engines.
func TestGenerateIDFrozenDeterministic(t *testing.T) {
	sheet, err := CompileStylesheetString(`<?xml version="1.0"?>
<xsl:stylesheet version="1.0" xmlns:xsl="http://www.w3.org/1999/XSL/Transform">
  <xsl:template match="/">
    <xsl:for-each select="//b"><xsl:value-of select="generate-id()"/>;</xsl:for-each>
  </xsl:template>
</xsl:stylesheet>`, CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	doc := xmldom.MustParseString(`<a><b/><b/><c><b/></c></a>`)
	xmldom.Freeze(doc)
	first, err := sheet.TransformToBytes(doc, nil)
	if err != nil {
		t.Fatal(err)
	}
	second, err := sheet.TransformToBytes(doc, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Errorf("generate-id() unstable across engines: %q vs %q", first, second)
	}
	// Distinct nodes must still get distinct ids.
	parts := bytes.Split(bytes.TrimSuffix(first, []byte(";")), []byte(";"))
	seen := map[string]bool{}
	for _, p := range parts {
		if seen[string(p)] {
			t.Errorf("duplicate generate-id %q", p)
		}
		seen[string(p)] = true
	}
}
