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
// identical and the race detector must stay quiet. The second sheet
// leans on the XPath results that are windows into the frozen document
// (current(), id(), .., attribute comparisons, [1]); afterwards the
// document's name index, Children and Attr must be element-wise
// unchanged.
func TestConcurrentTransformSharedSheet(t *testing.T) {
	sheets := []string{`<?xml version="1.0"?>
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
</xsl:stylesheet>`, `<?xml version="1.0"?>
<xsl:stylesheet version="1.0" xmlns:xsl="http://www.w3.org/1999/XSL/Transform">
  <xsl:template match="/">
    <out>
      <xsl:for-each select="//item[@class = 'b']">
        <i v="{@v}" group="{../@id}" first="{../item[1]/@v}"
           same="{count(../item[@class = current()/@class])}"
           ref="{id(@ref)/@id}" next="{following-sibling::item[1]/@v}"
           up="{ancestor::g/@id}"/>
      </xsl:for-each>
      <xsl:apply-templates select="root/g[1]/item[@v &gt; 2][1]"/>
    </out>
  </xsl:template>
  <xsl:template match="item">
    <first v="{@v}" self="{name(.)}" owner="{name(id(current()/../@id))}"/>
  </xsl:template>
</xsl:stylesheet>`}
	var src bytes.Buffer
	src.WriteString(`<root id="x1">`)
	for g := 0; g < 4; g++ {
		fmt.Fprintf(&src, `<g id="g%d"> `, g)
		for i := 0; i < 10; i++ {
			fmt.Fprintf(&src, `<item class="%c" v="%d" ref="g%d"/> `, 'a'+byte(i%3), i, (g+1)%4)
		}
		src.WriteString(`</g>`)
	}
	src.WriteString(`</root>`)
	doc := xmldom.MustParseString(src.String())
	xmldom.Freeze(doc)
	before := snapshotStorage(doc)

	for n, text := range sheets {
		sheet, err := CompileVerified(t, text, CompileOptions{})
		if err != nil {
			t.Fatalf("sheet %d: %v", n, err)
		}
		r, err := sheet.TransformToBuffers(doc, nil)
		if err != nil {
			t.Fatalf("sheet %d: %v", n, err)
		}
		want := r.Main
		const workers = 8
		var wg sync.WaitGroup
		got := make([][]byte, workers)
		errs := make([]error, workers)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for rep := 0; rep < 5; rep++ {
					r, err := sheet.TransformToBuffers(doc, map[string]xpath.Value{})
					if err != nil {
						errs[w] = err
						return
					}
					got[w] = r.Main
				}
			}(w)
		}
		wg.Wait()
		for w := 0; w < workers; w++ {
			if errs[w] != nil {
				t.Fatalf("sheet %d, worker %d: %v", n, w, errs[w])
			}
			if !bytes.Equal(got[w], want) {
				t.Errorf("sheet %d, worker %d: output differs from sequential result", n, w)
			}
		}
	}
	after := snapshotStorage(doc)
	if len(after) != len(before) {
		t.Fatalf("storage snapshot has %d slices, want %d", len(after), len(before))
	}
	for key, want := range before {
		got := after[key]
		if len(got) != len(want) {
			t.Errorf("%s: %d nodes after the transforms, want %d", key, len(got), len(want))
			continue
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s[%d] changed during the transforms", key, i)
			}
		}
	}
}

// snapshotStorage copies every slice of frozen storage an XPath result
// may be a window into: the name index list of each element name, and
// each node's Children and Attr.
func snapshotStorage(doc *xmldom.Node) map[string][]*xmldom.Node {
	out := map[string][]*xmldom.Node{}
	var walk func(n *xmldom.Node)
	walk = func(n *xmldom.Node) {
		if n.Type == xmldom.ElementNode {
			out["IndexedDescendants("+n.Name+")"] = append([]*xmldom.Node(nil), doc.IndexedDescendants(n.Name, false)...)
		}
		out[n.Path()+" Children"] = append([]*xmldom.Node(nil), n.Children...)
		out[n.Path()+" Attr"] = append([]*xmldom.Node(nil), n.Attr...)
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(doc)
	return out
}

// TestGenerateIDFrozenDeterministic: generate-id() on frozen nodes is a
// pure function of document and stamp — identical across engines.
func TestGenerateIDFrozenDeterministic(t *testing.T) {
	sheet, err := CompileVerified(t, `<?xml version="1.0"?>
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
	first, err := mainOutput(sheet, doc, nil)
	if err != nil {
		t.Fatal(err)
	}
	second, err := mainOutput(sheet, doc, nil)
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

// TestUnfrozenSourceMatchesFrozen: a run reads frozen trees only, so an
// unfrozen source and the same source frozen produce byte-identical
// output — for generate-id() on source and result-tree-fragment nodes,
// for id() over a duplicated id, and for a union across the fragment and
// the source. The unfrozen source is frozen in place.
func TestUnfrozenSourceMatchesFrozen(t *testing.T) {
	sheet, err := CompileVerified(t, `<?xml version="1.0"?>
<xsl:stylesheet version="1.0" xmlns:xsl="http://www.w3.org/1999/XSL/Transform">
  <xsl:output omit-xml-declaration="yes"/>
  <xsl:template match="/">
    <xsl:variable name="frag"><f/><g/></xsl:variable>
    <xsl:for-each select="//b | $frag/*">[<xsl:value-of select="generate-id()"/>]</xsl:for-each>
    <xsl:for-each select="id('dup')">(<xsl:value-of select="@n"/>)</xsl:for-each>
    <xsl:for-each select="$frag/* | /*/*"><xsl:value-of select="name()"/>;</xsl:for-each>
  </xsl:template>
</xsl:stylesheet>`, CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	const src = `<a><b id="dup" n="1"/><b id="dup" n="2"/><c><b/></c></a>`
	plain := xmldom.MustParseString(src)
	got, err := mainOutput(sheet, plain, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !plain.Frozen() {
		t.Error("TransformToBuffers left an unfrozen source unfrozen")
	}
	frozen := xmldom.MustParseString(src)
	xmldom.Freeze(frozen)
	want, err := mainOutput(sheet, frozen, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("unfrozen source output\n  %s\nfrozen source output\n  %s", got, want)
	}
	const pinned = `[d1n3][d1n6][d1n10][d2n2][d2n3](1)b;b;c;f;g;`
	if string(want) != pinned {
		t.Errorf("output = %s, want %s", want, pinned)
	}
}
