package xslt_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"goldweb/internal/analysis/verify"
	"goldweb/internal/xmldom"
	"goldweb/internal/xslt"
)

// FuzzTransform generates random (always well-formed) stylesheets and
// documents from a pair of seeds and checks the engine's invariants: no
// panic, a lowered program the static verifier accepts, and targeted
// runs that agree with the full run. The outputs of 256 fixed seed pairs
// (generated without xsl:document) are pinned in testdata/fuzz.golden.
// Runs in CI as a 10s smoke.

// genStylesheet derives a random stylesheet from rng. Bodies are built
// from the full instruction vocabulary, including result-tree-fragment
// variables, with-param and parameter-default bodies, attribute sets,
// numeric sorts with computed order and data-type, and xsl:number
// value; recursion terminates because apply-templates only ever selects
// children and named templates never call templates. With docs set the
// vocabulary adds xsl:document: static and AVT hrefs (hrefs repeat), a
// nested document, a named template holding a document and an
// apply-templates into a mode whose rule holds one. Without docs, rng is
// consumed exactly as before documents were added, which keeps the
// fuzz.golden seeds stable.
func genStylesheet(rng *rand.Rand, docs bool) string {
	names := []string{"a", "b", "c", "d"}
	name := func() string { return names[rng.Intn(len(names))] }
	sets := []string{"s1", "s2", "s1 s2", "s2 s1"}
	var body func(depth int) string
	body = func(depth int) string {
		var b strings.Builder
		n := 1 + rng.Intn(3)
		for i := 0; i < n; i++ {
			if depth > 2 {
				b.WriteString("deep")
				continue
			}
			cases := 22
			if docs {
				cases += 5
			}
			switch rng.Intn(cases) {
			case 0:
				b.WriteString("lit-" + name())
			case 1:
				el := name()
				fmt.Fprintf(&b, `<%s q="s-{name()}">%s</%s>`, el, body(depth+1), el)
			case 2:
				fmt.Fprintf(&b, `<xsl:value-of select="name()"/>`)
			case 3:
				fmt.Fprintf(&b, `<xsl:if test="count(*) &gt; %d">%s</xsl:if>`, rng.Intn(3), body(depth+1))
			case 4:
				fmt.Fprintf(&b, `<xsl:choose><xsl:when test="@id">%s</xsl:when><xsl:otherwise>%s</xsl:otherwise></xsl:choose>`,
					body(depth+1), body(depth+1))
			case 5:
				sort := ""
				if rng.Intn(2) == 0 {
					sort = `<xsl:sort select="name()" order="descending"/>`
				}
				fmt.Fprintf(&b, `<xsl:for-each select="*">%s%s</xsl:for-each>`, sort, body(depth+1))
			case 6:
				fmt.Fprintf(&b, `<xsl:apply-templates select="*"/>`)
			case 7:
				fmt.Fprintf(&b, `<xsl:apply-templates select="*" mode="m%d"/>`, rng.Intn(2))
			case 8:
				fmt.Fprintf(&b, `<xsl:variable name="v%d" select="count(*)"/><xsl:value-of select="$v%d"/>`, depth, depth)
			case 9:
				fmt.Fprintf(&b, `<xsl:element name="e-{count(*)}"><xsl:attribute name="k">%s</xsl:attribute></xsl:element>`, body(depth+1))
			case 10:
				fmt.Fprintf(&b, `<xsl:comment>%s</xsl:comment>`, body(depth+1))
			case 11:
				fmt.Fprintf(&b, `<xsl:processing-instruction name="pi">p</xsl:processing-instruction>`)
			case 12:
				fmt.Fprintf(&b, `<xsl:copy>%s</xsl:copy>`, body(depth+1))
			case 13:
				fmt.Fprintf(&b, `<xsl:copy-of select="@*"/>`)
			case 14:
				fmt.Fprintf(&b, `<n><xsl:number format="%s"/></n>`, []string{"1", "01", "a", "i"}[rng.Intn(4)])
			case 15:
				fmt.Fprintf(&b, `<xsl:call-template name="leaf"><xsl:with-param name="p" select="'x%d'"/></xsl:call-template>`, rng.Intn(3))
			case 16:
				fmt.Fprintf(&b, `<xsl:variable name="f%d">%s</xsl:variable><rtf s="{$f%d}" n="{count($f%d/*)}"><xsl:copy-of select="$f%d"/></rtf>`,
					depth, body(depth+1), depth, depth, depth)
			case 17:
				fmt.Fprintf(&b, `<xsl:call-template name="leaf"><xsl:with-param name="q">%s</xsl:with-param></xsl:call-template>`, body(depth+1))
			case 18:
				fmt.Fprintf(&b, `<%s xsl:use-attribute-sets="%s" k="lit"/>`, name(), sets[rng.Intn(len(sets))])
			case 19:
				fmt.Fprintf(&b, `<xsl:element name="%s" use-attribute-sets="%s">%s</xsl:element>`, name(), sets[rng.Intn(len(sets))], body(depth+1))
			case 20:
				fmt.Fprintf(&b, `<xsl:for-each select="*|@*"><xsl:sort select="string-length(name()) - %d" data-type="{$dt}" order="{$ord}"/><xsl:copy use-attribute-sets="%s">%s</xsl:copy></xsl:for-each>`,
					rng.Intn(3), sets[rng.Intn(len(sets))], body(depth+1))
			case 21:
				fmt.Fprintf(&b, `<xsl:number value="count(*) * %d div 4" format="%s"/>|<xsl:value-of select="$g"/>`, rng.Intn(9), []string{"1", "01", "a", "i"}[rng.Intn(4)])
			case 22:
				fmt.Fprintf(&b, `<xsl:document href="s%d.html">%s</xsl:document>`, rng.Intn(2), body(depth+1))
			case 23:
				fmt.Fprintf(&b, `<xsl:document href="p-{name()}.html"><p>%s</p></xsl:document>`, body(depth+1))
			case 24:
				fmt.Fprintf(&b, `<xsl:document href="o%d.html"><o>%s<xsl:document href="i-{count(*)}.html">%s</xsl:document></o></xsl:document>`,
					rng.Intn(2), body(depth+1), body(depth+1))
			case 25:
				b.WriteString(`<xsl:call-template name="page"/>`)
			default:
				b.WriteString(`<xsl:apply-templates select="*" mode="doc"/>`)
			}
		}
		return b.String()
	}
	var b strings.Builder
	b.WriteString(`<xsl:stylesheet version="1.0" xmlns:xsl="http://www.w3.org/1999/XSL/Transform">` + "\n")
	b.WriteString(`<xsl:attribute-set name="s1" use-attribute-sets="s2"><xsl:attribute name="k">s1</xsl:attribute></xsl:attribute-set>` + "\n")
	b.WriteString(`<xsl:attribute-set name="s2"><xsl:attribute name="k">s2</xsl:attribute><xsl:attribute name="n"><xsl:value-of select="name()"/></xsl:attribute></xsl:attribute-set>` + "\n")
	fmt.Fprintf(&b, `<xsl:variable name="dt">%s</xsl:variable><xsl:variable name="ord" select="'%s'"/>`+"\n",
		[]string{"text", "number"}[rng.Intn(2)], []string{"ascending", "descending"}[rng.Intn(2)])
	b.WriteString(`<xsl:variable name="g"><gv><xsl:value-of select="name(/*)"/></gv></xsl:variable>` + "\n")
	b.WriteString(`<xsl:template name="leaf"><xsl:param name="p" select="'d'"/><xsl:param name="q"><qd><xsl:value-of select="name()"/></qd></xsl:param><leaf p="{$p}" q="{$q}"/></xsl:template>` + "\n")
	if docs {
		b.WriteString(`<xsl:template name="page"><xsl:document href="n-{name()}.html"><pg><xsl:value-of select="name()"/></pg></xsl:document></xsl:template>` + "\n")
		fmt.Fprintf(&b, `<xsl:template match="*" mode="doc"><xsl:document href="m-{name()}.html">%s</xsl:document></xsl:template>`+"\n", body(1))
	}
	fmt.Fprintf(&b, `<xsl:template match="/"><r>%s<xsl:apply-templates select="*"/></r></xsl:template>`+"\n", body(0))
	rules := 1 + rng.Intn(4)
	for i := 0; i < rules; i++ {
		match := []string{"*", name(), name() + "[@id]", "text()"}[rng.Intn(4)]
		mode := ""
		if rng.Intn(3) == 0 {
			mode = fmt.Sprintf(` mode="m%d"`, rng.Intn(2))
		}
		prio := ""
		if rng.Intn(2) == 0 {
			prio = fmt.Sprintf(` priority="%d"`, rng.Intn(5)-2)
		}
		fmt.Fprintf(&b, "<xsl:template match=%q%s%s>%s</xsl:template>\n", match, mode, prio, body(0))
	}
	b.WriteString(`</xsl:stylesheet>`)
	return b.String()
}

// genDoc derives a random source document from rng.
func genDoc(rng *rand.Rand) *xmldom.Node {
	names := []string{"a", "b", "c", "d", "z"}
	doc := xmldom.NewDocument()
	root := doc.AppendChild(&xmldom.Node{Type: xmldom.ElementNode, Name: "a"})
	var build func(p *xmldom.Node, depth int)
	build = func(p *xmldom.Node, depth int) {
		kids := rng.Intn(4)
		for i := 0; i < kids; i++ {
			switch rng.Intn(5) {
			case 0:
				p.AddText("t" + names[rng.Intn(len(names))])
			case 1:
				p.AppendChild(&xmldom.Node{Type: xmldom.CommentNode, Data: "c"})
			default:
				el := p.AppendChild(&xmldom.Node{Type: xmldom.ElementNode, Name: names[rng.Intn(len(names))]})
				if rng.Intn(2) == 0 {
					el.SetAttr("id", fmt.Sprintf("i%d", rng.Intn(9)))
				}
				if depth < 3 {
					build(el, depth+1)
				}
			}
		}
	}
	build(root, 0)
	xmldom.Freeze(doc)
	return doc
}

func FuzzTransform(f *testing.F) {
	for seed := int64(0); seed < 16; seed++ {
		f.Add(seed, seed*31+7)
	}
	f.Fuzz(func(t *testing.T, sheetSeed, docSeed int64) {
		src := genStylesheet(rand.New(rand.NewSource(sheetSeed)), true)
		sheet, err := xslt.CompileStylesheetString(src, xslt.CompileOptions{})
		if err != nil {
			t.Fatalf("generated stylesheet does not compile: %v\n%s", err, src)
		}
		if fs := verify.Program(sheet.Program()); len(fs) != 0 {
			t.Fatalf("seed %d: verifier findings %v\n%s", sheetSeed, fs, src)
		}
		doc := genDoc(rand.New(rand.NewSource(docSeed)))

		// Targeted runs: one href the full run produced and one it did
		// not, each checked against the full run.
		label := fmt.Sprintf("seed %d/%d\n%s\n", sheetSeed, docSeed, src)
		full, err := sheet.TransformToBuffers(doc, nil)
		if err != nil {
			// A targeted run skips only leaf bodies, so with none to skip
			// it runs everything the full run does and fails the same way.
			if !hasDocSkip(sheet) {
				for _, href := range []string{"", "absent.html"} {
					if _, terr := sheet.TransformPage(doc, nil, href); terr == nil || terr.Error() != err.Error() {
						t.Fatalf("%s: targeted %q error %v, full run error %v", label, href, terr, err)
					}
				}
			}
			return
		}
		hrefs := append([]string{""}, full.DocumentOrder...)
		checkPage(t, label, sheet, doc, nil, full, hrefs[int(uint64(docSeed)%uint64(len(hrefs)))])
		checkPage(t, label, sheet, doc, nil, full, "absent.html")
	})
}

// hasDocSkip reports whether any xsl:document body of the sheet carries a
// doc-skip operand.
func hasDocSkip(s *xslt.Stylesheet) bool {
	for _, in := range s.Program().Code() {
		if in.Op == xslt.OpDocBegin && in.B != 0 {
			return true
		}
	}
	return false
}
