package xslt

import (
	"strings"
	"testing"

	"goldweb/internal/xmldom"
)

// Interaction tests: features that are individually covered elsewhere but
// can break each other when combined.

func TestImportPrecedenceWithModes(t *testing.T) {
	imported := `<xsl:stylesheet xmlns:xsl="http://www.w3.org/1999/XSL/Transform" version="1.0">
	<xsl:template match="a" mode="m">imported-m</xsl:template>
	<xsl:template match="b" mode="m">imported-b</xsl:template>
	</xsl:stylesheet>`
	main := `<xsl:stylesheet xmlns:xsl="http://www.w3.org/1999/XSL/Transform" version="1.0">
	<xsl:output omit-xml-declaration="yes"/>
	<xsl:import href="base.xsl"/>
	<xsl:template match="/"><xsl:apply-templates select="//a|//b" mode="m"/></xsl:template>
	<xsl:template match="a" mode="m">main-m</xsl:template>
	</xsl:stylesheet>`
	loader := func(href string) (*xmldom.Node, error) { return xmldom.ParseString(imported) }
	sheet, err := CompileStylesheetString(main, CompileOptions{Loader: loader})
	if err != nil {
		t.Fatal(err)
	}
	out, err := mainOutput(sheet, xmldom.MustParseString(`<r><a/><b/></r>`), nil)
	if err != nil {
		t.Fatal(err)
	}
	// a: main wins (higher import precedence); b: only imported rule exists.
	if string(out) != "main-mimported-b" {
		t.Errorf("precedence × modes: %q", out)
	}
}

func TestPriorityBeatsOrderAcrossUnionAlternatives(t *testing.T) {
	// A union pattern splits into alternatives with their own default
	// priorities; the name-test alternative must lose to a later
	// predicate rule but beat an earlier wildcard.
	sheet := `<xsl:stylesheet xmlns:xsl="http://www.w3.org/1999/XSL/Transform" version="1.0">
	<xsl:output omit-xml-declaration="yes"/>
	<xsl:template match="*">wild</xsl:template>
	<xsl:template match="a|b[@x]">union</xsl:template>
	<xsl:template match="b[@x='1']">pred</xsl:template>
	</xsl:stylesheet>`
	cases := map[string]string{
		`<a/>`:       "union", // name test (0) beats * (-0.5)
		`<b x="1"/>`: "pred",  // both 0.5; later rule wins
		`<c/>`:       "wild",
	}
	for doc, want := range cases {
		if got := run(t, sheet, doc); got != want {
			t.Errorf("%s → %q, want %q", doc, got, want)
		}
	}
}

func TestVariablesInsideDocumentInstruction(t *testing.T) {
	// Variables declared inside xsl:document bodies stay scoped to them.
	sheetSrc := `<xsl:stylesheet xmlns:xsl="http://www.w3.org/1999/XSL/Transform" version="1.1">
	<xsl:output omit-xml-declaration="yes"/>
	<xsl:variable name="v" select="'outer'"/>
	<xsl:template match="/">
		<xsl:document href="sub.xml">
			<xsl:variable name="v" select="'inner'"/>
			<sub><xsl:value-of select="$v"/></sub>
		</xsl:document>
		<main><xsl:value-of select="$v"/></main>
	</xsl:template>
	</xsl:stylesheet>`
	sheet, err := CompileStylesheetString(sheetSrc, CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sheet.TransformToBuffers(xmldom.MustParseString(`<x/>`), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := string(res.Main); got != "<main>outer</main>" {
		t.Errorf("main: %q", got)
	}
	if got := string(res.Documents["sub.xml"]); got != "<sub>inner</sub>" {
		t.Errorf("sub: %q", got)
	}
}

func TestSortInsideFocusedForEachWithKeys(t *testing.T) {
	sheetSrc := `<xsl:stylesheet xmlns:xsl="http://www.w3.org/1999/XSL/Transform" version="1.0">
	<xsl:output omit-xml-declaration="yes"/>
	<xsl:key name="byGroup" match="item" use="@g"/>
	<xsl:template match="/">
		<xsl:for-each select="key('byGroup', 'x')">
			<xsl:sort select="@n" data-type="number" order="descending"/>
			[<xsl:value-of select="@n"/>]
		</xsl:for-each>
	</xsl:template>
	</xsl:stylesheet>`
	got := run(t, sheetSrc,
		`<r><item g="x" n="1"/><item g="y" n="9"/><item g="x" n="3"/><item g="x" n="2"/></r>`)
	// Literal text containing '[' is not whitespace-only, so the layout
	// newlines around it survive; compare ignoring all whitespace.
	got = strings.Join(strings.Fields(got), "")
	if got != "[3][2][1]" {
		t.Errorf("key+sort: %q", got)
	}
}

func TestIDPatternTemplate(t *testing.T) {
	sheet := `<xsl:stylesheet xmlns:xsl="http://www.w3.org/1999/XSL/Transform" version="1.0">
	<xsl:output omit-xml-declaration="yes"/>
	<xsl:template match="id('special')">!<xsl:value-of select="@id"/>!</xsl:template>
	<xsl:template match="text()"/>
	</xsl:stylesheet>`
	got := run(t, sheet, `<r><e id="plain"/><e id="special"/></r>`)
	if got != "!special!" {
		t.Errorf("id pattern: %q", got)
	}
}

func TestRecursiveRTFAccumulation(t *testing.T) {
	// A recursive template building a result-tree fragment through
	// with-param — the classic "join" idiom.
	sheetSrc := `<xsl:stylesheet xmlns:xsl="http://www.w3.org/1999/XSL/Transform" version="1.0">
	<xsl:output omit-xml-declaration="yes" method="text"/>
	<xsl:template match="/">
		<xsl:call-template name="join">
			<xsl:with-param name="nodes" select="//i"/>
		</xsl:call-template>
	</xsl:template>
	<xsl:template name="join">
		<xsl:param name="nodes"/>
		<xsl:for-each select="$nodes">
			<xsl:value-of select="."/>
			<xsl:if test="position() != last()">, </xsl:if>
		</xsl:for-each>
	</xsl:template>
	</xsl:stylesheet>`
	if got := run(t, sheetSrc, `<r><i>a</i><i>b</i><i>c</i></r>`); got != "a, b, c" {
		t.Errorf("join: %q", got)
	}
}

func TestCurrentInsideKeyUse(t *testing.T) {
	// current() inside a predicate refers to the template's current node
	// even within nested paths.
	sheetSrc := wrap(`<xsl:for-each select="//order">` +
		`<xsl:value-of select="@id"/>=<xsl:value-of select="count(//line[@order = current()/@id])"/>;` +
		`</xsl:for-each>`)
	got := run(t, sheetSrc, `<r><order id="o1"/><order id="o2"/>
		<line order="o1"/><line order="o1"/><line order="o2"/></r>`)
	if got != "o1=2;o2=1;" {
		t.Errorf("current() join: %q", got)
	}
}

func TestWhitespaceControlInGeneratedTables(t *testing.T) {
	// The pattern the embedded stylesheets rely on: whitespace-only
	// literal text between table cells is stripped, so html output has no
	// stray text nodes between <td>s.
	got := run(t, wrap(`<table>
		<tr>
			<td>a</td>
			<td>b</td>
		</tr>
	</table>`), `<x/>`)
	if got != "<table><tr><td>a</td><td>b</td></tr></table>" {
		t.Errorf("table whitespace: %q", got)
	}
}

func TestDisableOutputEscapingInHTMLMethod(t *testing.T) {
	sheetSrc := `<xsl:stylesheet xmlns:xsl="http://www.w3.org/1999/XSL/Transform" version="1.0">
	<xsl:output method="html"/>
	<xsl:template match="/"><html><body>
		<xsl:value-of select="//raw" disable-output-escaping="yes"/>
	</body></html></xsl:template>
	</xsl:stylesheet>`
	got := run(t, sheetSrc, `<r><raw>&lt;hr&gt;</raw></r>`)
	if !strings.Contains(got, "<hr>") {
		t.Errorf("d-o-e in html: %q", got)
	}
}

func TestAttributeSets(t *testing.T) {
	sheetSrc := `<xsl:stylesheet xmlns:xsl="http://www.w3.org/1999/XSL/Transform" version="1.0">
	<xsl:output omit-xml-declaration="yes"/>
	<xsl:attribute-set name="base">
		<xsl:attribute name="class">cell</xsl:attribute>
		<xsl:attribute name="role">data</xsl:attribute>
	</xsl:attribute-set>
	<xsl:attribute-set name="hot" use-attribute-sets="base">
		<xsl:attribute name="class">hot</xsl:attribute>
	</xsl:attribute-set>
	<xsl:template match="/">
		<a xsl:use-attribute-sets="base"/>
		<b xsl:use-attribute-sets="hot"/>
		<c xsl:use-attribute-sets="base" class="explicit"/>
		<xsl:element name="d" use-attribute-sets="base"/>
	</xsl:template>
	</xsl:stylesheet>`
	got := run(t, sheetSrc, `<x/>`)
	for _, want := range []string{
		`<a class="cell" role="data"/>`,
		`<b class="hot" role="data"/>`,      // own attribute beats merged set
		`<c class="explicit" role="data"/>`, // literal attribute beats set
		`<d class="cell" role="data"/>`,
	} {
		if !strings.Contains(got, want) {
			t.Errorf("missing %s in %s", want, got)
		}
	}
}

func TestAttributeSetOnCopy(t *testing.T) {
	sheetSrc := `<xsl:stylesheet xmlns:xsl="http://www.w3.org/1999/XSL/Transform" version="1.0">
	<xsl:output omit-xml-declaration="yes"/>
	<xsl:attribute-set name="mark"><xsl:attribute name="seen">yes</xsl:attribute></xsl:attribute-set>
	<xsl:template match="/|node()"><xsl:copy use-attribute-sets="mark"><xsl:apply-templates/></xsl:copy></xsl:template>
	</xsl:stylesheet>`
	got := run(t, sheetSrc, `<r><c/></r>`)
	if !strings.Contains(got, `<r seen="yes">`) || !strings.Contains(got, `<c seen="yes"/>`) {
		t.Errorf("copy attribute set: %s", got)
	}
}

func TestAttributeSetErrors(t *testing.T) {
	// Unknown set name fails at runtime.
	sheet, err := CompileStylesheetString(wrap(`<e xsl:use-attribute-sets="ghost"/>`), CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sheet.TransformToBuffers(xmldom.MustParseString(`<x/>`), nil); err == nil {
		t.Error("unknown attribute set accepted")
	}
	// Circular references are caught.
	circ := `<xsl:stylesheet xmlns:xsl="http://www.w3.org/1999/XSL/Transform" version="1.0">
	<xsl:attribute-set name="a" use-attribute-sets="b"><xsl:attribute name="x">1</xsl:attribute></xsl:attribute-set>
	<xsl:attribute-set name="b" use-attribute-sets="a"><xsl:attribute name="y">2</xsl:attribute></xsl:attribute-set>
	<xsl:template match="/"><e xsl:use-attribute-sets="a"/></xsl:template>
	</xsl:stylesheet>`
	sheet, err = CompileStylesheetString(circ, CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sheet.TransformToBuffers(xmldom.MustParseString(`<x/>`), nil); err == nil ||
		!strings.Contains(err.Error(), "circular") {
		t.Errorf("circular sets: %v", err)
	}
	// Non-attribute content is rejected at compile time.
	bad := `<xsl:stylesheet xmlns:xsl="http://www.w3.org/1999/XSL/Transform" version="1.0">
	<xsl:attribute-set name="a"><xsl:text>nope</xsl:text></xsl:attribute-set>
	</xsl:stylesheet>`
	if _, err := CompileStylesheetString(bad, CompileOptions{}); err == nil {
		t.Error("attribute-set with text child accepted")
	}
}

func TestApplyImports(t *testing.T) {
	imported := `<xsl:stylesheet xmlns:xsl="http://www.w3.org/1999/XSL/Transform" version="1.0">
	<xsl:template match="para">[base: <xsl:apply-templates/>]</xsl:template>
	</xsl:stylesheet>`
	main := `<xsl:stylesheet xmlns:xsl="http://www.w3.org/1999/XSL/Transform" version="1.0">
	<xsl:output omit-xml-declaration="yes"/>
	<xsl:import href="base.xsl"/>
	<xsl:template match="/"><xsl:apply-templates/></xsl:template>
	<xsl:template match="para"><b><xsl:apply-imports/></b></xsl:template>
	</xsl:stylesheet>`
	loader := func(href string) (*xmldom.Node, error) { return xmldom.ParseString(imported) }
	sheet, err := CompileStylesheetString(main, CompileOptions{Loader: loader})
	if err != nil {
		t.Fatal(err)
	}
	out, err := mainOutput(sheet, xmldom.MustParseString(`<para>text</para>`), nil)
	if err != nil {
		t.Fatal(err)
	}
	// The classic wrap-and-delegate pattern: the importing rule adds <b>,
	// the imported rule supplies the brackets.
	if string(out) != "<b>[base: text]</b>" {
		t.Errorf("apply-imports: %q", out)
	}
}

func TestApplyImportsWithoutLowerRule(t *testing.T) {
	// No imported rule: apply-imports falls through to the built-in rule
	// (which, for an element, applies templates to children) or produces
	// nothing below the built-ins; it must not recurse into itself.
	sheetSrc := `<xsl:stylesheet xmlns:xsl="http://www.w3.org/1999/XSL/Transform" version="1.0">
	<xsl:output omit-xml-declaration="yes"/>
	<xsl:template match="/"><xsl:apply-templates/></xsl:template>
	<xsl:template match="e">(<xsl:apply-imports/>)</xsl:template>
	</xsl:stylesheet>`
	got := run(t, sheetSrc, `<e>inner</e>`)
	if got != "(inner)" {
		t.Errorf("fallthrough to built-in: %q", got)
	}
}
