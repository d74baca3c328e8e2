package xslt

import (
	"fmt"
	"strings"
	"testing"

	"goldweb/internal/xmldom"
	"goldweb/internal/xpath"
)

// wrap builds a one-template stylesheet matching the document root.
func wrap(body string) string {
	return `<xsl:stylesheet xmlns:xsl="http://www.w3.org/1999/XSL/Transform" version="1.0">` +
		`<xsl:output omit-xml-declaration="yes"/>` +
		`<xsl:template match="/">` + body + `</xsl:template></xsl:stylesheet>`
}

// mainOutput runs a full transformation and returns its principal output
// document.
func mainOutput(s *Stylesheet, source *xmldom.Node, params map[string]xpath.Value) ([]byte, error) {
	r, err := s.TransformToBuffers(source, params)
	if err != nil {
		return nil, err
	}
	return r.Main, nil
}

// run compiles sheetSrc, transforms docSrc and returns the serialized main
// output.
func run(t *testing.T, sheetSrc, docSrc string) string {
	t.Helper()
	sheet, err := CompileStylesheetString(sheetSrc, CompileOptions{})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	doc, err := xmldom.ParseString(docSrc)
	if err != nil {
		t.Fatalf("parse source: %v", err)
	}
	out, err := mainOutput(sheet, doc, nil)
	if err != nil {
		t.Fatalf("transform: %v", err)
	}
	return string(out)
}

func TestLiteralResultElement(t *testing.T) {
	got := run(t, wrap(`<html><body>hi</body></html>`), `<x/>`)
	if got != `<html><body>hi</body></html>` {
		t.Errorf("got %s", got)
	}
}

func TestValueOf(t *testing.T) {
	got := run(t, wrap(`<p><xsl:value-of select="/m/@name"/></p>`), `<m name="Sales"/>`)
	if got != `<p>Sales</p>` {
		t.Errorf("got %s", got)
	}
}

func TestValueOfEscapes(t *testing.T) {
	got := run(t, wrap(`<p><xsl:value-of select="/m"/></p>`), `<m>a &lt; b</m>`)
	if got != `<p>a &lt; b</p>` {
		t.Errorf("got %s", got)
	}
}

func TestDisableOutputEscaping(t *testing.T) {
	got := run(t, wrap(`<p><xsl:value-of select="/m" disable-output-escaping="yes"/></p>`), `<m>&lt;raw/&gt;</m>`)
	if got != `<p><raw/></p>` {
		t.Errorf("got %s", got)
	}
}

func TestForEach(t *testing.T) {
	got := run(t, wrap(`<ul><xsl:for-each select="//item"><li><xsl:value-of select="."/></li></xsl:for-each></ul>`),
		`<r><item>a</item><item>b</item></r>`)
	if got != `<ul><li>a</li><li>b</li></ul>` {
		t.Errorf("got %s", got)
	}
}

func TestForEachSort(t *testing.T) {
	src := `<r><i v="b"/><i v="a"/><i v="c"/></r>`
	got := run(t, wrap(`<xsl:for-each select="//i"><xsl:sort select="@v"/><xsl:value-of select="@v"/></xsl:for-each>`), src)
	if got != "abc" {
		t.Errorf("ascending sort = %s", got)
	}
	got = run(t, wrap(`<xsl:for-each select="//i"><xsl:sort select="@v" order="descending"/><xsl:value-of select="@v"/></xsl:for-each>`), src)
	if got != "cba" {
		t.Errorf("descending sort = %s", got)
	}
}

func TestNumericSort(t *testing.T) {
	src := `<r><i>10</i><i>9</i><i>100</i></r>`
	got := run(t, wrap(`<xsl:for-each select="//i"><xsl:sort select="." data-type="number"/><xsl:value-of select="."/>,</xsl:for-each>`), src)
	if got != "9,10,100," {
		t.Errorf("numeric sort = %s", got)
	}
	got = run(t, wrap(`<xsl:for-each select="//i"><xsl:sort select="."/><xsl:value-of select="."/>,</xsl:for-each>`), src)
	if got != "10,100,9," {
		t.Errorf("text sort = %s", got)
	}
}

func TestMultiKeySort(t *testing.T) {
	src := `<r><p g="2" n="a"/><p g="1" n="b"/><p g="1" n="a"/></r>`
	got := run(t, wrap(`<xsl:for-each select="//p"><xsl:sort select="@g"/><xsl:sort select="@n"/>`+
		`<xsl:value-of select="@g"/><xsl:value-of select="@n"/><xsl:text> </xsl:text></xsl:for-each>`), src)
	if strings.TrimSpace(got) != "1a 1b 2a" {
		t.Errorf("multi-key sort = %q", got)
	}
}

func TestIfAndChoose(t *testing.T) {
	sheet := wrap(`<xsl:for-each select="//i">
		<xsl:if test="@x"><xsl:text>X</xsl:text></xsl:if>
		<xsl:choose>
			<xsl:when test=". > 5">big</xsl:when>
			<xsl:when test=". = 5">five</xsl:when>
			<xsl:otherwise>small</xsl:otherwise>
		</xsl:choose>
	</xsl:for-each>`)
	got := run(t, sheet, `<r><i>3</i><i x="1">5</i><i>9</i></r>`)
	if got != "smallXfivebig" {
		t.Errorf("got %q", got)
	}
}

func TestTemplateMatchingAndApply(t *testing.T) {
	sheet := `<xsl:stylesheet xmlns:xsl="http://www.w3.org/1999/XSL/Transform" version="1.0">
	<xsl:output omit-xml-declaration="yes"/>
	<xsl:template match="/"><doc><xsl:apply-templates/></doc></xsl:template>
	<xsl:template match="a"><A><xsl:apply-templates/></A></xsl:template>
	<xsl:template match="b"><B/></xsl:template>
	<xsl:template match="text()"/>
	</xsl:stylesheet>`
	got := run(t, sheet, `<a>one<b>two</b></a>`)
	if got != `<doc><A><B/></A></doc>` {
		t.Errorf("got %s", got)
	}
}

func TestBuiltinRules(t *testing.T) {
	// With no user templates, built-ins walk the tree and copy text.
	sheet := `<xsl:stylesheet xmlns:xsl="http://www.w3.org/1999/XSL/Transform" version="1.0">
	<xsl:output omit-xml-declaration="yes"/></xsl:stylesheet>`
	got := run(t, sheet, `<a>one<b>two</b>three<!--no--><?pi no?></a>`)
	if got != "onetwothree" {
		t.Errorf("built-in rules output = %q", got)
	}
}

func TestTemplatePriority(t *testing.T) {
	sheet := `<xsl:stylesheet xmlns:xsl="http://www.w3.org/1999/XSL/Transform" version="1.0">
	<xsl:output omit-xml-declaration="yes"/>
	<xsl:template match="*">star</xsl:template>
	<xsl:template match="a">name</xsl:template>
	<xsl:template match="a[@x]">pred</xsl:template>
	</xsl:stylesheet>`
	if got := run(t, sheet, `<a/>`); got != "name" {
		t.Errorf("name test should beat *: %q", got)
	}
	if got := run(t, sheet, `<a x="1"/>`); got != "pred" {
		t.Errorf("predicate pattern should win: %q", got)
	}
	if got := run(t, sheet, `<z/>`); got != "star" {
		t.Errorf("* should match: %q", got)
	}
}

func TestExplicitPriorityAndTieBreak(t *testing.T) {
	sheet := `<xsl:stylesheet xmlns:xsl="http://www.w3.org/1999/XSL/Transform" version="1.0">
	<xsl:output omit-xml-declaration="yes"/>
	<xsl:template match="a" priority="2">low</xsl:template>
	<xsl:template match="a" priority="3">high</xsl:template>
	</xsl:stylesheet>`
	if got := run(t, sheet, `<a/>`); got != "high" {
		t.Errorf("explicit priority: %q", got)
	}
	sheet2 := `<xsl:stylesheet xmlns:xsl="http://www.w3.org/1999/XSL/Transform" version="1.0">
	<xsl:output omit-xml-declaration="yes"/>
	<xsl:template match="a">first</xsl:template>
	<xsl:template match="a">last</xsl:template>
	</xsl:stylesheet>`
	if got := run(t, sheet2, `<a/>`); got != "last" {
		t.Errorf("later rule should win ties: %q", got)
	}
}

func TestModes(t *testing.T) {
	sheet := `<xsl:stylesheet xmlns:xsl="http://www.w3.org/1999/XSL/Transform" version="1.0">
	<xsl:output omit-xml-declaration="yes"/>
	<xsl:template match="/"><xsl:apply-templates select="//a"/>|<xsl:apply-templates select="//a" mode="toc"/></xsl:template>
	<xsl:template match="a">full</xsl:template>
	<xsl:template match="a" mode="toc">toc</xsl:template>
	</xsl:stylesheet>`
	if got := run(t, sheet, `<a/>`); got != "full|toc" {
		t.Errorf("modes: %q", got)
	}
}

func TestModeBuiltinFallthrough(t *testing.T) {
	// In a mode with no rule for an element, the built-in rule recurses
	// in the same mode.
	sheet := `<xsl:stylesheet xmlns:xsl="http://www.w3.org/1999/XSL/Transform" version="1.0">
	<xsl:output omit-xml-declaration="yes"/>
	<xsl:template match="/"><xsl:apply-templates mode="m"/></xsl:template>
	<xsl:template match="b" mode="m">B</xsl:template>
	</xsl:stylesheet>`
	if got := run(t, sheet, `<a><b/><c><b/></c></a>`); got != "BB" {
		t.Errorf("mode fallthrough: %q", got)
	}
}

func TestNamedTemplatesAndParams(t *testing.T) {
	sheet := `<xsl:stylesheet xmlns:xsl="http://www.w3.org/1999/XSL/Transform" version="1.0">
	<xsl:output omit-xml-declaration="yes"/>
	<xsl:template match="/">
		<xsl:call-template name="greet"/>
		<xsl:call-template name="greet"><xsl:with-param name="who">world</xsl:with-param></xsl:call-template>
		<xsl:call-template name="greet"><xsl:with-param name="who" select="'select'"/></xsl:call-template>
	</xsl:template>
	<xsl:template name="greet"><xsl:param name="who" select="'default'"/>[<xsl:value-of select="$who"/>]</xsl:template>
	</xsl:stylesheet>`
	if got := run(t, sheet, `<x/>`); got != "[default][world][select]" {
		t.Errorf("params: %q", got)
	}
}

func TestApplyTemplatesWithParam(t *testing.T) {
	sheet := `<xsl:stylesheet xmlns:xsl="http://www.w3.org/1999/XSL/Transform" version="1.0">
	<xsl:output omit-xml-declaration="yes"/>
	<xsl:template match="/"><xsl:apply-templates select="//a"><xsl:with-param name="p" select="42"/></xsl:apply-templates></xsl:template>
	<xsl:template match="a"><xsl:param name="p" select="0"/><xsl:value-of select="$p"/></xsl:template>
	</xsl:stylesheet>`
	if got := run(t, sheet, `<a/>`); got != "42" {
		t.Errorf("apply with-param: %q", got)
	}
}

func TestVariablesAndScoping(t *testing.T) {
	sheet := wrap(`<xsl:variable name="v" select="'outer'"/>
	<xsl:for-each select="//i">
		<xsl:variable name="v" select="'inner'"/>
		<xsl:value-of select="$v"/>
	</xsl:for-each>|<xsl:value-of select="$v"/>`)
	if got := run(t, sheet, `<r><i/></r>`); got != "inner|outer" {
		t.Errorf("scoping: %q", got)
	}
}

func TestVariableRTF(t *testing.T) {
	sheet := wrap(`<xsl:variable name="frag"><x>one</x><y>two</y></xsl:variable>` +
		`<xsl:value-of select="$frag"/>|<xsl:copy-of select="$frag"/>`)
	if got := run(t, sheet, `<r/>`); got != `onetwo|<x>one</x><y>two</y>` {
		t.Errorf("RTF: %q", got)
	}
}

func TestGlobalVariablesAndStylesheetParams(t *testing.T) {
	sheetSrc := `<xsl:stylesheet xmlns:xsl="http://www.w3.org/1999/XSL/Transform" version="1.0">
	<xsl:output omit-xml-declaration="yes"/>
	<xsl:param name="title" select="'default title'"/>
	<xsl:variable name="n" select="count(//i)"/>
	<xsl:template match="/"><xsl:value-of select="$title"/>:<xsl:value-of select="$n"/></xsl:template>
	</xsl:stylesheet>`
	sheet, err := CompileStylesheetString(sheetSrc, CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	doc := xmldom.MustParseString(`<r><i/><i/></r>`)
	out, err := mainOutput(sheet, doc, nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != "default title:2" {
		t.Errorf("defaults: %q", out)
	}
	out, err = mainOutput(sheet, doc, map[string]xpath.Value{"title": xpath.String("custom")})
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != "custom:2" {
		t.Errorf("override: %q", out)
	}
}

func TestAttributeValueTemplates(t *testing.T) {
	got := run(t, wrap(`<a href="{/m/@id}.html" lit="x{{y}}z">link</a>`), `<m id="f1"/>`)
	if got != `<a href="f1.html" lit="x{y}z">link</a>` {
		t.Errorf("AVT: %q", got)
	}
}

func TestElementAndAttributeInstructions(t *testing.T) {
	got := run(t, wrap(`<xsl:element name="e{/m/@n}"><xsl:attribute name="k">v<xsl:value-of select="/m/@n"/></xsl:attribute>body</xsl:element>`), `<m n="1"/>`)
	if got != `<e1 k="v1">body</e1>` {
		t.Errorf("element/attribute: %q", got)
	}
}

func TestCopyAndCopyOf(t *testing.T) {
	sheet := `<xsl:stylesheet xmlns:xsl="http://www.w3.org/1999/XSL/Transform" version="1.0">
	<xsl:output omit-xml-declaration="yes"/>
	<xsl:template match="/|@*|node()"><xsl:copy><xsl:apply-templates select="@*|node()"/></xsl:copy></xsl:template>
	</xsl:stylesheet>`
	src := `<a x="1"><b>t<!--c--></b><?p d?></a>`
	if got := run(t, sheet, src); got != src {
		t.Errorf("identity transform: %q != %q", got, src)
	}
	got := run(t, wrap(`<xsl:copy-of select="/a/b"/>`), `<a><b x="1">t</b><b>u</b></a>`)
	if got != `<b x="1">t</b><b>u</b>` {
		t.Errorf("copy-of: %q", got)
	}
}

func TestCommentAndPIOutput(t *testing.T) {
	got := run(t, wrap(`<xsl:comment>hello <xsl:value-of select="name(/*)"/></xsl:comment><xsl:processing-instruction name="target">data</xsl:processing-instruction>`), `<root/>`)
	if got != `<!--hello root--><?target data?>` {
		t.Errorf("comment/pi: %q", got)
	}
}

func TestTextInstructionPreservesSpace(t *testing.T) {
	// Whitespace-only literal text is stripped, xsl:text keeps it.
	got := run(t, wrap(`<xsl:value-of select="'a'"/> <xsl:value-of select="'b'"/>`), `<r/>`)
	if got != "ab" {
		t.Errorf("bare space should be stripped: %q", got)
	}
	got = run(t, wrap(`<xsl:value-of select="'a'"/><xsl:text> </xsl:text><xsl:value-of select="'b'"/>`), `<r/>`)
	if got != "a b" {
		t.Errorf("xsl:text space: %q", got)
	}
}

func TestCurrentFunction(t *testing.T) {
	sheet := wrap(`<xsl:for-each select="//b"><xsl:value-of select="//a[@ref=current()/@id]/@name"/></xsl:for-each>`)
	got := run(t, sheet, `<r><a ref="1" name="one"/><a ref="2" name="two"/><b id="2"/></r>`)
	if got != "two" {
		t.Errorf("current(): %q", got)
	}
}

func TestGenerateID(t *testing.T) {
	sheet := wrap(`<xsl:variable name="i1"><xsl:value-of select="generate-id(//a)"/></xsl:variable>` +
		`<xsl:variable name="i2"><xsl:value-of select="generate-id(//a)"/></xsl:variable>` +
		`<xsl:variable name="i3"><xsl:value-of select="generate-id(//b)"/></xsl:variable>` +
		`<xsl:if test="$i1 = $i2">same</xsl:if><xsl:if test="$i1 != $i3">diff</xsl:if>`)
	got := run(t, sheet, `<r><a/><b/></r>`)
	if got != "samediff" {
		t.Errorf("generate-id: %q", got)
	}
}

func TestKeys(t *testing.T) {
	sheet := `<xsl:stylesheet xmlns:xsl="http://www.w3.org/1999/XSL/Transform" version="1.0">
	<xsl:output omit-xml-declaration="yes"/>
	<xsl:key name="byid" match="item" use="@id"/>
	<xsl:template match="/"><xsl:value-of select="key('byid', 'b')/@name"/></xsl:template>
	</xsl:stylesheet>`
	got := run(t, sheet, `<r><item id="a" name="Alpha"/><item id="b" name="Beta"/></r>`)
	if got != "Beta" {
		t.Errorf("key(): %q", got)
	}
}

func TestXslDocumentMultiOutput(t *testing.T) {
	// The paper's XSLT 1.1 mode: one output page per fact class, named by
	// its id, plus links in the main page.
	sheetSrc := `<xsl:stylesheet xmlns:xsl="http://www.w3.org/1999/XSL/Transform" version="1.1">
	<xsl:output method="html"/>
	<xsl:template match="/">
		<html><body>
		<xsl:for-each select="//factclass">
			<xsl:variable name="url" select="@id"/>
			<a href="{$url}.html"><xsl:value-of select="@name"/></a>
			<xsl:document href="{$url}.html">
				<html><head><title>Fact class: <xsl:value-of select="@name"/></title></head>
				<body><xsl:value-of select="@name"/></body></html>
			</xsl:document>
		</xsl:for-each>
		</body></html>
	</xsl:template>
	</xsl:stylesheet>`
	sheet, err := CompileStylesheetString(sheetSrc, CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	doc := xmldom.MustParseString(`<m><factclass id="f1" name="Sales"/><factclass id="f2" name="Inventory"/></m>`)
	res, err := sheet.TransformToBuffers(doc, nil)
	if err != nil {
		t.Fatal(err)
	}
	main := string(res.Main)
	if !strings.Contains(main, `<a href="f1.html">Sales</a>`) ||
		!strings.Contains(main, `<a href="f2.html">Inventory</a>`) {
		t.Errorf("main page: %s", main)
	}
	if len(res.Documents) != 2 {
		t.Fatalf("documents: %d", len(res.Documents))
	}
	f1 := string(res.Documents["f1.html"])
	if !strings.Contains(f1, "<title>Fact class: Sales</title>") {
		t.Errorf("f1.html: %s", f1)
	}
	if res.DocumentOrder[0] != "f1.html" || res.DocumentOrder[1] != "f2.html" {
		t.Errorf("order: %v", res.DocumentOrder)
	}
	// Multi-page content must not leak into the main document.
	if strings.Contains(main, "Fact class:") {
		t.Error("xsl:document content leaked into main output")
	}
}

func TestHTMLOutputMethod(t *testing.T) {
	sheetSrc := `<xsl:stylesheet xmlns:xsl="http://www.w3.org/1999/XSL/Transform" version="1.0">
	<xsl:output method="html" doctype-public="-//W3C//DTD HTML 4.01//EN"/>
	<xsl:template match="/"><html><body><br/><img src="x.png"/></body></html></xsl:template>
	</xsl:stylesheet>`
	got := run(t, sheetSrc, `<x/>`)
	if !strings.HasPrefix(got, `<!DOCTYPE html PUBLIC "-//W3C//DTD HTML 4.01//EN">`) {
		t.Errorf("doctype: %s", got)
	}
	if strings.Contains(got, "<br/>") || strings.Contains(got, "</br>") {
		t.Errorf("void element: %s", got)
	}
	if strings.Contains(got, "<?xml") {
		t.Errorf("declaration in html: %s", got)
	}
}

func TestHTMLAutoDetection(t *testing.T) {
	// No explicit method + <html> root → html output rules.
	got := run(t, wrap(`<html><body><br/></body></html>`), `<x/>`)
	if strings.Contains(got, "<br/>") {
		t.Errorf("auto html method not applied: %s", got)
	}
	// Non-html root stays xml.
	got = run(t, wrap(`<data><br/></data>`), `<x/>`)
	if !strings.Contains(got, "<br/>") {
		t.Errorf("xml method lost: %s", got)
	}
}

func TestTextOutputMethod(t *testing.T) {
	sheetSrc := `<xsl:stylesheet xmlns:xsl="http://www.w3.org/1999/XSL/Transform" version="1.0">
	<xsl:output method="text"/>
	<xsl:template match="/">value: <xsl:value-of select="//v"/></xsl:template>
	</xsl:stylesheet>`
	got := run(t, sheetSrc, `<r><v>42</v></r>`)
	if got != "value: 42" {
		t.Errorf("text method: %q", got)
	}
}

func TestMessages(t *testing.T) {
	sheetSrc := `<xsl:stylesheet xmlns:xsl="http://www.w3.org/1999/XSL/Transform" version="1.0">
	<xsl:template match="/"><xsl:message>note <xsl:value-of select="name(/*)"/></xsl:message><ok/></xsl:template>
	</xsl:stylesheet>`
	sheet, _ := CompileStylesheetString(sheetSrc, CompileOptions{})
	res, err := sheet.TransformToBuffers(xmldom.MustParseString(`<root/>`), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Messages) != 1 || res.Messages[0] != "note root" {
		t.Errorf("messages: %v", res.Messages)
	}
	// terminate="yes" aborts.
	sheetSrc = strings.Replace(sheetSrc, "<xsl:message>", `<xsl:message terminate="yes">`, 1)
	sheet, _ = CompileStylesheetString(sheetSrc, CompileOptions{})
	if _, err := sheet.TransformToBuffers(xmldom.MustParseString(`<root/>`), nil); err == nil {
		t.Error("terminate should abort the transform")
	}
}

func TestIncludeViaLoader(t *testing.T) {
	lib := `<xsl:stylesheet xmlns:xsl="http://www.w3.org/1999/XSL/Transform" version="1.0">
	<xsl:template name="lib">from-lib</xsl:template></xsl:stylesheet>`
	main := `<xsl:stylesheet xmlns:xsl="http://www.w3.org/1999/XSL/Transform" version="1.0">
	<xsl:output omit-xml-declaration="yes"/>
	<xsl:include href="lib.xsl"/>
	<xsl:template match="/"><xsl:call-template name="lib"/></xsl:template>
	</xsl:stylesheet>`
	loader := func(href string) (*xmldom.Node, error) {
		if href == "lib.xsl" {
			return xmldom.ParseString(lib)
		}
		return nil, fmt.Errorf("not found: %s", href)
	}
	sheet, err := CompileStylesheetString(main, CompileOptions{Loader: loader})
	if err != nil {
		t.Fatal(err)
	}
	out, err := mainOutput(sheet, xmldom.MustParseString(`<x/>`), nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != "from-lib" {
		t.Errorf("include: %q", out)
	}
}

func TestImportPrecedence(t *testing.T) {
	imported := `<xsl:stylesheet xmlns:xsl="http://www.w3.org/1999/XSL/Transform" version="1.0">
	<xsl:template match="a">imported</xsl:template></xsl:stylesheet>`
	main := `<xsl:stylesheet xmlns:xsl="http://www.w3.org/1999/XSL/Transform" version="1.0">
	<xsl:output omit-xml-declaration="yes"/>
	<xsl:import href="base.xsl"/>
	<xsl:template match="a">main</xsl:template>
	</xsl:stylesheet>`
	loader := func(href string) (*xmldom.Node, error) { return xmldom.ParseString(imported) }
	sheet, err := CompileStylesheetString(main, CompileOptions{Loader: loader})
	if err != nil {
		t.Fatal(err)
	}
	out, _ := mainOutput(sheet, xmldom.MustParseString(`<a/>`), nil)
	if string(out) != "main" {
		t.Errorf("import precedence: %q", out)
	}
}

func TestDocumentFunction(t *testing.T) {
	other := `<lookup><entry key="k">resolved</entry></lookup>`
	loader := func(href string) (*xmldom.Node, error) {
		if href == "other.xml" {
			return xmldom.ParseString(other)
		}
		return nil, fmt.Errorf("not found")
	}
	sheetSrc := `<xsl:stylesheet xmlns:xsl="http://www.w3.org/1999/XSL/Transform" version="1.0">
	<xsl:output omit-xml-declaration="yes"/>
	<xsl:template match="/"><xsl:value-of select="document('other.xml')//entry[@key='k']"/></xsl:template>
	</xsl:stylesheet>`
	sheet, err := CompileStylesheetString(sheetSrc, CompileOptions{Loader: loader})
	if err != nil {
		t.Fatal(err)
	}
	out, err := mainOutput(sheet, xmldom.MustParseString(`<x/>`), nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != "resolved" {
		t.Errorf("document(): %q", out)
	}
}

func TestStripSpace(t *testing.T) {
	sheetSrc := `<xsl:stylesheet xmlns:xsl="http://www.w3.org/1999/XSL/Transform" version="1.0">
	<xsl:output omit-xml-declaration="yes"/>
	<xsl:strip-space elements="*"/>
	<xsl:preserve-space elements="keep"/>
	<xsl:template match="/"><xsl:copy-of select="/"/></xsl:template>
	</xsl:stylesheet>`
	got := run(t, sheetSrc, "<r>\n  <a>x</a>\n  <keep> </keep>\n</r>")
	if got != `<r><a>x</a><keep> </keep></r>` {
		t.Errorf("strip-space: %q", got)
	}
}

func TestXslNumber(t *testing.T) {
	sheetSrc := `<xsl:stylesheet xmlns:xsl="http://www.w3.org/1999/XSL/Transform" version="1.0">
	<xsl:output omit-xml-declaration="yes"/>
	<xsl:template match="/"><xsl:for-each select="//i"><xsl:number/>:<xsl:number format="a"/>:<xsl:number format="I"/><xsl:text> </xsl:text></xsl:for-each></xsl:template>
	</xsl:stylesheet>`
	got := run(t, sheetSrc, `<r><i/><i/><i/></r>`)
	if strings.TrimSpace(got) != "1:a:I 2:b:II 3:c:III" {
		t.Errorf("xsl:number: %q", got)
	}
}

func TestFormatNumber(t *testing.T) {
	cases := []struct {
		expr, want string
	}{
		{"format-number(1234.567, '#,##0.00')", "1,234.57"},
		{"format-number(0.5, '0%')", "50%"},
		{"format-number(42, '000')", "042"},
		{"format-number(-3.2, '0.0')", "-3.2"},
		{"format-number(1234, '#,###')", "1,234"},
		{"format-number(0.129, '0.##')", "0.13"},
	}
	for _, tc := range cases {
		got := run(t, wrap(`<xsl:value-of select="`+tc.expr+`"/>`), `<x/>`)
		if got != tc.want {
			t.Errorf("%s = %q, want %q", tc.expr, got, tc.want)
		}
	}
}

func TestCompileErrors(t *testing.T) {
	bad := []string{
		`<notxsl/>`,
		`<xsl:stylesheet xmlns:xsl="http://www.w3.org/1999/XSL/Transform"><xsl:template>nomatch</xsl:template></xsl:stylesheet>`,
		`<xsl:stylesheet xmlns:xsl="http://www.w3.org/1999/XSL/Transform"><xsl:template match="a"><xsl:value-of/></xsl:template></xsl:stylesheet>`,
		`<xsl:stylesheet xmlns:xsl="http://www.w3.org/1999/XSL/Transform"><xsl:template match="a"><xsl:value-of select="(("/></xsl:template></xsl:stylesheet>`,
		`<xsl:stylesheet xmlns:xsl="http://www.w3.org/1999/XSL/Transform"><xsl:template match="a"><xsl:frobnicate/></xsl:template></xsl:stylesheet>`,
		`<xsl:stylesheet xmlns:xsl="http://www.w3.org/1999/XSL/Transform"><xsl:template match="ancestor::a"/></xsl:stylesheet>`,
		`<xsl:stylesheet xmlns:xsl="http://www.w3.org/1999/XSL/Transform"><xsl:namespace-alias stylesheet-prefix="a" result-prefix="b"/></xsl:stylesheet>`,
	}
	for i, src := range bad {
		if _, err := CompileStylesheetString(src, CompileOptions{}); err == nil {
			t.Errorf("case %d: compile should fail", i)
		}
	}
}

func TestRuntimeErrors(t *testing.T) {
	// Unknown named template.
	sheet := wrap(`<xsl:call-template name="ghost"/>`)
	s, err := CompileStylesheetString(sheet, CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.TransformToBuffers(xmldom.MustParseString(`<x/>`), nil); err == nil {
		t.Error("missing template should error at runtime")
	}
	// Infinite recursion is caught.
	rec := `<xsl:stylesheet xmlns:xsl="http://www.w3.org/1999/XSL/Transform" version="1.0">
	<xsl:template match="/"><xsl:call-template name="loop"/></xsl:template>
	<xsl:template name="loop"><xsl:call-template name="loop"/></xsl:template>
	</xsl:stylesheet>`
	s, err = CompileStylesheetString(rec, CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.TransformToBuffers(xmldom.MustParseString(`<x/>`), nil); err == nil {
		t.Error("infinite recursion should be caught")
	}
}

func TestTransformElementSource(t *testing.T) {
	// Transforming a bare element wraps it in a document.
	sheet, _ := CompileStylesheetString(wrap(`<xsl:value-of select="name(/*)"/>`), CompileOptions{})
	elem := xmldom.NewElement("standalone")
	out, err := mainOutput(sheet, elem, nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != "standalone" {
		t.Errorf("element source: %q", out)
	}
}

func TestReuseAcrossTransforms(t *testing.T) {
	sheet, _ := CompileStylesheetString(wrap(`<xsl:value-of select="count(//i)"/>`), CompileOptions{})
	for i := 1; i <= 3; i++ {
		src := "<r>" + strings.Repeat("<i/>", i) + "</r>"
		out, err := mainOutput(sheet, xmldom.MustParseString(src), nil)
		if err != nil {
			t.Fatal(err)
		}
		if string(out) != fmt.Sprint(i) {
			t.Errorf("run %d: %q", i, out)
		}
	}
}
