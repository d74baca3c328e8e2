package xslt

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"goldweb/internal/xmldom"
	"goldweb/internal/xpath"
)

func TestApplyTemplatesWithSort(t *testing.T) {
	sheet := `<xsl:stylesheet xmlns:xsl="http://www.w3.org/1999/XSL/Transform" version="1.0">
	<xsl:output omit-xml-declaration="yes"/>
	<xsl:template match="/"><xsl:apply-templates select="//i"><xsl:sort select="@k"/></xsl:apply-templates></xsl:template>
	<xsl:template match="i">[<xsl:value-of select="@k"/>]</xsl:template>
	</xsl:stylesheet>`
	got := run(t, sheet, `<r><i k="c"/><i k="a"/><i k="b"/></r>`)
	if got != "[a][b][c]" {
		t.Errorf("sorted apply: %q", got)
	}
}

func TestPositionAndLastInTemplates(t *testing.T) {
	sheet := `<xsl:stylesheet xmlns:xsl="http://www.w3.org/1999/XSL/Transform" version="1.0">
	<xsl:output omit-xml-declaration="yes"/>
	<xsl:template match="/"><xsl:apply-templates select="//i"/></xsl:template>
	<xsl:template match="i"><xsl:value-of select="position()"/>/<xsl:value-of select="last()"/><xsl:text> </xsl:text></xsl:template>
	</xsl:stylesheet>`
	got := strings.TrimSpace(run(t, sheet, `<r><i/><i/><i/></r>`))
	if got != "1/3 2/3 3/3" {
		t.Errorf("position/last: %q", got)
	}
}

func TestPositionAfterSortReflectsSortedOrder(t *testing.T) {
	sheet := wrap(`<xsl:for-each select="//i"><xsl:sort select="." data-type="number" order="descending"/>` +
		`<xsl:value-of select="position()"/>:<xsl:value-of select="."/><xsl:text> </xsl:text></xsl:for-each>`)
	got := strings.TrimSpace(run(t, sheet, `<r><i>1</i><i>3</i><i>2</i></r>`))
	if got != "1:3 2:2 3:1" {
		t.Errorf("sorted positions: %q", got)
	}
}

func TestNestedDocumentInstructions(t *testing.T) {
	sheetSrc := `<xsl:stylesheet xmlns:xsl="http://www.w3.org/1999/XSL/Transform" version="1.1">
	<xsl:output omit-xml-declaration="yes"/>
	<xsl:template match="/">
		<main/>
		<xsl:document href="outer.xml">
			<outer/>
			<xsl:document href="inner.xml"><inner/></xsl:document>
		</xsl:document>
	</xsl:template>
	</xsl:stylesheet>`
	sheet, err := CompileVerified(t, sheetSrc, CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sheet.TransformToBuffers(xmldom.MustParseString(`<x/>`), nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(res.Main) != "<main/>" {
		t.Errorf("main: %s", res.Main)
	}
	if got := string(res.Documents["outer.xml"]); got != "<outer/>" {
		t.Errorf("outer: %q (inner content must not leak)", got)
	}
	if got := string(res.Documents["inner.xml"]); got != "<inner/>" {
		t.Errorf("inner: %q", got)
	}
}

func TestSameHrefAppends(t *testing.T) {
	sheetSrc := `<xsl:stylesheet xmlns:xsl="http://www.w3.org/1999/XSL/Transform" version="1.1">
	<xsl:template match="/">
		<xsl:for-each select="//i"><xsl:document href="all.xml"><i/></xsl:document></xsl:for-each>
	</xsl:template></xsl:stylesheet>`
	sheet, _ := CompileVerified(t, sheetSrc, CompileOptions{})
	res, err := sheet.TransformToBuffers(xmldom.MustParseString(`<r><i/><i/></r>`), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := string(res.Documents["all.xml"]), `<?xml version="1.0" encoding="UTF-8"?><i/><i/>`; got != want {
		t.Errorf("append semantics: %q, want %q", got, want)
	}
	if len(res.DocumentOrder) != 1 {
		t.Errorf("order has duplicates: %v", res.DocumentOrder)
	}
}

func TestVariableShadowingGlobal(t *testing.T) {
	sheetSrc := `<xsl:stylesheet xmlns:xsl="http://www.w3.org/1999/XSL/Transform" version="1.0">
	<xsl:output omit-xml-declaration="yes"/>
	<xsl:variable name="v" select="'global'"/>
	<xsl:template match="/">
		<xsl:variable name="v" select="'local'"/>
		<xsl:value-of select="$v"/>|<xsl:call-template name="peek"/>
	</xsl:template>
	<xsl:template name="peek"><xsl:value-of select="$v"/></xsl:template>
	</xsl:stylesheet>`
	got := run(t, sheetSrc, `<x/>`)
	// The local shadow holds inside the declaring template only: the
	// called template sees the global (XSLT 1.0 §11.5).
	if got != "local|global" {
		t.Errorf("shadowing: %q, want local|global", got)
	}
}

// TestTemplatesDoNotSeeCallerLocals: a template reached by
// apply-templates, apply-imports or call-template sees the globals, not
// its caller's local variables (XSLT 1.0 §11.5: variables are lexically
// scoped).
func TestTemplatesDoNotSeeCallerLocals(t *testing.T) {
	imported := `<xsl:stylesheet xmlns:xsl="http://www.w3.org/1999/XSL/Transform" version="1.0">
	<xsl:template match="leaf">i:<xsl:value-of select="$x"/></xsl:template>
	</xsl:stylesheet>`
	main := `<xsl:stylesheet xmlns:xsl="http://www.w3.org/1999/XSL/Transform" version="1.0">
	<xsl:output omit-xml-declaration="yes"/>
	<xsl:import href="base.xsl"/>
	<xsl:variable name="x" select="'global'"/>
	<xsl:template match="/">
		<xsl:variable name="x" select="'leaked'"/>
		<xsl:apply-templates select="r/leaf"/>|<xsl:call-template name="peek"/>
	</xsl:template>
	<xsl:template match="leaf">a:<xsl:value-of select="$x"/>,<xsl:variable name="x" select="'leaked'"/><xsl:apply-imports/></xsl:template>
	<xsl:template name="peek">c:<xsl:value-of select="$x"/></xsl:template>
	</xsl:stylesheet>`
	loader := func(string) (*xmldom.Node, error) { return xmldom.ParseString(imported) }
	sheet, err := CompileVerified(t, main, CompileOptions{Loader: loader})
	if err != nil {
		t.Fatal(err)
	}
	out, err := mainOutput(sheet, xmldom.MustParseString(`<r><leaf/></r>`), nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := "a:global,i:global|c:global"; string(out) != want {
		t.Errorf("got %q, want %q", out, want)
	}
}

// TestParamDefaultSeesEarlierParams: a parameter's default evaluates in
// the template's own parameter scope, so it reads the parameters
// declared before it, while with-param values evaluate in the caller's
// scope.
func TestParamDefaultSeesEarlierParams(t *testing.T) {
	sheetSrc := `<xsl:stylesheet xmlns:xsl="http://www.w3.org/1999/XSL/Transform" version="1.0">
	<xsl:output omit-xml-declaration="yes"/>
	<xsl:template match="/">
		<xsl:variable name="y" select="'Y'"/>
		<xsl:call-template name="t"/>|<xsl:call-template name="t"><xsl:with-param name="a" select="$y"/></xsl:call-template>|<xsl:apply-templates select="r"><xsl:with-param name="a" select="concat($y, $y)"/></xsl:apply-templates>
	</xsl:template>
	<xsl:template match="r" name="t">
		<xsl:param name="a" select="'A'"/>
		<xsl:param name="b" select="concat($a, 'B')"/>
		<xsl:value-of select="$b"/>
	</xsl:template>
	</xsl:stylesheet>`
	if got := run(t, sheetSrc, `<r/>`); got != "AB|YB|YYB" {
		t.Errorf("got %q, want AB|YB|YYB", got)
	}
}

func TestGlobalVariableChain(t *testing.T) {
	sheetSrc := `<xsl:stylesheet xmlns:xsl="http://www.w3.org/1999/XSL/Transform" version="1.0">
	<xsl:output omit-xml-declaration="yes"/>
	<xsl:variable name="a" select="2"/>
	<xsl:variable name="b" select="$a * 3"/>
	<xsl:template match="/"><xsl:value-of select="$b"/></xsl:template>
	</xsl:stylesheet>`
	if got := run(t, sheetSrc, `<x/>`); got != "6" {
		t.Errorf("chained globals: %q", got)
	}
}

func TestRTFUsedAsNodeSet(t *testing.T) {
	// This processor allows result tree fragments where node-sets are
	// expected (the exsl:node-set extension folded in).
	sheet := wrap(`<xsl:variable name="frag"><x v="1"/><x v="2"/></xsl:variable>` +
		`<xsl:value-of select="count($frag/x)"/>:<xsl:value-of select="sum($frag/x/@v)"/>`)
	if got := run(t, sheet, `<r/>`); got != "2:3" {
		t.Errorf("RTF as node-set: %q", got)
	}
}

func TestAttributeOverwritesLiteral(t *testing.T) {
	got := run(t, wrap(`<e a="lit"><xsl:attribute name="a">dyn</xsl:attribute></e>`), `<r/>`)
	if got != `<e a="dyn"/>` {
		t.Errorf("attribute overwrite: %q", got)
	}
}

func TestCommentsAndPIsFromSourceIgnoredByDefault(t *testing.T) {
	got := run(t, wrap(`<xsl:apply-templates/>`), `<r>text<!--c--><?pi d?></r>`)
	if got != "text" {
		t.Errorf("builtin comment/pi rule: %q", got)
	}
	// An explicit rule can surface them.
	sheet := `<xsl:stylesheet xmlns:xsl="http://www.w3.org/1999/XSL/Transform" version="1.0">
	<xsl:output omit-xml-declaration="yes"/>
	<xsl:template match="/"><xsl:apply-templates select="//comment()"/></xsl:template>
	<xsl:template match="comment()">[<xsl:value-of select="."/>]</xsl:template>
	</xsl:stylesheet>`
	if got := run(t, sheet, `<r><!--hello--></r>`); got != "[hello]" {
		t.Errorf("comment template: %q", got)
	}
}

func TestChooseFirstMatchWins(t *testing.T) {
	sheet := wrap(`<xsl:choose>
		<xsl:when test="1">first</xsl:when>
		<xsl:when test="1">second</xsl:when>
	</xsl:choose>`)
	if got := run(t, sheet, `<x/>`); got != "first" {
		t.Errorf("choose: %q", got)
	}
}

func TestEmptyChooseOtherwise(t *testing.T) {
	sheet := wrap(`<xsl:choose><xsl:when test="0">no</xsl:when><xsl:otherwise/></xsl:choose>ok`)
	if got := run(t, sheet, `<x/>`); got != "ok" {
		t.Errorf("empty otherwise: %q", got)
	}
}

func TestCountFunctionOverKeyedNodes(t *testing.T) {
	sheet := `<xsl:stylesheet xmlns:xsl="http://www.w3.org/1999/XSL/Transform" version="1.0">
	<xsl:output omit-xml-declaration="yes"/>
	<xsl:key name="byType" match="item" use="@type"/>
	<xsl:template match="/"><xsl:value-of select="count(key('byType','x'))"/></xsl:template>
	</xsl:stylesheet>`
	got := run(t, sheet, `<r><item type="x"/><item type="y"/><item type="x"/></r>`)
	if got != "2" {
		t.Errorf("key count: %q", got)
	}
}

func TestElementAvailableAndFunctionAvailable(t *testing.T) {
	sheet := wrap(
		`<xsl:if test="element-available('xsl:document')">doc</xsl:if>` +
			`<xsl:if test="element-available('xsl:apply-imports')">imports</xsl:if>` +
			`<xsl:if test="not(element-available('xsl:param'))">noparam</xsl:if>` +
			`<xsl:if test="not(element-available('xsl:frobnicate'))">nofrob</xsl:if>` +
			`<xsl:if test="function-available('key')">key</xsl:if>` +
			`<xsl:if test="function-available('concat')">concat</xsl:if>` +
			`<xsl:if test="not(function-available('exslt:fancy'))">noext</xsl:if>`)
	got := run(t, sheet, `<x/>`)
	if got != "docimportsnoparamnofrobkeyconcatnoext" {
		t.Errorf("availability: %q", got)
	}
}

func TestSystemProperty(t *testing.T) {
	got := run(t, wrap(`<xsl:value-of select="system-property('xsl:version')"/>`), `<x/>`)
	if got != "1.1" {
		t.Errorf("xsl:version = %q", got)
	}
}

func TestOutputIndent(t *testing.T) {
	sheetSrc := `<xsl:stylesheet xmlns:xsl="http://www.w3.org/1999/XSL/Transform" version="1.0">
	<xsl:output indent="yes" omit-xml-declaration="yes"/>
	<xsl:template match="/"><a><b><c/></b></a></xsl:template>
	</xsl:stylesheet>`
	got := run(t, sheetSrc, `<x/>`)
	if !strings.Contains(got, "\n  <b>") {
		t.Errorf("indent: %q", got)
	}
}

func TestLiteralNamespacedResultElement(t *testing.T) {
	sheetSrc := `<xsl:stylesheet xmlns:xsl="http://www.w3.org/1999/XSL/Transform"
		xmlns:svg="http://www.w3.org/2000/svg" version="1.0">
	<xsl:output omit-xml-declaration="yes"/>
	<xsl:template match="/"><svg:rect xmlns:svg="http://www.w3.org/2000/svg" width="5"/></xsl:template>
	</xsl:stylesheet>`
	got := run(t, sheetSrc, `<x/>`)
	if !strings.Contains(got, `<svg:rect`) || !strings.Contains(got, `width="5"`) {
		t.Errorf("namespaced literal: %q", got)
	}
	if !strings.Contains(got, `xmlns:svg=`) {
		t.Errorf("namespace declaration dropped: %q", got)
	}
}

func TestParamVisibleToNestedTemplates(t *testing.T) {
	sheetSrc := `<xsl:stylesheet xmlns:xsl="http://www.w3.org/1999/XSL/Transform" version="1.0">
	<xsl:output omit-xml-declaration="yes"/>
	<xsl:param name="p" select="'fallback'"/>
	<xsl:template match="/"><xsl:apply-templates select="//leaf"/></xsl:template>
	<xsl:template match="leaf"><xsl:value-of select="$p"/></xsl:template>
	</xsl:stylesheet>`
	sheet, err := CompileVerified(t, sheetSrc, CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	out, err := mainOutput(sheet, xmldom.MustParseString(`<r><leaf/></r>`),
		map[string]xpath.Value{"p": xpath.String("given")})
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != "given" {
		t.Errorf("global param: %q", out)
	}
}

func TestWhitespaceOnlySourceTextPreservedByDefault(t *testing.T) {
	// Without xsl:strip-space, source whitespace flows through value-of
	// of the root.
	got := run(t, wrap(`[<xsl:value-of select="normalize-space(/)"/>]`), "<r>  a  <b/>  c  </r>")
	if got != "[a c]" {
		t.Errorf("normalize: %q", got)
	}
	got = run(t, wrap(`<xsl:copy-of select="/r"/>`), "<r> <a/> </r>")
	if got != "<r> <a/> </r>" {
		t.Errorf("whitespace preserved: %q", got)
	}
}

func TestModeSelectExpression(t *testing.T) {
	// select with a complex path + mode together.
	sheet := `<xsl:stylesheet xmlns:xsl="http://www.w3.org/1999/XSL/Transform" version="1.0">
	<xsl:output omit-xml-declaration="yes"/>
	<xsl:template match="/">
		<xsl:apply-templates select="//b[@keep='1']" mode="list"/>
	</xsl:template>
	<xsl:template match="b" mode="list">(<xsl:value-of select="@id"/>)</xsl:template>
	</xsl:stylesheet>`
	got := run(t, sheet, `<r><b id="1" keep="1"/><b id="2"/><b id="3" keep="1"/></r>`)
	if got != "(1)(3)" {
		t.Errorf("select+mode: %q", got)
	}
}

func TestDeepRecursionTemplates(t *testing.T) {
	// A recursive named template that counts down — classic XSLT loop.
	sheet := `<xsl:stylesheet xmlns:xsl="http://www.w3.org/1999/XSL/Transform" version="1.0">
	<xsl:output omit-xml-declaration="yes" method="text"/>
	<xsl:template match="/"><xsl:call-template name="count"><xsl:with-param name="n" select="5"/></xsl:call-template></xsl:template>
	<xsl:template name="count">
		<xsl:param name="n"/>
		<xsl:if test="$n > 0">
			<xsl:value-of select="$n"/>
			<xsl:call-template name="count"><xsl:with-param name="n" select="$n - 1"/></xsl:call-template>
		</xsl:if>
	</xsl:template>
	</xsl:stylesheet>`
	if got := run(t, sheet, `<x/>`); got != "54321" {
		t.Errorf("recursion: %q", got)
	}
}

func TestResultDeterminism(t *testing.T) {
	sheetSrc := wrap(`<out><xsl:for-each select="//i"><xsl:sort select="@k"/><v k="{@k}"/></xsl:for-each></out>`)
	sheet, _ := CompileVerified(t, sheetSrc, CompileOptions{})
	doc := xmldom.MustParseString(`<r><i k="z"/><i k="a"/><i k="m"/></r>`)
	first, err := mainOutput(sheet, doc, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		again, err := mainOutput(sheet, doc, nil)
		if err != nil {
			t.Fatal(err)
		}
		if string(again) != string(first) {
			t.Fatalf("nondeterministic output: %s vs %s", first, again)
		}
	}
}

func TestMatchOnAttributeTemplates(t *testing.T) {
	sheet := `<xsl:stylesheet xmlns:xsl="http://www.w3.org/1999/XSL/Transform" version="1.0">
	<xsl:output omit-xml-declaration="yes"/>
	<xsl:template match="/"><xsl:apply-templates select="//@*"/></xsl:template>
	<xsl:template match="@id">[id=<xsl:value-of select="."/>]</xsl:template>
	<xsl:template match="@*">[other]</xsl:template>
	</xsl:stylesheet>`
	got := run(t, sheet, `<r id="7" x="1"/>`)
	if got != "[id=7][other]" {
		t.Errorf("attribute templates: %q", got)
	}
}

func TestNumberValueAttribute(t *testing.T) {
	got := run(t, wrap(`<xsl:number value="count(//i) * 2" format="I"/>`), `<r><i/><i/><i/></r>`)
	if got != "VI" {
		t.Errorf("number value: %q", got)
	}
}

// TestNumberRefusesUnsupportedAttributes pins the xsl:number subset: the
// processor numbers by value or among same-named preceding siblings, so
// count, from and a level other than "single" are compile errors rather
// than attributes it would silently ignore.
func TestNumberRefusesUnsupportedAttributes(t *testing.T) {
	for _, attrs := range []string{`count="i"`, `from="r"`, `level="multiple"`, `level="any"`} {
		_, err := CompileVerified(t, wrap(`<xsl:number `+attrs+`/>`), CompileOptions{})
		var ce *CompileError
		if !errors.As(err, &ce) || !strings.Contains(ce.Msg, "xsl:number "+attrs+" is not supported") {
			t.Errorf("%s: got %v, want a CompileError naming the attribute", attrs, err)
		}
	}
	got := run(t, wrap(`<xsl:for-each select="//i"><xsl:number level="single"/></xsl:for-each>`), `<r><i/><i/></r>`)
	if got != "12" {
		t.Errorf(`level="single": %q`, got)
	}
}

// TestSortRefusesCollationAttributes checks that xsl:sort refuses the
// attributes a code-point text sort cannot honour, in either sort
// context, and still sorts by data-type and order.
func TestSortRefusesCollationAttributes(t *testing.T) {
	for _, attrs := range []string{`case-order="lower-first"`, `case-order="upper-first"`, `lang="en"`} {
		for _, body := range []string{
			`<xsl:for-each select="//i"><xsl:sort ` + attrs + `/><xsl:value-of select="."/></xsl:for-each>`,
			`<xsl:apply-templates select="//i"><xsl:sort ` + attrs + `/></xsl:apply-templates>`,
		} {
			_, err := CompileVerified(t, wrap(body), CompileOptions{})
			var ce *CompileError
			if !errors.As(err, &ce) || !strings.Contains(ce.Msg, "xsl:sort "+attrs+" is not supported") || ce.Line == 0 {
				t.Errorf("%s: got %v, want a positioned CompileError naming the attribute", body, err)
			}
		}
	}
	got := run(t, wrap(`<xsl:for-each select="//i"><xsl:sort select="." order="descending"/><xsl:value-of select="."/></xsl:for-each>`), `<r><i>b</i><i>B</i><i>a</i><i>A</i></r>`)
	if got != "baBA" {
		t.Errorf("descending text sort: %q", got)
	}
}

// TestBindingsCountResolvedReferences pins what Bindings counts: the
// references lowering resolves under lexical scope, the pattern and key
// references to globals among them, and never a with-param's name.
func TestBindingsCountResolvedReferences(t *testing.T) {
	sheet, err := CompileVerified(t, `<xsl:stylesheet xmlns:xsl="http://www.w3.org/1999/XSL/Transform" version="1.0">
	<xsl:param name="k" select="'a'"/>
	<xsl:variable name="p" select="1"/>
	<xsl:key name="byName" match="i[$k]" use="@n"/>
	<xsl:template match="i[$p]">
	  <xsl:variable name="x" select="1"/>
	  <xsl:for-each select="*">
	    <xsl:variable name="x" select="2"/>
	    <o v="{$x}"/>
	  </xsl:for-each>
	  <xsl:call-template name="t"><xsl:with-param name="x" select="$x"/></xsl:call-template>
	</xsl:template>
	<xsl:template name="t"><xsl:param name="x"/><xsl:param name="unread"/><xsl:value-of select="$x + $x"/></xsl:template>
	</xsl:stylesheet>`, CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, b := range sheet.Bindings() {
		got = append(got, fmt.Sprintf("%s@%d param=%v refs=%d", b.Name, b.Src.Line, b.Param, b.Refs))
	}
	want := []string{
		"k@2 param=true refs=1",
		"p@3 param=false refs=1",
		"x@6 param=false refs=1",
		"x@8 param=false refs=1",
		"x@13 param=true refs=2",
		"unread@13 param=true refs=0",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("bindings:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

func TestFormatCounterHelpers(t *testing.T) {
	cases := []struct {
		n      int
		format string
		want   string
	}{
		{1, "1", "1"}, {7, "01", "07"}, {26, "a", "z"}, {27, "a", "aa"},
		{28, "A", "AB"}, {4, "i", "iv"}, {1999, "I", "MCMXCIX"}, {0, "a", "0"},
	}
	for _, tc := range cases {
		if got := formatCounter(tc.n, tc.format); got != tc.want {
			t.Errorf("formatCounter(%d, %q) = %q, want %q", tc.n, tc.format, got, tc.want)
		}
	}
}

func TestFormatDecimalEdgeCases(t *testing.T) {
	cases := []struct {
		f       float64
		pattern string
		want    string
	}{
		{0, "0.00", "0.00"},
		{-0.5, "0.0;(0.0)", "(0.5)"},
		{1234567, "#,##0", "1,234,567"},
		{0.005, "0.##", "0.01"},
		{12, "'#'#", "'12"}, // literal prefix passthrough (no quote handling)
	}
	for _, tc := range cases {
		if got := formatDecimal(tc.f, tc.pattern); got != tc.want {
			t.Errorf("formatDecimal(%v, %q) = %q, want %q", tc.f, tc.pattern, got, tc.want)
		}
	}
}

func TestMoreSystemProperties(t *testing.T) {
	got := run(t, wrap(
		`<xsl:value-of select="system-property('xsl:vendor')"/>|`+
			`<xsl:value-of select="string-length(system-property('xsl:vendor-url')) > 0"/>|`+
			`<xsl:value-of select="system-property('xsl:nonsense')"/>|`+
			`<xsl:value-of select="unparsed-entity-uri('pic')"/>`), `<x/>`)
	if got != "goldweb|true||" {
		t.Errorf("system properties: %q", got)
	}
}

func TestCurrentAtTopLevel(t *testing.T) {
	sheet, err := CompileVerified(t, wrap(`<xsl:value-of select="count(current())"/>`), CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if sheet.output.OmitDecl != true {
		t.Error("xsl:output omit-xml-declaration not compiled")
	}
	out, err := mainOutput(sheet, xmldom.MustParseString(`<x/>`), nil)
	if err != nil || string(out) != "1" {
		t.Errorf("current() at top: %q %v", out, err)
	}
}

func TestDocumentFunctionWithNodeSetArg(t *testing.T) {
	loader := func(href string) (*xmldom.Node, error) {
		return xmldom.ParseString(`<doc name="` + href + `"/>`)
	}
	sheetSrc := `<xsl:stylesheet xmlns:xsl="http://www.w3.org/1999/XSL/Transform" version="1.0">
	<xsl:output omit-xml-declaration="yes"/>
	<xsl:template match="/">
		<xsl:for-each select="document(//ref)"><xsl:value-of select="/doc/@name"/>;</xsl:for-each>
	</xsl:template></xsl:stylesheet>`
	sheet, err := CompileVerified(t, sheetSrc, CompileOptions{Loader: loader})
	if err != nil {
		t.Fatal(err)
	}
	out, err := mainOutput(sheet, xmldom.MustParseString(`<r><ref>a.xml</ref><ref>b.xml</ref></r>`), nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != "a.xml;b.xml;" {
		t.Errorf("document(node-set): %q", out)
	}
	// Missing loader errors cleanly.
	sheet2, _ := CompileVerified(t, sheetSrc, CompileOptions{})
	if _, err := sheet2.TransformToBuffers(xmldom.MustParseString(`<r><ref>a.xml</ref></r>`), nil); err == nil {
		t.Error("document() without loader accepted")
	}
}

func TestCompileErrorRendering(t *testing.T) {
	_, err := CompileVerified(t, `<xsl:stylesheet xmlns:xsl="http://www.w3.org/1999/XSL/Transform">
	<xsl:template match="a"><xsl:value-of/></xsl:template></xsl:stylesheet>`, CompileOptions{})
	if err == nil || !strings.Contains(err.Error(), "line") {
		t.Errorf("compile error rendering: %v", err)
	}
}

func TestNumericSortNaNFirst(t *testing.T) {
	for _, c := range []struct{ order, want string }{
		{"ascending", "x,1,2,3,"},
		{"descending", "3,2,1,x,"},
	} {
		sheet := wrap(`<xsl:for-each select="//i"><xsl:sort select="." data-type="number" order="` + c.order + `"/>` +
			`<xsl:value-of select="."/>,</xsl:for-each>`)
		if got := run(t, sheet, `<r><i>3</i><i>x</i><i>1</i><i>2</i></r>`); got != c.want {
			t.Errorf("%s: got %q, want %q", c.order, got, c.want)
		}
	}
	// Non-numeric keys compare equal to each other: the stable sort keeps
	// them in document order.
	sheet := wrap(`<xsl:for-each select="//i"><xsl:sort select="." data-type="number"/>` +
		`<xsl:value-of select="."/>,</xsl:for-each>`)
	if got := run(t, sheet, `<r><i>b</i><i>2</i><i>a</i><i>1</i></r>`); got != "b,a,1,2," {
		t.Errorf("NaN ties: got %q", got)
	}
}

func TestNumberValueRounds(t *testing.T) {
	for _, c := range []struct{ value, format, want string }{
		{"2.7", "1", "3"},
		{"2.5", "1", "3"},
		{"0.5", "1", "1"},
		{"2.4", "1", "2"},
		{"2.7", "i", "iii"},
		{"2.5", "i", "iii"},
		{"0.5", "i", "i"},
	} {
		got := run(t, wrap(`<xsl:number value="`+c.value+`" format="`+c.format+`"/>`), `<r/>`)
		if got != c.want {
			t.Errorf("value=%s format=%s: got %q, want %q", c.value, c.format, got, c.want)
		}
	}
}
