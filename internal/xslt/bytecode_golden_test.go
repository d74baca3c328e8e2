package xslt_test

import (
	"flag"
	"os"
	"strings"
	"testing"

	"goldweb/internal/xslt"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata")

// programCorpus holds representative stylesheets whose lowered bytecode
// is pinned in testdata/programs.want: every opcode the compiler can
// emit appears at least once, including the static-run segment collapse,
// the jump-table prologue and the capture/redirect pairs.
var programCorpus = []struct {
	name string
	src  string
}{
	{"minimal", `<xsl:stylesheet version="1.0" xmlns:xsl="http://www.w3.org/1999/XSL/Transform">
<xsl:template match="/"><out><xsl:value-of select="name(*)"/></out></xsl:template>
</xsl:stylesheet>`},

	{"static-segments", `<xsl:stylesheet version="1.0" xmlns:xsl="http://www.w3.org/1999/XSL/Transform">
<xsl:template match="/">
  <html><head><title>Fixed</title></head>
  <body class="page"><hr/>tail<xsl:apply-templates select="*"/></body></html>
</xsl:template>
<xsl:template match="*"><p>static text run</p><p>another</p></xsl:template>
</xsl:stylesheet>`},

	{"control-flow", `<xsl:stylesheet version="1.0" xmlns:xsl="http://www.w3.org/1999/XSL/Transform">
<xsl:template match="/">
  <xsl:choose>
    <xsl:when test="count(*) &gt; 1"><many/></xsl:when>
    <xsl:when test="*"><one/></xsl:when>
    <xsl:otherwise><none/></xsl:otherwise>
  </xsl:choose>
  <xsl:if test="@id"><id/></xsl:if>
  <xsl:for-each select="*"><xsl:sort select="name()"/><i p="{position()}"/></xsl:for-each>
</xsl:template>
</xsl:stylesheet>`},

	{"calls-and-modes", `<xsl:stylesheet version="1.0" xmlns:xsl="http://www.w3.org/1999/XSL/Transform">
<xsl:template match="/"><xsl:apply-templates select="*" mode="toc"/><xsl:call-template name="f"><xsl:with-param name="x" select="1"/></xsl:call-template></xsl:template>
<xsl:template match="*" mode="toc"><t><xsl:apply-imports/></t></xsl:template>
<xsl:template name="f"><xsl:param name="x" select="0"/><v><xsl:value-of select="$x"/></v></xsl:template>
</xsl:stylesheet>`},

	{"constructors", `<xsl:stylesheet version="1.0" xmlns:xsl="http://www.w3.org/1999/XSL/Transform">
<xsl:attribute-set name="common"><xsl:attribute name="k">v</xsl:attribute></xsl:attribute-set>
<xsl:template match="/">
  <xsl:variable name="n" select="name(*)"/>
  <e a="{$n}" xsl:use-attribute-sets="common">
    <xsl:attribute name="dyn"><xsl:value-of select="$n"/></xsl:attribute>
    <xsl:element name="el-{$n}">x</xsl:element>
    <xsl:comment>c</xsl:comment>
    <xsl:processing-instruction name="pi">d</xsl:processing-instruction>
    <xsl:copy><xsl:copy-of select="@*"/></xsl:copy>
    <xsl:number format="01"/>
    <xsl:text disable-output-escaping="yes">&amp;raw;</xsl:text>
  </e>
  <xsl:message>done</xsl:message>
  <xsl:document href="{$n}.html"><sub/></xsl:document>
</xsl:template>
</xsl:stylesheet>`},

	{"fragments", `<xsl:stylesheet version="1.0" xmlns:xsl="http://www.w3.org/1999/XSL/Transform">
<xsl:attribute-set name="a" use-attribute-sets="b"><xsl:attribute name="x">1</xsl:attribute></xsl:attribute-set>
<xsl:attribute-set name="b"><xsl:attribute name="y"><xsl:value-of select="name()"/></xsl:attribute></xsl:attribute-set>
<xsl:param name="p"><default/></xsl:param>
<xsl:variable name="g" select="count(//*)"/>
<xsl:template match="/">
  <xsl:variable name="frag"><f><xsl:value-of select="$g"/></f></xsl:variable>
  <xsl:variable name="empty"/>
  <xsl:element name="e" use-attribute-sets="a ghost"><xsl:copy-of select="$frag"/></xsl:element>
  <xsl:apply-templates select="*"><xsl:with-param name="w"><w/></xsl:with-param></xsl:apply-templates>
</xsl:template>
<xsl:template match="*"><xsl:param name="w"/><xsl:copy use-attribute-sets="b"><xsl:copy-of select="$w"/></xsl:copy></xsl:template>
</xsl:stylesheet>`},
}

const programGolden = "testdata/programs.want"

// TestProgramGolden pins the lowered bytecode (disassembled) for the
// corpus above. Regenerate with:
//
//	go test ./internal/xslt -run ProgramGolden -update
func TestProgramGolden(t *testing.T) {
	var b strings.Builder
	for _, c := range programCorpus {
		s, err := xslt.CompileVerified(t, c.src, xslt.CompileOptions{})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		b.WriteString("=== " + c.name + "\n")
		b.WriteString(s.Program().Disasm())
		b.WriteString("\n")
	}
	got := b.String()
	if *update {
		if err := os.WriteFile(programGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(programGolden)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if got != string(want) {
		t.Errorf("lowered programs drifted from %s; run with -update if intentional\n--- got ---\n%s", programGolden, got)
	}
}

// TestOneBodyPerTemplate checks that an xsl:template is lowered once,
// whatever enters it: the rules of a union pattern and a name share the
// body of a plain match.
func TestOneBodyPerTemplate(t *testing.T) {
	size := func(attrs string) int {
		src := `<xsl:stylesheet version="1.0" xmlns:xsl="http://www.w3.org/1999/XSL/Transform">
<xsl:template ` + attrs + `><out><xsl:value-of select="."/></out></xsl:template>
</xsl:stylesheet>`
		s, err := xslt.CompileVerified(t, src, xslt.CompileOptions{})
		if err != nil {
			t.Fatalf("%s: %v", attrs, err)
		}
		return len(s.Program().Code())
	}
	want := size(`match="a"`)
	for _, attrs := range []string{`match="a|b|c"`, `name="n" match="a"`, `name="n" match="a|b"`} {
		if got := size(attrs); got != want {
			t.Errorf("<xsl:template %s> lowers to %d instructions, want %d as for match=\"a\"", attrs, got, want)
		}
	}
}
