package xslt_test

import (
	"fmt"
	"strings"
	"testing"

	"goldweb/internal/xmldom"
	"goldweb/internal/xslt"
)

// scopesGolden pins which binding every variable reference sees: the
// scoping rules of variables and parameters, run over one small document
// with the golden caller parameters. Each output is recorded verbatim.
const scopesGolden = "testdata/scopes.golden"

const scopeDoc = `<root><a id="1"><b/><c k="v"/></a><d><e/></d></root>`

// scopeSheets are the scope-semantics cases: shadowing, parameter
// defaults, recursion through with-param and template isolation.
var scopeSheets = map[string]string{
	// An inner binding shadows the outer one for its following siblings
	// and their descendants only; a declaration's own select still sees
	// the outer binding, and a redeclaration in one body replaces the
	// earlier one from there on.
	"shadowed-nested-for-each": `<xsl:stylesheet version="1.0" xmlns:xsl="http://www.w3.org/1999/XSL/Transform">
<xsl:variable name="x" select="'global'"/>
<xsl:template match="/">
  <xsl:variable name="x" select="concat($x, '>outer')"/>
  <r>
    <xsl:for-each select="*/*">
      <xsl:variable name="x" select="concat('mid-', name())"/>
      <m v="{$x}">
        <xsl:for-each select="*">
          <xsl:variable name="x" select="concat($x, '>in-', name())"/>
          <i v="{$x}"/>
        </xsl:for-each>
        <after v="{$x}"/>
      </m>
    </xsl:for-each>
    <o v="{$x}"/>
    <xsl:variable name="y" select="1"/><p y="{$y}"/>
    <xsl:variable name="y" select="2"/><q y="{$y}"/>
  </r>
</xsl:template>
</xsl:stylesheet>`,
	// A parameter default sees the parameters declared before it, for
	// template and global parameters alike; a passed value replaces the
	// default and is what later defaults read.
	"param-default-reads-earlier": `<xsl:stylesheet version="1.0" xmlns:xsl="http://www.w3.org/1999/XSL/Transform">
<xsl:param name="base" select="'none'"/>
<xsl:param name="derived" select="concat($base, '/d')"/>
<xsl:param name="g" select="'G'"/>
<xsl:param name="h" select="concat($g, '-h')"/>
<xsl:template match="/">
  <r derived="{$derived}" h="{$h}">
    <xsl:call-template name="t"/>
    <xsl:call-template name="t"><xsl:with-param name="a" select="'A'"/></xsl:call-template>
    <xsl:call-template name="t"><xsl:with-param name="b" select="'B'"/><xsl:with-param name="unused" select="'U'"/></xsl:call-template>
  </r>
</xsl:template>
<xsl:template name="t">
  <xsl:param name="a" select="concat('a', $g)"/>
  <xsl:param name="b" select="concat($a, '+b')"/>
  <xsl:param name="c"><xsl:value-of select="$b"/>|<xsl:value-of select="$a"/></xsl:param>
  <t a="{$a}" b="{$b}" c="{$c}"/>
</xsl:template>
</xsl:stylesheet>`,
	// Recursion through call-template and apply-templates: each
	// invocation has its own parameters and locals, and the caller's
	// survive the recursive call beneath it.
	"recursive-with-param": `<xsl:stylesheet version="1.0" xmlns:xsl="http://www.w3.org/1999/XSL/Transform">
<xsl:template match="/">
  <r>
    <xsl:call-template name="count">
      <xsl:with-param name="n" select="3"/>
      <xsl:with-param name="acc" select="''"/>
    </xsl:call-template>
    <xsl:apply-templates select="*" mode="depth"/>
  </r>
</xsl:template>
<xsl:template name="count">
  <xsl:param name="n"/>
  <xsl:param name="acc"/>
  <xsl:variable name="here" select="concat($acc, $n)"/>
  <xsl:choose>
    <xsl:when test="$n &gt; 0">
      <xsl:call-template name="count">
        <xsl:with-param name="n" select="$n - 1"/>
        <xsl:with-param name="acc" select="concat($here, ',')"/>
      </xsl:call-template>
      <back n="{$n}" here="{$here}"/>
    </xsl:when>
    <xsl:otherwise><done acc="{$here}"/></xsl:otherwise>
  </xsl:choose>
</xsl:template>
<xsl:template match="*" mode="depth">
  <xsl:param name="depth" select="0"/>
  <xsl:variable name="label" select="concat(name(), '@', $depth)"/>
  <n label="{$label}">
    <xsl:apply-templates select="*" mode="depth">
      <xsl:with-param name="depth" select="$depth + 1"/>
    </xsl:apply-templates>
    <end label="{$label}"/>
  </n>
</xsl:template>
</xsl:stylesheet>`,
	// A called or applied template sees the globals, not its caller's
	// locals, even a caller's local of a global's name.
	"caller-local-hidden": `<xsl:stylesheet version="1.0" xmlns:xsl="http://www.w3.org/1999/XSL/Transform">
<xsl:variable name="v" select="'global'"/>
<xsl:template match="/">
  <xsl:variable name="v" select="'caller'"/>
  <r v="{$v}">
    <xsl:call-template name="t"/>
    <xsl:apply-templates select="*" mode="m"/>
    <xsl:for-each select="*"><f v="{$v}"/></xsl:for-each>
  </r>
</xsl:template>
<xsl:template name="t"><t v="{$v}"/></xsl:template>
<xsl:template match="*" mode="m"><m v="{$v}"/></xsl:template>
</xsl:stylesheet>`,
	// A caller's local that no global shares a name with is not bound in
	// the called template at all.
	"caller-local-unbound": `<xsl:stylesheet version="1.0" xmlns:xsl="http://www.w3.org/1999/XSL/Transform">
<xsl:template match="/">
  <xsl:variable name="only" select="'caller-only'"/>
  <r><xsl:call-template name="t"/></r>
</xsl:template>
<xsl:template name="t"><t v="{$only}"/></xsl:template>
</xsl:stylesheet>`,
	// Globals bind in declaration order: a global that reads a later one
	// finds it unbound.
	"global-forward-reference": `<xsl:stylesheet version="1.0" xmlns:xsl="http://www.w3.org/1999/XSL/Transform">
<xsl:variable name="a" select="concat($b, '!')"/>
<xsl:variable name="b" select="'B'"/>
<xsl:template match="/"><r a="{$a}"/></xsl:template>
</xsl:stylesheet>`,
}

// TestScopeGolden pins the output of every scope case in scopes.golden.
func TestScopeGolden(t *testing.T) {
	var b strings.Builder
	for _, name := range sortedKeys(scopeSheets) {
		s, err := xslt.CompileVerified(t, scopeSheets[name], xslt.CompileOptions{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		fmt.Fprintf(&b, "%s\n", name)
		res, err := s.TransformToBuffers(xmldom.MustParseString(scopeDoc), goldenParams)
		if err != nil {
			fmt.Fprintf(&b, "  error %q\n", err.Error())
			continue
		}
		fmt.Fprintf(&b, "  %s\n", res.Main)
	}
	checkGolden(t, scopesGolden, b.String())
}
