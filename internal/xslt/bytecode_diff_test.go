package xslt_test

import (
	"os"
	"path/filepath"
	"testing"

	"goldweb/internal/core"
	"goldweb/internal/xmldom"
	"goldweb/internal/xslt"
)

// The bytecode VM must reproduce the tree-walking engine it replaced:
// for every model × stylesheet combination, streamed and result-tree
// alike, the principal document, xsl:document outputs, document order,
// messages and errors must match the frozen goldens byte for byte.

// diffSheets are the stylesheets the differential suite runs: the two
// embedded presentations plus hand-written sheets covering constructs
// the builtins do not reach (apply-imports, attribute sets, copy,
// xsl:number, messages, captures, parameter defaults). The cold sheet
// covers result-tree-fragment bodies (local and global variables,
// with-param and parameter defaults), nested and overridden attribute
// sets, numeric sorts with computed order and data-type, and
// xsl:number value.
func diffSheets(t *testing.T) map[string]*xslt.Stylesheet {
	t.Helper()
	srcs := map[string]string{
		"single": core.SingleXSL,
		"multi":  core.MultiXSL,
		"constructs": `<xsl:stylesheet version="1.0" xmlns:xsl="http://www.w3.org/1999/XSL/Transform">
<xsl:attribute-set name="base"><xsl:attribute name="data-k">v-<xsl:value-of select="name()"/></xsl:attribute></xsl:attribute-set>
<xsl:template match="/">
  <root>
    <xsl:comment>head</xsl:comment>
    <xsl:processing-instruction name="pi">payload</xsl:processing-instruction>
    <xsl:apply-templates select="*"/>
    <xsl:call-template name="named"><xsl:with-param name="p" select="'passed'"/></xsl:call-template>
    <xsl:call-template name="named"/>
  </root>
</xsl:template>
<xsl:template match="*">
  <xsl:variable name="depth" select="count(ancestor::*)"/>
  <item d="{$depth}" xsl:use-attribute-sets="base">
    <xsl:attribute name="n"><xsl:value-of select="name()"/>-<xsl:number format="01"/></xsl:attribute>
    <xsl:if test="@id"><id><xsl:value-of select="@id"/></id></xsl:if>
    <xsl:choose>
      <xsl:when test="count(*) &gt; 2"><big/></xsl:when>
      <xsl:when test="count(*) = 0"><leaf><xsl:copy-of select="@*"/></leaf></xsl:when>
      <xsl:otherwise><mid/></xsl:otherwise>
    </xsl:choose>
    <xsl:for-each select="*">
      <xsl:sort select="name()" order="descending"/>
      <xsl:element name="s-{position()}"><xsl:value-of select="name()"/></xsl:element>
    </xsl:for-each>
    <xsl:copy><xsl:apply-templates select="*" mode="copy"/></xsl:copy>
    <xsl:apply-templates select="*"/>
  </item>
</xsl:template>
<xsl:template match="*" mode="copy"><xsl:copy/></xsl:template>
<xsl:template name="named">
  <xsl:param name="p" select="'default'"/>
  <xsl:message>saw <xsl:value-of select="$p"/></xsl:message>
  <named p="{$p}"/>
</xsl:template>
</xsl:stylesheet>`,
		"cold": coldSheet,
	}
	out := map[string]*xslt.Stylesheet{}
	for name, src := range srcs {
		s, err := xslt.CompileVerified(t, src, xslt.CompileOptions{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[name] = s
	}

	// Import precedence + xsl:apply-imports, which need a loader.
	imported := `<xsl:stylesheet version="1.0" xmlns:xsl="http://www.w3.org/1999/XSL/Transform">
<xsl:template match="*"><base n="{name()}"><xsl:apply-templates select="*"/></base></xsl:template>
</xsl:stylesheet>`
	main := `<xsl:stylesheet version="1.0" xmlns:xsl="http://www.w3.org/1999/XSL/Transform">
<xsl:import href="base.xsl"/>
<xsl:template match="/"><doc><xsl:apply-templates select="*"/></doc></xsl:template>
<xsl:template match="*[@id]"><wrap id="{@id}"><xsl:apply-imports/></wrap></xsl:template>
</xsl:stylesheet>`
	loader := func(href string) (*xmldom.Node, error) { return xmldom.ParseString(imported) }
	s, err := xslt.CompileVerified(t, main, xslt.CompileOptions{Loader: loader})
	if err != nil {
		t.Fatalf("imports: %v", err)
	}
	out["imports"] = s
	return out
}

const coldSheet = `<xsl:stylesheet version="1.0" xmlns:xsl="http://www.w3.org/1999/XSL/Transform">
<xsl:attribute-set name="outer" use-attribute-sets="inner">
  <xsl:attribute name="k">outer</xsl:attribute>
  <xsl:attribute name="o">1</xsl:attribute>
</xsl:attribute-set>
<xsl:attribute-set name="inner">
  <xsl:attribute name="k">inner</xsl:attribute>
  <xsl:attribute name="i"><xsl:value-of select="name()"/>-<xsl:value-of select="$dt"/></xsl:attribute>
</xsl:attribute-set>
<xsl:attribute-set name="inner"><xsl:attribute name="i2">merged</xsl:attribute></xsl:attribute-set>
<xsl:param name="base">unused default</xsl:param>
<xsl:param name="unset"><u n="{count(//*)}"><xsl:value-of select="name(/*)"/></u></xsl:param>
<xsl:variable name="dt" select="'number'"/>
<xsl:variable name="gfrag"><g n="{name(/*)}">global-<xsl:value-of select="$base"/></g><h><xsl:value-of select="$dt"/></h></xsl:variable>
<xsl:template match="/">
  <cold>
    <xsl:variable name="ord">descending</xsl:variable>
    <xsl:variable name="frag"><f a="1">x</f><f a="2">y<xsl:value-of select="name(*)"/></f><xsl:comment>c</xsl:comment></xsl:variable>
    <xsl:variable name="nested"><xsl:variable name="in"><i><xsl:value-of select="$base"/></i></xsl:variable><o><xsl:copy-of select="$in"/>/<xsl:value-of select="count($in/i)"/></o></xsl:variable>
    <xsl:variable name="empty"/>
    <as-string s="{$frag}"><xsl:value-of select="$frag"/>|<xsl:value-of select="string-length($empty)"/></as-string>
    <as-nodes n="{count($frag/f)}"><xsl:copy-of select="$frag/f[@a='2']"/><xsl:copy-of select="$nested"/></as-nodes>
    <global><xsl:value-of select="$gfrag"/>|<xsl:copy-of select="$gfrag"/>|<xsl:copy-of select="$unset"/></global>
    <lit xsl:use-attribute-sets="outer" k="lit"/>
    <xsl:element name="el" use-attribute-sets="outer inner"><xsl:attribute name="o">2</xsl:attribute></xsl:element>
    <copies>
      <xsl:apply-templates select="*" mode="copy"/>
      <xsl:for-each select="/ | */@*"><xsl:copy use-attribute-sets="inner"/></xsl:for-each>
    </copies>
    <xsl:call-template name="p">
      <xsl:with-param name="body"><w><xsl:value-of select="name(*)"/></w><xsl:message>with-param body <xsl:value-of select="$ord"/></xsl:message></xsl:with-param>
    </xsl:call-template>
    <xsl:call-template name="p"/>
    <sorted>
      <xsl:apply-templates select="*/*/* | */*" mode="num">
        <xsl:sort select="substring(@id, 2)" data-type="{$dt}" order="{$ord}"/>
        <xsl:sort select="name()"/>
        <xsl:with-param name="tag"><t><xsl:value-of select="count(*)"/></t></xsl:with-param>
      </xsl:apply-templates>
      <xsl:for-each select="//*[@id]">
        <xsl:sort select="string-length(@id) * 1.5 - 3" data-type="{$dt}"/>
        <xsl:sort select="@id" order="{$ord}"/>
        <xsl:value-of select="@id"/>,
      </xsl:for-each>
    </sorted>
    <numbers><xsl:number value="2.7"/>,<xsl:number value="2.5" format="i"/>,<xsl:number value="0.5" format="01"/>,<xsl:number value="count(//*) div 3" format="A"/></numbers>
  </cold>
</xsl:template>
<xsl:template match="*" mode="copy">
  <xsl:copy use-attribute-sets="outer"><xsl:attribute name="o">c</xsl:attribute><xsl:apply-templates select="*[1]" mode="copy"/></xsl:copy>
</xsl:template>
<xsl:template match="*" mode="num">
  <xsl:param name="tag">no-tag</xsl:param>
  <xsl:param name="dflt"><d p="{position()}"><xsl:value-of select="name()"/></d><xsl:message>default <xsl:value-of select="@id"/></xsl:message></xsl:param>
  <n id="{@id}"><xsl:number value="position() div 2" format="i"/>:<xsl:number value="string-length(name()) * 1.5"/>:<xsl:value-of select="$tag"/>:<xsl:copy-of select="$dflt"/></n>
</xsl:template>
<xsl:template name="p">
  <xsl:param name="body"><default/></xsl:param>
  <p><xsl:copy-of select="$body"/>[<xsl:value-of select="$body"/>]</p>
</xsl:template>
</xsl:stylesheet>`

// diffDocs loads every example model twice: frozen up front, and
// unfrozen for the first transform to freeze in place.
func diffDocs(t *testing.T) map[string]*xmldom.Node {
	t.Helper()
	models, err := filepath.Glob("../../examples/models/*.xml")
	if err != nil || len(models) == 0 {
		t.Fatalf("no example models found: %v", err)
	}
	docs := map[string]*xmldom.Node{}
	for _, path := range models {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		plain, err := xmldom.Parse(data)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		frozen, err := xmldom.Parse(data)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		xmldom.Freeze(frozen)
		base := filepath.Base(path)
		docs[base] = plain
		docs[base+"/frozen"] = frozen
	}
	return docs
}

// TestBytecodeVsTreeBuffers checks the streamed outputs of the golden
// sheets against transforms.golden, which holds the outputs of the
// tree-walking engine the bytecode VM replaced. Regenerate with:
//
//	go test ./internal/xslt -run BytecodeVsTreeBuffers -update
func TestBytecodeVsTreeBuffers(t *testing.T) {
	checkGolden(t, transformsGolden, renderTransforms(t, func(s *xslt.Stylesheet, doc *xmldom.Node) outcome {
		return bufferOutcome(s.TransformToBuffers(doc, goldenParams))
	}))
}
