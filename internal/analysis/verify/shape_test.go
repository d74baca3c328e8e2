package verify_test

import (
	"testing"

	"goldweb/internal/analysis/verify"
)

const htmlHead = `<xsl:stylesheet version="1.0" xmlns:xsl="http://www.w3.org/1999/XSL/Transform">
  <xsl:output method="html"/>`

func shape(t *testing.T, body string) []verify.Finding {
	t.Helper()
	return verify.Shape(compile(t, htmlHead+body+`</xsl:stylesheet>`))
}

func TestShapeAttrAfterContent(t *testing.T) {
	fs := shape(t, `<xsl:template match="/">
    <div>text first<xsl:attribute name="id">late</xsl:attribute></div>
  </xsl:template>`)
	requireFinding(t, fs, verify.CodeAttrAfterContent, `attribute "id" is emitted after child content of <div>`)
}

func TestShapeAttrAfterContentConditionalIsClean(t *testing.T) {
	// The content is conditional, so the attribute only *may* follow
	// content — the must-analysis stays quiet.
	fs := shape(t, `<xsl:template match="/">
    <div><xsl:if test="x">text</xsl:if><xsl:attribute name="id">v</xsl:attribute></div>
  </xsl:template>`)
	requireNone(t, fs, verify.CodeAttrAfterContent)
}

func TestShapeAttrAfterContentInLoopIsClean(t *testing.T) {
	// A for-each can run zero times; its body content is a may-fact.
	fs := shape(t, `<xsl:template match="/">
    <div><xsl:for-each select="item"><p/></xsl:for-each><xsl:attribute name="id">v</xsl:attribute></div>
  </xsl:template>`)
	requireNone(t, fs, verify.CodeAttrAfterContent)
}

func TestShapeDuplicateAttr(t *testing.T) {
	fs := shape(t, `<xsl:template match="/">
    <div class="a"><xsl:attribute name="class">b</xsl:attribute></div>
  </xsl:template>`)
	requireFinding(t, fs, verify.CodeDuplicateAttr, `attribute "class" is emitted twice on <div>`)
}

func TestShapeDuplicateAttrOnDistinctElementsIsClean(t *testing.T) {
	fs := shape(t, `<xsl:template match="/">
    <div class="a"><span class="a"/></div>
  </xsl:template>`)
	requireNone(t, fs, verify.CodeDuplicateAttr)
}

func TestShapeVoidWithChildren(t *testing.T) {
	fs := shape(t, `<xsl:template match="/">
    <img src="x.png">caption</img>
  </xsl:template>`)
	requireFinding(t, fs, verify.CodeVoidContent, "<img> is an HTML void element")
}

func TestShapeVoidChildInLoop(t *testing.T) {
	// May-content is enough for GW504: a void element can never
	// legitimately have children on any path.
	fs := shape(t, `<xsl:template match="/">
    <br><xsl:for-each select="item"><p/></xsl:for-each></br>
  </xsl:template>`)
	requireFinding(t, fs, verify.CodeVoidContent, "<br> is an HTML void element")
}

func TestShapeEmptyVoidIsClean(t *testing.T) {
	fs := shape(t, `<xsl:template match="/">
    <head><link rel="stylesheet" href="a.css"/><br/><hr/></head>
  </xsl:template>`)
	requireNone(t, fs, verify.CodeVoidContent)
}

func TestShapeRawTextElementChild(t *testing.T) {
	fs := shape(t, `<xsl:template match="/">
    <script><b>not text</b></script>
  </xsl:template>`)
	requireFinding(t, fs, verify.CodeRawTextHazard, "node content inside raw-text element <script>")
}

func TestShapeRawTextCloseSequence(t *testing.T) {
	fs := shape(t, `<xsl:template match="/">
    <script>var a = "&lt;/script&gt;";</script>
  </xsl:template>`)
	requireFinding(t, fs, verify.CodeRawTextHazard, `contains "</"`)
}

func TestShapePlainScriptIsClean(t *testing.T) {
	fs := shape(t, `<xsl:template match="/">
    <script>var a = 1 &lt; 2;</script>
  </xsl:template>`)
	requireNone(t, fs, verify.CodeRawTextHazard)
}

func TestShapeXMLOutputSkipsHTMLModel(t *testing.T) {
	// Same constructs under method="xml": the HTML-only codes must not
	// fire, while the XSLT-generic ones still do.
	p := compile(t, `<xsl:stylesheet version="1.0" xmlns:xsl="http://www.w3.org/1999/XSL/Transform">
  <xsl:output method="xml"/>
  <xsl:template match="/">
    <br>content</br>
    <script><b>x</b></script>
    <div>text<xsl:attribute name="id">late</xsl:attribute></div>
  </xsl:template>
</xsl:stylesheet>`)
	fs := verify.Shape(p)
	requireNone(t, fs, verify.CodeVoidContent)
	requireNone(t, fs, verify.CodeRawTextHazard)
	requireFinding(t, fs, verify.CodeAttrAfterContent, `"id"`)
}

func TestShapeFragmentContentIsAbsorbed(t *testing.T) {
	// A result-tree fragment's content goes to its own document, not to
	// the element open around the variable.
	fs := shape(t, `<xsl:template match="/">
    <div><xsl:variable name="v">text</xsl:variable><xsl:attribute name="id">v</xsl:attribute></div>
    <br><xsl:variable name="w"><b/></xsl:variable></br>
  </xsl:template>`)
	requireNone(t, fs, verify.CodeAttrAfterContent)
	requireNone(t, fs, verify.CodeVoidContent)
}
