package xmldom

import (
	"strings"
	"testing"
)

// xml returns the compact XML serialization of n without a declaration.
func (n *Node) xml() string { return SerializeToString(n, WriteOptions{OmitDecl: true}) }

func TestSerializeEscaping(t *testing.T) {
	e := NewElement("e")
	e.SetAttr("a", `<&">`)
	e.AddText("a < b & c")
	got := e.xml()
	want := `<e a="&lt;&amp;&quot;&gt;">a &lt; b &amp; c</e>`
	if got != want {
		t.Errorf("got %s want %s", got, want)
	}
}

func TestSerializeSelfClose(t *testing.T) {
	e := NewElement("empty")
	if got := e.xml(); got != "<empty/>" {
		t.Errorf("got %s", got)
	}
}

func TestSerializeDeclaration(t *testing.T) {
	doc := NewDocument()
	doc.AddElement("r")
	got := SerializeToString(doc, WriteOptions{})
	if !strings.HasPrefix(got, `<?xml version="1.0" encoding="UTF-8"?>`) {
		t.Errorf("missing declaration: %s", got)
	}
	got = SerializeToString(doc, WriteOptions{OmitDecl: true})
	if strings.Contains(got, "<?xml") {
		t.Errorf("declaration not omitted: %s", got)
	}
}

func TestSerializeHTMLVoidElements(t *testing.T) {
	doc := MustParseString(`<html><body><br></br><img src="x.png"></img><p>t</p></body></html>`)
	got := SerializeToString(doc, WriteOptions{Method: "html", OmitDecl: true})
	if strings.Contains(got, "</br>") || strings.Contains(got, "<br/>") {
		t.Errorf("br not void: %s", got)
	}
	if !strings.Contains(got, `<img src="x.png">`) || strings.Contains(got, "</img>") {
		t.Errorf("img not void: %s", got)
	}
	if !strings.Contains(got, "<p>t</p>") {
		t.Errorf("p lost: %s", got)
	}
}

func TestSerializeHTMLEmptyNonVoidGetsEndTag(t *testing.T) {
	doc := MustParseString(`<div></div>`)
	got := SerializeToString(doc, WriteOptions{Method: "html", OmitDecl: true})
	if got != "<div></div>" {
		t.Errorf("got %s", got)
	}
}

func TestSerializeHTMLScriptNotEscaped(t *testing.T) {
	doc := NewDocument()
	html := doc.AddElement("html")
	script := html.AddElement("script")
	script.AddText("if (a < b && c > d) {}")
	got := SerializeToString(doc, WriteOptions{Method: "html", OmitDecl: true})
	if !strings.Contains(got, "a < b && c > d") {
		t.Errorf("script escaped: %s", got)
	}
	// The same content in xml mode is escaped.
	got = SerializeToString(doc, WriteOptions{OmitDecl: true})
	if !strings.Contains(got, "a &lt; b &amp;&amp; c &gt; d") {
		t.Errorf("xml mode not escaped: %s", got)
	}
}

func TestSerializeTextMethod(t *testing.T) {
	doc := MustParseString(`<a>one <b>two</b></a>`)
	got := SerializeToString(doc, WriteOptions{Method: "text"})
	if got != "one two" {
		t.Errorf("text method = %q", got)
	}
}

func TestSerializeDoctype(t *testing.T) {
	doc := MustParseString(`<html/>`)
	got := SerializeToString(doc, WriteOptions{Method: "html",
		DoctypePublic: "-//W3C//DTD XHTML 1.0 Strict//EN",
		DoctypeSystem: "http://www.w3.org/TR/xhtml1/DTD/xhtml1-strict.dtd"})
	if !strings.HasPrefix(got, `<!DOCTYPE html PUBLIC "-//W3C//DTD XHTML 1.0 Strict//EN" "http://www.w3.org/TR/xhtml1/DTD/xhtml1-strict.dtd">`) {
		t.Errorf("doctype: %s", got)
	}
}

func TestPrettyIndents(t *testing.T) {
	doc := MustParseString(`<goldmodel><factclasses><factclass id="f"/></factclasses></goldmodel>`)
	got := Pretty(doc)
	want := "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n<goldmodel>\n  <factclasses>\n    <factclass id=\"f\"/>\n  </factclasses>\n</goldmodel>\n"
	if got != want {
		t.Errorf("pretty:\n%s\nwant:\n%s", got, want)
	}
}

func TestPrettyPreservesMixedContent(t *testing.T) {
	doc := MustParseString(`<p>one <b>two</b> three</p>`)
	got := Pretty(doc)
	if !strings.Contains(got, "one <b>two</b> three") {
		t.Errorf("mixed content reflowed: %s", got)
	}
}

func TestSerializeNamespacedRoundTrip(t *testing.T) {
	src := `<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema"><xsd:element name="e"/></xsd:schema>`
	doc := MustParseString(src)
	got := doc.DocumentElement().xml()
	doc2, err := ParseString(got)
	if err != nil {
		t.Fatalf("reparse: %v (%s)", err, got)
	}
	if doc2.DocumentElement().URI != "http://www.w3.org/2001/XMLSchema" {
		t.Errorf("namespace lost: %s", got)
	}
}

func TestRawTextNode(t *testing.T) {
	e := NewElement("e")
	txt := e.AddText("<raw/>")
	txt.Raw = true
	if got := e.xml(); got != "<e><raw/></e>" {
		t.Errorf("raw output = %s", got)
	}
}

func TestSerializePI(t *testing.T) {
	doc := NewDocument()
	doc.AppendChild(&Node{Type: PINode, Name: "xml-stylesheet", Data: `href="s.xsl"`})
	doc.AddElement("r")
	got := SerializeToString(doc, WriteOptions{OmitDecl: true})
	if got != `<?xml-stylesheet href="s.xsl"?><r/>` {
		t.Errorf("pi = %s", got)
	}
}
