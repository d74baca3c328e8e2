package xmldom

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestParseMinimalDocument(t *testing.T) {
	doc, err := ParseString(`<?xml version="1.0"?><root/>`)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	root := doc.DocumentElement()
	if root == nil || root.Name != "root" {
		t.Fatalf("bad root: %+v", root)
	}
	if root.Parent != doc {
		t.Fatal("root not parented to document")
	}
}

func TestParseNestedElementsAndText(t *testing.T) {
	doc := MustParseString(`<a><b>hello</b><c>world</c></a>`)
	a := doc.DocumentElement()
	if len(a.Elements()) != 2 {
		t.Fatalf("want 2 children, got %d", len(a.Elements()))
	}
	if got := a.FirstElement("b").StringValue(); got != "hello" {
		t.Errorf("b = %q", got)
	}
	if got := a.StringValue(); got != "helloworld" {
		t.Errorf("string-value = %q", got)
	}
}

func TestParseAttributes(t *testing.T) {
	doc := MustParseString(`<e id="x1" name="Sales &amp; Tickets" flag='yes'/>`)
	e := doc.DocumentElement()
	if got := e.AttrValue("id"); got != "x1" {
		t.Errorf("id = %q", got)
	}
	if got := e.AttrValue("name"); got != "Sales & Tickets" {
		t.Errorf("name = %q", got)
	}
	if got := e.AttrValue("flag"); got != "yes" {
		t.Errorf("flag = %q", got)
	}
	if e.HasAttr("missing") {
		t.Error("missing attribute reported present")
	}
}

func TestParseDuplicateAttributeRejected(t *testing.T) {
	if _, err := ParseString(`<e a="1" a="2"/>`); err == nil {
		t.Fatal("duplicate attribute accepted")
	}
}

func TestParseEntities(t *testing.T) {
	doc := MustParseString(`<t>&lt;&gt;&amp;&apos;&quot;&#65;&#x42;</t>`)
	if got := doc.StringValue(); got != `<>&'"AB` {
		t.Errorf("entities = %q", got)
	}
}

func TestParseUndefinedEntityRejected(t *testing.T) {
	if _, err := ParseString(`<t>&nbsp;</t>`); err == nil {
		t.Fatal("undefined entity accepted")
	}
}

func TestParseCDATA(t *testing.T) {
	doc := MustParseString(`<t><![CDATA[<not> & markup]]></t>`)
	if got := doc.StringValue(); got != "<not> & markup" {
		t.Errorf("cdata = %q", got)
	}
}

func TestParseCommentAndPI(t *testing.T) {
	doc := MustParseString(`<!-- top --><r><?php echo ?><!--in--></r>`)
	r := doc.DocumentElement()
	var pi, comment *Node
	for _, c := range r.Children {
		switch c.Type {
		case PINode:
			pi = c
		case CommentNode:
			comment = c
		}
	}
	if pi == nil || pi.Name != "php" || strings.TrimSpace(pi.Data) != "echo" {
		t.Errorf("pi = %+v", pi)
	}
	if comment == nil || comment.Data != "in" {
		t.Errorf("comment = %+v", comment)
	}
	if doc.Children[0].Type != CommentNode || doc.Children[0].Data != " top " {
		t.Errorf("document comment missing: %+v", doc.Children[0])
	}
}

func TestParseNamespaces(t *testing.T) {
	doc := MustParseString(`<x:root xmlns:x="urn:one" xmlns="urn:def">` +
		`<child x:attr="v"/></x:root>`)
	root := doc.DocumentElement()
	if root.URI != "urn:one" || root.Prefix != "x" || root.Name != "root" {
		t.Fatalf("root ns: %+v", root)
	}
	child := root.Elements()[0]
	if child.URI != "urn:def" {
		t.Errorf("default ns not applied: %q", child.URI)
	}
	a := child.GetAttrNS("urn:one", "attr")
	if a == nil || a.Data != "v" {
		t.Errorf("namespaced attr lookup failed: %+v", a)
	}
	// Unprefixed attributes have no namespace.
	doc2 := MustParseString(`<r xmlns="urn:d" a="1"/>`)
	if got := doc2.DocumentElement().GetAttr("a"); got == nil {
		t.Error("unprefixed attribute should have empty namespace")
	}
}

func TestParseUndeclaredPrefixRejected(t *testing.T) {
	if _, err := ParseString(`<x:r/>`); err == nil {
		t.Fatal("undeclared element prefix accepted")
	}
	if _, err := ParseString(`<r y:a="1"/>`); err == nil {
		t.Fatal("undeclared attribute prefix accepted")
	}
}

func TestParseNamespaceScoping(t *testing.T) {
	doc := MustParseString(`<r xmlns:p="urn:a"><p:in xmlns:p="urn:b"/><p:out/></r>`)
	r := doc.DocumentElement()
	if got := r.Elements()[0].URI; got != "urn:b" {
		t.Errorf("inner redeclaration: %q", got)
	}
	if got := r.Elements()[1].URI; got != "urn:a" {
		t.Errorf("outer binding restored: %q", got)
	}
}

func TestParseXMLPrefixPredefined(t *testing.T) {
	doc := MustParseString(`<r xml:lang="en"/>`)
	a := doc.DocumentElement().GetAttrNS(XMLNamespace, "lang")
	if a == nil || a.Data != "en" {
		t.Fatalf("xml:lang: %+v", a)
	}
}

func TestParseMismatchedTagsRejected(t *testing.T) {
	for _, src := range []string{`<a></b>`, `<a><b></a></b>`, `<a>`, `</a>`, `<a/><b/>`} {
		if _, err := ParseString(src); err == nil {
			t.Errorf("accepted malformed %q", src)
		}
	}
}

func TestParseDoctypeSkipped(t *testing.T) {
	doc, err := ParseString(`<!DOCTYPE r [ <!ELEMENT r (#PCDATA)> ]><r>ok</r>`)
	if err != nil {
		t.Fatalf("doctype: %v", err)
	}
	if doc.StringValue() != "ok" {
		t.Errorf("content = %q", doc.StringValue())
	}
}

func TestParseAttributeValueNormalization(t *testing.T) {
	doc := MustParseString("<r a=\"one\ttwo\nthree\"/>")
	if got := doc.DocumentElement().AttrValue("a"); got != "one two three" {
		t.Errorf("normalized = %q", got)
	}
}

func TestParsePositions(t *testing.T) {
	doc := MustParseString("<a>\n  <b/>\n</a>")
	b := doc.DocumentElement().FirstElement("b")
	if b.Line != 2 || b.Col != 3 {
		t.Errorf("position = %d:%d, want 2:3", b.Line, b.Col)
	}
}

func TestParseContentAfterRootRejected(t *testing.T) {
	if _, err := ParseString(`<a/>text`); err == nil {
		t.Fatal("trailing text accepted")
	}
}

func TestParseLtInAttributeRejected(t *testing.T) {
	if _, err := ParseString(`<a b="<"/>`); err == nil {
		t.Fatal("'<' in attribute accepted")
	}
}

func TestParseBOM(t *testing.T) {
	doc, err := Parse([]byte("\xef\xbb\xbf<r/>"))
	if err != nil {
		t.Fatalf("BOM: %v", err)
	}
	if doc.DocumentElement().Name != "r" {
		t.Fatal("bad root after BOM")
	}
}

func TestParseWhitespacePreserved(t *testing.T) {
	doc := MustParseString("<a>  <b/>  </a>")
	a := doc.DocumentElement()
	if len(a.Children) != 3 {
		t.Fatalf("want 3 children (ws, b, ws), got %d", len(a.Children))
	}
	if a.Children[0].Type != TextNode || a.Children[0].Data != "  " {
		t.Errorf("leading whitespace not preserved: %+v", a.Children[0])
	}
}

func TestParseErrorHasPosition(t *testing.T) {
	_, err := ParseString("<a>\n<b></c>\n</a>")
	pe, ok := err.(*ParseError)
	if !ok {
		t.Fatalf("want *ParseError, got %T (%v)", err, err)
	}
	if pe.Line != 2 {
		t.Errorf("error line = %d, want 2", pe.Line)
	}
}

// Namespaces in XML 1.0 §6.3: two attributes with the same namespace URI
// and local name are duplicates even when their prefixes differ.
func TestParseNamespacedDuplicateAttributeRejected(t *testing.T) {
	_, err := ParseString(`<e xmlns:a="u" xmlns:b="u" a:x="1" b:x="2"/>`)
	pe, ok := err.(*ParseError)
	if !ok {
		t.Fatalf("want *ParseError, got %T (%v)", err, err)
	}
	if pe.Line != 1 || pe.Col != 36 || !strings.Contains(pe.Msg, "duplicate attribute") {
		t.Errorf("error = %v, want a duplicate-attribute error at the second attribute, 1:36", pe)
	}
	// Same local name in different namespaces, or with and without one,
	// is two attributes.
	for _, src := range []string{
		`<e xmlns:a="u" xmlns:b="v" a:x="1" b:x="2"/>`,
		`<e xmlns:a="u" x="1" a:x="2"/>`,
	} {
		if _, err := ParseString(src); err != nil {
			t.Errorf("%s: %v", src, err)
		}
	}
}

// XML 1.0 §2.11: a CRLF pair and a lone CR both reach the document as a
// single LF, in text and in attribute values alike.
func TestParseEndOfLineHandling(t *testing.T) {
	doc := MustParseString("<r a=\"x\r\ny\rz\">one\r\ntwo\rthree<![CDATA[\r\n]]></r>")
	r := doc.DocumentElement()
	if got := r.AttrValue("a"); got != "x y z" {
		t.Errorf("attribute = %q, want %q", got, "x y z")
	}
	if got := r.StringValue(); got != "one\ntwo\nthree\n" {
		t.Errorf("text = %q, want %q", got, "one\ntwo\nthree\n")
	}
	// A character reference to CR is not a line end.
	if got := MustParseString("<r a=\"&#13;\">&#13;</r>").DocumentElement(); got.AttrValue("a") != "\r" || got.StringValue() != "\r" {
		t.Errorf("&#13; = %q / %q, want CR", got.AttrValue("a"), got.StringValue())
	}
	// Lone CRs end lines for error positions too.
	_, err := ParseString("<a>\r<b>\r</c></a>")
	if pe, ok := err.(*ParseError); !ok || pe.Line != 3 {
		t.Errorf("error = %v, want line 3", err)
	}
}

func TestParseCRLFModelSerializesLikeLF(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("..", "..", "examples", "models", "salesdw.xml"))
	if err != nil {
		t.Fatal(err)
	}
	crlf := bytes.ReplaceAll(src, []byte("\n"), []byte("\r\n"))
	if bytes.Equal(crlf, src) {
		t.Fatal("model has no line ends to convert")
	}
	lf, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	dos, err := Parse(crlf)
	if err != nil {
		t.Fatal(err)
	}
	want := SerializeToString(lf, WriteOptions{})
	if got := SerializeToString(dos, WriteOptions{}); got != want {
		t.Errorf("CRLF copy serializes differently:\ngot:  %.200q\nwant: %.200q", got, want)
	}
}
