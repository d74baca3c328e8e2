package xmldom

import (
	"strings"
	"sync"
)

// WriteOptions control serialization. The zero value produces compact XML
// with an XML declaration.
type WriteOptions struct {
	// Method is "xml" (default), "html" or "text", mirroring xsl:output.
	Method string
	// Indent, when non-empty, pretty-prints using this unit (e.g. "  ").
	Indent string
	// OmitDecl suppresses the <?xml ...?> declaration (xml method only).
	OmitDecl bool
	// DoctypePublic/DoctypeSystem emit a DOCTYPE before the root element.
	DoctypePublic string
	DoctypeSystem string
}

// htmlVoid lists HTML elements that are serialized without an end tag when
// using the html output method.
var htmlVoid = map[string]bool{
	"area": true, "base": true, "br": true, "col": true, "embed": true,
	"hr": true, "img": true, "input": true, "link": true, "meta": true,
	"param": true, "source": true, "track": true, "wbr": true,
}

// htmlRawText lists HTML elements whose text content is not escaped.
var htmlRawText = map[string]bool{"script": true, "style": true}

// HTMLVoid reports whether an element name (case-insensitive) is an HTML
// void element: under the html output method it is serialized without an
// end tag, so any children a transformation puts inside it produce
// invalid markup. Exported for the static result-shape analysis, which
// must lint against exactly the serializer's content model.
func HTMLVoid(name string) bool { return htmlVoid[strings.ToLower(name)] }

// HTMLRawText reports whether an element name (case-insensitive) is an
// HTML raw-text element (script, style): under the html output method
// its text content is emitted unescaped, so text containing "</" can
// terminate the element early. Exported for the static result-shape
// analysis.
func HTMLRawText(name string) bool { return htmlRawText[strings.ToLower(name)] }

// SerializeToString renders the node tree to a string. A document
// renders whole; any other node renders as a fragment, with no XML
// declaration and no trailing newline. The tree is copied onto a pooled
// ByteEmitter tape and replayed into a pooled scratch buffer, so trees
// and transformation results share one serializer and the string is the
// only copy of the rendered bytes.
func SerializeToString(n *Node, opts WriteOptions) string {
	if opts.Method == "text" {
		return n.StringValue()
	}
	be := NewByteEmitter()
	defer be.Release()
	be.CopyTree(n)
	fragment := n.Type != DocumentNode
	if fragment {
		opts.OmitDecl = true
	}
	scratch := scratchPool.Get().(*[]byte)
	out := be.AppendSerialized((*scratch)[:0], opts)
	*scratch = out
	if fragment && opts.Indent != "" && len(out) > 0 {
		out = out[:len(out)-1] // the newline the replay puts after each top-level node
	}
	s := string(out)
	scratchPool.Put(scratch)
	return s
}

// scratchPool holds the buffers SerializeToString renders into before
// it copies the result into a string.
var scratchPool = sync.Pool{New: func() any { return new([]byte) }}

// Pretty returns an indented XML rendering of n, the moral equivalent of a
// browser's collapsed source view of an XML document without a stylesheet
// (paper Fig. 4).
func Pretty(n *Node) string {
	return SerializeToString(n, WriteOptions{Indent: "  ", OmitDecl: false})
}

// appendEscText appends s to dst with element-content escaping. Escaped
// characters are all ASCII, so multi-byte runes pass through byte-wise.
func appendEscText(dst []byte, s string) []byte {
	start := 0
	for i := 0; i < len(s); i++ {
		var rep string
		switch s[i] {
		case '&':
			rep = "&amp;"
		case '<':
			rep = "&lt;"
		case '>':
			rep = "&gt;"
		case '\r':
			rep = "&#13;"
		default:
			continue
		}
		dst = append(dst, s[start:i]...)
		dst = append(dst, rep...)
		start = i + 1
	}
	return append(dst, s[start:]...)
}

// appendEscAttr appends s to dst with attribute-value escaping.
func appendEscAttr(dst []byte, s string) []byte {
	start := 0
	for i := 0; i < len(s); i++ {
		var rep string
		switch s[i] {
		case '&':
			rep = "&amp;"
		case '<':
			rep = "&lt;"
		case '>':
			rep = "&gt;"
		case '"':
			rep = "&quot;"
		case '\t':
			rep = "&#9;"
		case '\n':
			rep = "&#10;"
		case '\r':
			rep = "&#13;"
		default:
			continue
		}
		dst = append(dst, s[start:i]...)
		dst = append(dst, rep...)
		start = i + 1
	}
	return append(dst, s[start:]...)
}
