package xmldom

import (
	"fmt"
	"strings"
	"unicode/utf8"
)

// XMLNamespace is the reserved namespace bound to the xml: prefix.
const XMLNamespace = "http://www.w3.org/XML/1998/namespace"

// XMLNSNamespace is the reserved namespace of xmlns declarations.
const XMLNSNamespace = "http://www.w3.org/2000/xmlns/"

// ParseError describes a well-formedness error with its source position.
type ParseError struct {
	Line, Col int
	Msg       string
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("xml: %d:%d: %s", e.Line, e.Col, e.Msg)
}

// parser reads one string copy of its input and hands out zero-copy
// substrings of it: names, attribute values and text that need no
// rewriting share the input's bytes. Nodes and the Children/Attr slices
// are carved from slabs, so a parse allocates a few blocks per document
// rather than several per node.
type parser struct {
	src       string
	pos       int
	line      int
	lineStart int // offset of the current line's first byte; Col derives from it
	limits    Limits
	depth     int // current element nesting depth
	elems     int // elements parsed, drives the periodic cancel check

	ns    []nsBinding      // in-scope namespace bindings, innermost last
	names map[string]qname // per-parse name table
	attrs []rawAttr        // start-tag scratch, reused by every element
	kids  []*Node          // children of the open elements, innermost last

	// The pending text run of the element being parsed: text while it is
	// one zero-copy piece of src, buf once a reference or a second piece
	// forced a copy (buffered). Attribute values needing normalization
	// reuse buf; pending text is always flushed before a start tag.
	text        string
	buffered    bool
	buf         []byte
	tline, tcol int
	slab        int     // nodes per slab
	nodes       []Node  // unused rest of the current node slab
	ptrs        []*Node // unused rest of the current Children/Attr slab
}

// nsBinding binds a prefix ("" for the default namespace) to a URI.
type nsBinding struct{ prefix, uri string }

// qname is a name split at its first colon.
type qname struct{ full, prefix, local string }

type rawAttr struct {
	name      qname
	value     string
	line, col int
}

// canceled polls the Limits.Cancel channel every 256 elements, so a
// parse of a huge document can be abandoned mid-flight (ParseContext
// wires a context's Done channel here).
func (p *parser) canceled() bool {
	if p.limits.Cancel == nil {
		return false
	}
	p.elems++
	if p.elems&0xff != 0 {
		return false
	}
	select {
	case <-p.limits.Cancel:
		return true
	default:
		return false
	}
}

// Parse parses a complete XML document and returns its document node.
// The parser is namespace-aware: prefixes are resolved against in-scope
// xmlns declarations and retained on the nodes for faithful serialization.
// Whitespace-only text nodes are preserved (XSLT decides about stripping).
// Line ends are normalized to LF first (XML 1.0 §2.11).
// Resource consumption is bounded by DefaultLimits; use ParseWithLimits
// to tighten or lift the bounds.
func Parse(src []byte) (*Node, error) {
	return ParseWithLimits(src, DefaultLimits)
}

// parse parses src, which has passed the input-size limit.
func parse(src string, lim Limits) (*Node, error) {
	src = normalizeNewlines(src)
	p := &parser{src: src, line: 1, limits: lim, slab: min(max(len(src)/16, 4), 64)}
	return p.parseDocument()
}

// normalizeNewlines applies XML 1.0 §2.11 end-of-line handling: every
// CRLF pair and every CR not followed by LF becomes a single LF.
func normalizeNewlines(s string) string {
	i := strings.IndexByte(s, '\r')
	if i < 0 {
		return s
	}
	b := make([]byte, 0, len(s))
	for ; i >= 0; i = strings.IndexByte(s, '\r') {
		b = append(append(b, s[:i]...), '\n')
		s = s[i+1:]
		if s != "" && s[0] == '\n' {
			s = s[1:]
		}
	}
	return string(append(b, s...))
}

func (p *parser) parseDocument() (*Node, error) {
	p.ns = append(p.ns, nsBinding{"xml", XMLNamespace})
	p.names = make(map[string]qname)
	doc := NewDocument()
	if err := p.parseProlog(doc); err != nil {
		return nil, err
	}
	elem, err := p.parseElement()
	if err != nil {
		return nil, err
	}
	doc.AppendChild(elem)
	if err := p.parseMisc(doc); err != nil {
		return nil, err
	}
	if p.pos < len(p.src) {
		return nil, p.errf("content after document element")
	}
	return doc, nil
}

// ParseString is Parse for string input.
func ParseString(src string) (*Node, error) { return ParseStringWithLimits(src, DefaultLimits) }

// MustParseString parses src and panics on error; intended for tests and
// embedded, known-good documents.
func MustParseString(src string) *Node {
	doc, err := ParseString(src)
	if err != nil {
		panic(err)
	}
	return doc
}

func (p *parser) col() int { return p.pos - p.lineStart + 1 }

func (p *parser) errf(format string, args ...interface{}) error {
	return p.errAt(p.line, p.col(), format, args...)
}

func (p *parser) errAt(line, col int, format string, args ...interface{}) error {
	return &ParseError{Line: line, Col: col, Msg: fmt.Sprintf(format, args...)}
}

func (p *parser) peek() byte {
	if p.pos < len(p.src) {
		return p.src[p.pos]
	}
	return 0
}

// moveTo advances to offset end, counting the line ends it passes.
func (p *parser) moveTo(end int) {
	for {
		i := strings.IndexByte(p.src[p.pos:end], '\n')
		if i < 0 {
			break
		}
		p.pos += i + 1
		p.line++
		p.lineStart = p.pos
	}
	p.pos = end
}

func (p *parser) hasPrefix(s string) bool { return strings.HasPrefix(p.src[p.pos:], s) }

// expect consumes s, which contains no line end.
func (p *parser) expect(s string) error {
	if !p.hasPrefix(s) {
		return p.errf("expected %q", s)
	}
	p.pos += len(s)
	return nil
}

// isSpace reports XML whitespace; no CR is left after end-of-line
// handling.
func isSpace(b byte) bool { return b == ' ' || b == '\t' || b == '\n' }

func (p *parser) skipSpace() {
	for p.pos < len(p.src) {
		switch p.src[p.pos] {
		case '\n':
			p.pos++
			p.line++
			p.lineStart = p.pos
		case ' ', '\t':
			p.pos++
		default:
			return
		}
	}
}

// isNameStart and isNameByte classify name bytes. Every byte of a
// non-ASCII rune (and every byte of invalid UTF-8) is a name byte, so a
// name is a run of bytes and never needs decoding.
func isNameStart(c byte) bool {
	return c == '_' || c == ':' || (c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z') || c >= utf8.RuneSelf
}

func isNameByte(c byte) bool {
	return isNameStart(c) || c == '-' || c == '.' || (c >= '0' && c <= '9')
}

func (p *parser) parseName() (string, error) {
	start := p.pos
	if start >= len(p.src) || !isNameStart(p.src[start]) {
		return "", p.errf("expected name")
	}
	i := start + 1
	for i < len(p.src) && isNameByte(p.src[i]) {
		i++
	}
	p.pos = i
	return p.src[start:i], nil
}

// parseQName parses an element or attribute name through the per-parse
// name table, so every occurrence of a name shares one split. The name
// must be a QName (Namespaces in XML 1.0 §3).
func (p *parser) parseQName() (qname, error) {
	line, col := p.line, p.col()
	s, err := p.parseName()
	if err != nil {
		return qname{}, err
	}
	q, ok := p.names[s]
	if !ok {
		prefix, local, valid := splitQName(s)
		if !valid {
			return qname{}, p.errAt(line, col, "name %q is not a QName: a colon must separate a non-empty prefix from a local name", s)
		}
		q = qname{s, prefix, local}
		p.names[s] = q
	}
	return q, nil
}

// splitQName splits a possibly-prefixed name into (prefix, local). valid
// is false when a colon does not separate a non-empty prefix from a
// non-empty, colon-free local name.
func splitQName(q string) (prefix, local string, valid bool) {
	i := strings.IndexByte(q, ':')
	if i < 0 {
		return "", q, true
	}
	prefix, local = q[:i], q[i+1:]
	return prefix, local, prefix != "" && local != "" && strings.IndexByte(local, ':') < 0
}

func (p *parser) lookupNS(prefix string) (string, bool) {
	for i := len(p.ns) - 1; i >= 0; i-- {
		if p.ns[i].prefix == prefix {
			return p.ns[i].uri, true
		}
	}
	return "", false
}

// newNode returns a zeroed node from the current slab.
func (p *parser) newNode() *Node {
	if len(p.nodes) == 0 {
		p.nodes = make([]Node, p.slab)
	}
	n := &p.nodes[0]
	p.nodes = p.nodes[1:]
	return n
}

// nodeSlice returns a slice of n node pointers from the current slab,
// capped at n so an append by a later mutation reallocates instead of
// overwriting a neighbour's slots.
func (p *parser) nodeSlice(n int) []*Node {
	if n > len(p.ptrs) {
		p.ptrs = make([]*Node, max(n, 4*p.slab))
	}
	s := p.ptrs[:n:n]
	p.ptrs = p.ptrs[n:]
	return s
}

func (p *parser) parseProlog(doc *Node) error {
	if p.hasPrefix("\xef\xbb\xbf") { // UTF-8 BOM
		p.pos += 3
	}
	if p.hasPrefix("<?xml") && len(p.src) > p.pos+5 && isSpace(p.src[p.pos+5]) {
		if err := p.skipPast("?>"); err != nil {
			return err
		}
	}
	return p.parseMiscAndDoctype(doc)
}

func (p *parser) skipPast(end string) error {
	i := strings.Index(p.src[p.pos:], end)
	if i < 0 {
		p.moveTo(len(p.src))
		return p.errf("unterminated construct, expected %q", end)
	}
	p.moveTo(p.pos + i + len(end))
	return nil
}

// parseMiscAndDoctype consumes comments, PIs, whitespace and at most one
// DOCTYPE declaration before the root element.
func (p *parser) parseMiscAndDoctype(doc *Node) error {
	for {
		p.skipSpace()
		switch {
		case p.hasPrefix("<!--"):
			c, err := p.parseComment()
			if err != nil {
				return err
			}
			doc.AppendChild(c)
		case p.hasPrefix("<?"):
			pi, err := p.parsePI()
			if err != nil {
				return err
			}
			doc.AppendChild(pi)
		case p.hasPrefix("<!DOCTYPE"):
			if err := p.skipDoctype(); err != nil {
				return err
			}
		default:
			return nil
		}
	}
}

// parseMisc consumes trailing comments, PIs and whitespace after the root.
func (p *parser) parseMisc(doc *Node) error {
	for {
		p.skipSpace()
		switch {
		case p.hasPrefix("<!--"):
			c, err := p.parseComment()
			if err != nil {
				return err
			}
			doc.AppendChild(c)
		case p.hasPrefix("<?"):
			pi, err := p.parsePI()
			if err != nil {
				return err
			}
			doc.AppendChild(pi)
		default:
			return nil
		}
	}
}

// skipDoctype skips a DOCTYPE declaration, including a bracketed internal
// subset. Entity declarations inside it are ignored; only the five
// predefined entities and character references are recognized in content.
func (p *parser) skipDoctype() error {
	p.pos += len("<!DOCTYPE")
	depth := 0
	for i := p.pos; i < len(p.src); i++ {
		switch c := p.src[i]; c {
		case '[':
			depth++
		case ']':
			depth--
		case '>':
			if depth <= 0 {
				p.moveTo(i + 1)
				return nil
			}
		case '"', '\'':
			j := strings.IndexByte(p.src[i+1:], c)
			if j < 0 {
				i = len(p.src)
			} else {
				i += 1 + j // the closing quote; the loop steps past it
			}
		}
	}
	p.moveTo(len(p.src))
	return p.errf("unterminated DOCTYPE")
}

func (p *parser) parseComment() (*Node, error) {
	line, col := p.line, p.col()
	p.pos += 4 // <!--
	start := p.pos
	i := strings.Index(p.src[start:], "--")
	if i < 0 {
		p.moveTo(len(p.src))
		return nil, p.errf("unterminated comment")
	}
	p.moveTo(start + i)
	if !p.hasPrefix("-->") {
		return nil, p.errf("'--' not allowed inside comment")
	}
	p.pos += 3
	n := p.newNode()
	*n = Node{Type: CommentNode, Data: p.src[start : start+i], Line: line, Col: col}
	return n, nil
}

func (p *parser) parsePI() (*Node, error) {
	line, col := p.line, p.col()
	p.pos += 2 // <?
	target, err := p.parseName()
	if err != nil {
		return nil, err
	}
	if strings.EqualFold(target, "xml") {
		return nil, p.errf("reserved PI target %q", target)
	}
	p.skipSpace()
	start := p.pos
	i := strings.Index(p.src[start:], "?>")
	if i < 0 {
		p.moveTo(len(p.src))
		return nil, p.errf("unterminated processing instruction")
	}
	p.moveTo(start + i + 2)
	n := p.newNode()
	*n = Node{Type: PINode, Name: target, Data: p.src[start : start+i], Line: line, Col: col}
	return n, nil
}

func (p *parser) parseElement() (*Node, error) {
	if p.canceled() {
		return nil, p.errf("parse canceled")
	}
	line, col := p.line, p.col()
	if err := p.expect("<"); err != nil {
		return nil, err
	}
	p.depth++
	if p.limits.MaxDepth > 0 && p.depth > p.limits.MaxDepth {
		return nil, p.errf("element nesting depth exceeds the limit of %d", p.limits.MaxDepth)
	}
	qn, err := p.parseQName()
	if err != nil {
		return nil, err
	}
	p.attrs = p.attrs[:0]
	for {
		hadSpace := p.pos < len(p.src) && isSpace(p.src[p.pos])
		p.skipSpace()
		if p.peek() == '>' || p.hasPrefix("/>") {
			break
		}
		if !hadSpace {
			return nil, p.errf("expected whitespace before attribute in <%s>", qn.full)
		}
		aline, acol := p.line, p.col()
		aname, err := p.parseQName()
		if err != nil {
			return nil, err
		}
		p.skipSpace()
		if err := p.expect("="); err != nil {
			return nil, err
		}
		p.skipSpace()
		aval, err := p.parseAttValue()
		if err != nil {
			return nil, err
		}
		for _, prev := range p.attrs {
			if prev.name.full == aname.full {
				return nil, p.errf("duplicate attribute %q in <%s>", aname.full, qn.full)
			}
		}
		if p.limits.MaxAttrs > 0 && len(p.attrs) >= p.limits.MaxAttrs {
			return nil, p.errf("element <%s> exceeds the limit of %d attributes", qn.full, p.limits.MaxAttrs)
		}
		p.attrs = append(p.attrs, rawAttr{aname, aval, aline, acol})
	}

	// Bind the namespaces the element declares; most declare none.
	nsBase := len(p.ns)
	for _, a := range p.attrs {
		if a.name.full == "xmlns" {
			p.ns = append(p.ns, nsBinding{"", a.value})
		} else if a.name.prefix == "xmlns" {
			px := a.name.local
			if px == "xmlns" {
				return nil, p.errf("cannot declare prefix xmlns")
			}
			if a.value == "" {
				return nil, p.errf("namespace prefix %q cannot be undeclared to empty", px)
			}
			p.ns = append(p.ns, nsBinding{px, a.value})
		}
	}

	elem := p.newNode()
	*elem = Node{Type: ElementNode, Name: qn.local, Prefix: qn.prefix, Line: line, Col: col}
	if qn.prefix != "" {
		uri, ok := p.lookupNS(qn.prefix)
		if !ok {
			return nil, p.errf("undeclared namespace prefix %q", qn.prefix)
		}
		elem.URI = uri
	} else if uri, ok := p.lookupNS(""); ok {
		elem.URI = uri
	}
	if len(p.attrs) > 0 {
		elem.Attr = p.nodeSlice(len(p.attrs))
		for i, a := range p.attrs {
			var uri string
			if a.name.full == "xmlns" || a.name.prefix == "xmlns" {
				uri = XMLNSNamespace
			} else if a.name.prefix != "" {
				u, ok := p.lookupNS(a.name.prefix)
				if !ok {
					return nil, p.errf("undeclared namespace prefix %q", a.name.prefix)
				}
				uri = u
			}
			an := p.newNode()
			*an = Node{Type: AttrNode, Name: a.name.local, Prefix: a.name.prefix, URI: uri,
				Data: a.value, Parent: elem, Line: a.line, Col: a.col}
			elem.Attr[i] = an
		}
		if err := p.checkExpandedNames(elem, qn.full); err != nil {
			return nil, err
		}
	}

	if p.hasPrefix("/>") {
		p.pos += 2
	} else {
		p.pos++ // '>'
		base := len(p.kids)
		if err := p.parseContent(elem); err != nil {
			return nil, err
		}
		if n := len(p.kids) - base; n > 0 {
			elem.Children = p.nodeSlice(n)
			copy(elem.Children, p.kids[base:])
			p.kids = p.kids[:base]
		}
		// closing tag
		endName, err := p.parseName()
		if err != nil {
			return nil, err
		}
		if endName != qn.full {
			return nil, p.errf("mismatched end tag </%s>, expected </%s>", endName, qn.full)
		}
		p.skipSpace()
		if err := p.expect(">"); err != nil {
			return nil, err
		}
	}
	p.ns = p.ns[:nsBase]
	p.depth--
	return elem, nil
}

// checkExpandedNames enforces Namespaces in XML 1.0 §6.3: no two
// attributes of an element may have the same namespace URI and local
// name, even when written with different prefixes. Attributes without a
// namespace were already compared by their written names.
func (p *parser) checkExpandedNames(elem *Node, name string) error {
	for i, a := range elem.Attr {
		if a.URI == "" {
			continue
		}
		for _, prev := range elem.Attr[:i] {
			if prev.URI == a.URI && prev.Name == a.Name {
				return p.errAt(a.Line, a.Col, "duplicate attribute %q in <%s>: %q has the same namespace and local name",
					a.FullName(), name, prev.FullName())
			}
		}
	}
	return nil
}

// addChild appends c to the children of the element being parsed.
func (p *parser) addChild(parent, c *Node) {
	c.Parent = parent
	p.kids = append(p.kids, c)
}

// addText appends a piece of character data starting at line:col to the
// pending text run.
func (p *parser) addText(s string, line, col int) {
	switch {
	case s == "":
	case p.buffered:
		p.buf = append(p.buf, s...)
	case p.text == "":
		p.text, p.tline, p.tcol = s, line, col
	default:
		p.buf = append(append(p.buf[:0], p.text...), s...)
		p.text, p.buffered = "", true
	}
}

// bufferText moves the pending text run into buf, ready for decoded
// text starting at line:col to be appended.
func (p *parser) bufferText(line, col int) {
	if p.buffered {
		return
	}
	if p.text == "" {
		p.tline, p.tcol = line, col
	}
	p.buf = append(p.buf[:0], p.text...)
	p.text, p.buffered = "", true
}

// flushText turns the pending text run into a text child of parent.
func (p *parser) flushText(parent *Node) {
	var s string
	switch {
	case p.buffered:
		s, p.buffered = string(p.buf), false
	case p.text != "":
		s, p.text = p.text, ""
	default:
		return
	}
	t := p.newNode()
	*t = Node{Type: TextNode, Data: s, Line: p.tline, Col: p.tcol}
	p.addChild(parent, t)
}

// parseContent parses element content up to (and consuming) the "</" of the
// matching end tag.
func (p *parser) parseContent(parent *Node) error {
	for p.pos < len(p.src) {
		switch p.src[p.pos] {
		case '<':
			switch rest := p.src[p.pos:]; {
			case strings.HasPrefix(rest, "</"):
				p.flushText(parent)
				p.pos += 2
				return nil
			case strings.HasPrefix(rest, "<!--"):
				p.flushText(parent)
				c, err := p.parseComment()
				if err != nil {
					return err
				}
				p.addChild(parent, c)
			case strings.HasPrefix(rest, "<![CDATA["):
				line, col := p.line, p.col()
				p.pos += 9
				i := strings.Index(p.src[p.pos:], "]]>")
				if i < 0 {
					p.moveTo(len(p.src))
					return p.errf("unterminated CDATA section")
				}
				p.addText(p.src[p.pos:p.pos+i], line, col)
				p.moveTo(p.pos + i + 3)
			case strings.HasPrefix(rest, "<?"):
				p.flushText(parent)
				pi, err := p.parsePI()
				if err != nil {
					return err
				}
				p.addChild(parent, pi)
			default:
				p.flushText(parent)
				child, err := p.parseElement()
				if err != nil {
					return err
				}
				p.addChild(parent, child)
			}
		case '&':
			p.bufferText(p.line, p.col())
			var err error
			if p.buf, err = p.appendReference(p.buf); err != nil {
				return err
			}
		default:
			// A run of character data up to the next markup or reference.
			run := p.src[p.pos:]
			if i := strings.IndexByte(run, '<'); i >= 0 {
				run = run[:i]
			}
			if i := strings.IndexByte(run, '&'); i >= 0 {
				run = run[:i]
			}
			if i := strings.Index(run, "]]>"); i >= 0 {
				p.moveTo(p.pos + i)
				return p.errf("']]>' not allowed in content")
			}
			p.addText(run, p.line, p.col())
			p.moveTo(p.pos + len(run))
		}
	}
	return p.errf("unexpected end of input inside <%s>", parent.FullName())
}

func (p *parser) parseAttValue() (string, error) {
	q := p.peek()
	if q != '"' && q != '\'' {
		return "", p.errf("expected quoted attribute value")
	}
	p.pos++
	start := p.pos
	// Fast path: a value with no reference, no '<' and no whitespace to
	// normalize is a substring of the input.
	for i := start; i < len(p.src); i++ {
		c := p.src[i]
		if c == q {
			p.pos = i + 1
			return p.src[start:i], nil
		}
		if c == '<' || c == '&' || c == '\t' || c == '\n' {
			p.pos = i
			break
		}
	}
	var err error
	if p.buf, err = p.appendAttValue(append(p.buf[:0], p.src[start:p.pos]...), q); err != nil {
		return "", err
	}
	return string(p.buf), nil
}

// appendAttValue appends the normalized rest of an attribute value to
// dst and consumes its closing quote q.
func (p *parser) appendAttValue(dst []byte, q byte) ([]byte, error) {
	for p.pos < len(p.src) {
		switch c := p.src[p.pos]; c {
		case q:
			p.pos++
			return dst, nil
		case '<':
			return dst, p.errf("'<' not allowed in attribute value")
		case '&':
			var err error
			if dst, err = p.appendReference(dst); err != nil {
				return dst, err
			}
		case '\n':
			// attribute-value normalization
			dst = append(dst, ' ')
			p.moveTo(p.pos + 1)
		case '\t':
			dst = append(dst, ' ')
			p.pos++
		default:
			dst = append(dst, c)
			p.pos++
		}
	}
	return dst, p.errf("unterminated attribute value")
}

// appendReference parses an entity or character reference starting at '&'
// and appends its replacement text to dst.
func (p *parser) appendReference(dst []byte) ([]byte, error) {
	p.pos++ // &
	if p.peek() == '#' {
		p.pos++
		base := rune(10)
		if c := p.peek(); c == 'x' || c == 'X' {
			base = 16
			p.pos++
		}
		var code rune
		digits := 0
		for p.pos < len(p.src) && p.src[p.pos] != ';' {
			c := p.src[p.pos]
			var d rune = -1
			switch {
			case c >= '0' && c <= '9':
				d = rune(c - '0')
			case base == 16 && c >= 'a' && c <= 'f':
				d = rune(c-'a') + 10
			case base == 16 && c >= 'A' && c <= 'F':
				d = rune(c-'A') + 10
			}
			if d < 0 {
				return dst, p.errf("invalid character reference")
			}
			code = code*base + d
			digits++
			if code > utf8.MaxRune {
				return dst, p.errf("character reference out of range")
			}
			p.pos++
		}
		if digits == 0 || p.peek() != ';' {
			return dst, p.errf("malformed character reference")
		}
		p.pos++
		if !utf8.ValidRune(code) || code == 0 {
			return dst, p.errf("invalid character reference value %d", code)
		}
		return utf8.AppendRune(dst, code), nil
	}
	name, err := p.parseName()
	if err != nil {
		return dst, p.errf("malformed entity reference")
	}
	if p.peek() != ';' {
		return dst, p.errf("entity reference %q missing ';'", name)
	}
	p.pos++
	switch name {
	case "lt":
		return append(dst, '<'), nil
	case "gt":
		return append(dst, '>'), nil
	case "amp":
		return append(dst, '&'), nil
	case "apos":
		return append(dst, '\''), nil
	case "quot":
		return append(dst, '"'), nil
	}
	return dst, p.errf("undefined entity &%s;", name)
}
