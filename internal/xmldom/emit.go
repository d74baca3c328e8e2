package xmldom

import (
	"strings"
	"sync"
)

// Emitter is the output sink for XSLT result construction. Instructions
// produce a stream of element/attribute/text events; the sink either
// records a flat event tape that serializes straight to bytes
// (ByteEmitter), or builds a DOM for a result-tree fragment (TreeEmitter).
//
// Event semantics mirror the result-tree DOM exactly:
//   - Attr targets the innermost open element and overwrites an existing
//     attribute with the same (local name, namespace URI) in place. It
//     returns false when no element is open (the "xsl:attribute outside an
//     element" condition); attributes may still arrive after child content.
//   - Text never merges adjacent text events; raw disables output escaping.
//   - CopyTree deep-copies an element/text/comment/PI subtree.
type Emitter interface {
	BeginElement(prefix, uri, name string)
	Attr(prefix, uri, name, value string) bool
	EndElement()
	Text(data string, raw bool)
	Comment(data string)
	PI(name, data string)
	CopyTree(n *Node)
	// OpenElement reports whether an element is currently open (i.e. Attr
	// would succeed).
	OpenElement() bool
}

// TreeEmitter builds a DOM under a root node (usually a document). XSLT
// uses it for result-tree fragments, which are DOM node-sets.
type TreeEmitter struct {
	stack []*Node
}

// NewTreeEmitter returns an emitter appending children to root.
func NewTreeEmitter(root *Node) *TreeEmitter {
	t := &TreeEmitter{}
	t.stack = append(t.stack, root)
	return t
}

func (t *TreeEmitter) cur() *Node { return t.stack[len(t.stack)-1] }

func (t *TreeEmitter) BeginElement(prefix, uri, name string) {
	elem := &Node{Type: ElementNode, Name: name, Prefix: prefix, URI: uri}
	t.cur().AppendChild(elem)
	t.stack = append(t.stack, elem)
}

func (t *TreeEmitter) Attr(prefix, uri, name, value string) bool {
	c := t.cur()
	if c.Type != ElementNode {
		return false
	}
	c.SetAttrNS(prefix, uri, name, value)
	return true
}

func (t *TreeEmitter) EndElement() {
	if len(t.stack) > 1 {
		t.stack = t.stack[:len(t.stack)-1]
	}
}

func (t *TreeEmitter) Text(data string, raw bool) {
	n := t.cur().AddText(data)
	n.Raw = raw
}

func (t *TreeEmitter) Comment(data string) {
	t.cur().AppendChild(&Node{Type: CommentNode, Data: data})
}

func (t *TreeEmitter) PI(name, data string) {
	t.cur().AppendChild(&Node{Type: PINode, Name: name, Data: data})
}

func (t *TreeEmitter) CopyTree(n *Node) {
	t.cur().AppendChild(n.Clone())
}

func (t *TreeEmitter) OpenElement() bool { return t.cur().Type == ElementNode }

// --- ByteEmitter: event tape with direct-to-bytes replay ---

type emitKind uint8

const (
	evBegin emitKind = iota
	evEnd
	evText
	evComment
	evPI
)

// evBegin flags, decided when the element closes.
const (
	efHasContent uint8 = 1 << iota // element has at least one child event
	efStructured                   // element/comment/PI children, no non-ws text
	efRaw                          // text event: escaping disabled
)

type emitEvent struct {
	kind  emitKind
	flags uint8
	// evBegin: s1=prefix s2=uri s3=name; evText/evComment: s1=data;
	// evPI: s1=name s2=data.
	s1, s2, s3 string
	// evBegin: attribute span [a0,a1) in the attrs arena.
	a0, a1 int32
}

type emitAttr struct {
	prefix, uri, name, value string
}

type openElem struct {
	event        int32 // index of the evBegin event
	aStart, aEnd int32 // attribute span in the arena
	childStruct  bool  // has element/comment/PI child
	childText    bool  // has non-whitespace text child
	hasContent   bool  // has any child event
}

// ByteEmitter records result-construction events on a flat tape and
// serializes them directly to bytes. The indent decision for an element
// (whether its content is "structured") needs full-children lookahead, so
// the tape is replayed after the transform completes; what it saves is the
// entire intermediate result DOM.
//
// ByteEmitter is not safe for concurrent use. Obtain instances from
// NewByteEmitter and return them with Release.
type ByteEmitter struct {
	events []emitEvent
	attrs  []emitAttr
	open   []openElem
	buf    []byte // serialization scratch, reused across Serialize calls
}

var byteEmitterPool = sync.Pool{New: func() any { return new(ByteEmitter) }}

// NewByteEmitter returns an empty emitter from the pool.
func NewByteEmitter() *ByteEmitter {
	return byteEmitterPool.Get().(*ByteEmitter)
}

// Release resets the emitter and returns it to the pool. The emitter must
// not be used afterwards; byte slices returned by Serialize remain valid.
func (b *ByteEmitter) Release() {
	clear(b.events) // drop string references so pooled tapes don't pin memory
	clear(b.attrs)
	b.events = b.events[:0]
	b.attrs = b.attrs[:0]
	b.open = b.open[:0]
	b.buf = b.buf[:0]
	byteEmitterPool.Put(b)
}

func (b *ByteEmitter) top() *openElem {
	if len(b.open) == 0 {
		return nil
	}
	return &b.open[len(b.open)-1]
}

func (b *ByteEmitter) noteChild(structural bool) {
	if p := b.top(); p != nil {
		p.hasContent = true
		if structural {
			p.childStruct = true
		}
	}
}

func (b *ByteEmitter) BeginElement(prefix, uri, name string) {
	b.noteChild(true)
	b.events = append(b.events, emitEvent{kind: evBegin, s1: prefix, s2: uri, s3: name})
	n := int32(len(b.attrs))
	b.open = append(b.open, openElem{event: int32(len(b.events) - 1), aStart: n, aEnd: n})
}

func (b *ByteEmitter) Attr(prefix, uri, name, value string) bool {
	p := b.top()
	if p == nil {
		return false
	}
	for i := p.aStart; i < p.aEnd; i++ {
		a := &b.attrs[i]
		if a.name == name && a.uri == uri {
			a.prefix = prefix
			a.value = value
			return true
		}
	}
	if int(p.aEnd) != len(b.attrs) {
		// A nested element claimed the arena tail; relocate this span so it
		// stays contiguous (attributes set after child content — rare).
		start := int32(len(b.attrs))
		b.attrs = append(b.attrs, b.attrs[p.aStart:p.aEnd]...)
		p.aStart = start
		p.aEnd = int32(len(b.attrs))
	}
	b.attrs = append(b.attrs, emitAttr{prefix: prefix, uri: uri, name: name, value: value})
	p.aEnd++
	return true
}

func (b *ByteEmitter) EndElement() {
	n := len(b.open)
	if n == 0 {
		return
	}
	p := b.open[n-1]
	b.open = b.open[:n-1]
	ev := &b.events[p.event]
	ev.a0, ev.a1 = p.aStart, p.aEnd
	if p.hasContent {
		ev.flags |= efHasContent
	}
	if p.childStruct && !p.childText {
		ev.flags |= efStructured
	}
	b.events = append(b.events, emitEvent{kind: evEnd})
}

func (b *ByteEmitter) Text(data string, raw bool) {
	if p := b.top(); p != nil {
		p.hasContent = true
		if !p.childText && strings.TrimSpace(data) != "" {
			p.childText = true
		}
	}
	var fl uint8
	if raw {
		fl = efRaw
	}
	b.events = append(b.events, emitEvent{kind: evText, flags: fl, s1: data})
}

func (b *ByteEmitter) Comment(data string) {
	b.noteChild(true)
	b.events = append(b.events, emitEvent{kind: evComment, s1: data})
}

func (b *ByteEmitter) PI(name, data string) {
	b.noteChild(true)
	b.events = append(b.events, emitEvent{kind: evPI, s1: name, s2: data})
}

func (b *ByteEmitter) CopyTree(n *Node) {
	switch n.Type {
	case ElementNode:
		b.BeginElement(n.Prefix, n.URI, n.Name)
		for _, a := range n.Attr {
			b.Attr(a.Prefix, a.URI, a.Name, a.Data)
		}
		for _, c := range n.Children {
			b.CopyTree(c)
		}
		b.EndElement()
	case TextNode:
		b.Text(n.Data, n.Raw)
	case CommentNode:
		b.Comment(n.Data)
	case PINode:
		b.PI(n.Name, n.Data)
	case DocumentNode:
		for _, c := range n.Children {
			b.CopyTree(c)
		}
	}
}

func (b *ByteEmitter) OpenElement() bool { return len(b.open) > 0 }

// RootElement returns the name and namespace URI of the first top-level
// element on the tape, for output-method auto-detection.
func (b *ByteEmitter) RootElement() (name, uri string, ok bool) {
	for i := range b.events {
		if b.events[i].kind == evBegin {
			return b.events[i].s3, b.events[i].s2, true
		}
	}
	return "", "", false
}

// Serialize replays the tape according to opts and returns the rendered
// bytes. The returned slice is an exact-size copy owned by the caller; the
// internal scratch buffer is retained for reuse. This replay is the only
// serializer: the package-level Serialize copies a tree onto a tape and
// renders it here. Under Indent every top-level node is followed by a
// newline.
func (b *ByteEmitter) Serialize(opts WriteOptions) []byte {
	if opts.Method == "" {
		opts.Method = "xml"
	}
	out := b.buf[:0]
	if opts.Method == "text" {
		for i := range b.events {
			if b.events[i].kind == evText {
				out = append(out, b.events[i].s1...)
			}
		}
	} else {
		out = b.replayDoc(out, &opts)
	}
	b.buf = out
	res := make([]byte, len(out))
	copy(res, out)
	return res
}

func (b *ByteEmitter) replayDoc(out []byte, opts *WriteOptions) []byte {
	if opts.Method == "xml" && !opts.OmitDecl {
		out = append(out, "<?xml version=\"1.0\" encoding=\"UTF-8\"?>"...)
		if opts.Indent != "" {
			out = append(out, '\n')
		}
	}
	out = b.replayDoctype(out, opts)
	for i := 0; i < len(b.events); {
		i, out = b.replayNode(i, 0, false, out, opts)
		if opts.Indent != "" {
			out = append(out, '\n')
		}
	}
	return out
}

func (b *ByteEmitter) replayDoctype(out []byte, opts *WriteOptions) []byte {
	pub, sys := opts.DoctypePublic, opts.DoctypeSystem
	if pub == "" && sys == "" {
		return out
	}
	root := -1
	for i := range b.events {
		if b.events[i].kind == evBegin {
			root = i
			break
		}
	}
	if root < 0 {
		return out
	}
	out = append(out, "<!DOCTYPE "...)
	out = appendFullName(out, b.events[root].s1, b.events[root].s3)
	if pub != "" {
		out = append(out, " PUBLIC \""...)
		out = append(out, pub...)
		out = append(out, '"')
		if sys != "" {
			out = append(out, " \""...)
			out = append(out, sys...)
			out = append(out, '"')
		}
	} else {
		out = append(out, " SYSTEM \""...)
		out = append(out, sys...)
		out = append(out, '"')
	}
	out = append(out, '>')
	if opts.Indent != "" {
		out = append(out, '\n')
	}
	return out
}

func appendFullName(out []byte, prefix, name string) []byte {
	if prefix != "" {
		out = append(out, prefix...)
		out = append(out, ':')
	}
	return append(out, name...)
}

func appendIndent(out []byte, depth int, unit string) []byte {
	out = append(out, '\n')
	for i := 0; i < depth; i++ {
		out = append(out, unit...)
	}
	return out
}

// replayNode renders the node event at index i and returns the index of the
// first event past it.
func (b *ByteEmitter) replayNode(i, depth int, inRaw bool, out []byte, opts *WriteOptions) (int, []byte) {
	ev := &b.events[i]
	switch ev.kind {
	case evBegin:
		return b.replayElement(i, depth, out, opts)
	case evText:
		if inRaw || ev.flags&efRaw != 0 {
			out = append(out, ev.s1...)
		} else {
			out = appendEscText(out, ev.s1)
		}
	case evComment:
		out = append(out, "<!--"...)
		out = append(out, ev.s1...)
		out = append(out, "-->"...)
	case evPI:
		out = append(out, "<?"...)
		out = append(out, ev.s1...)
		if ev.s2 != "" {
			out = append(out, ' ')
			out = append(out, ev.s2...)
		}
		out = append(out, "?>"...)
	case evEnd:
		// Unbalanced tape; skip defensively.
	}
	return i + 1, out
}

func (b *ByteEmitter) replayElement(i, depth int, out []byte, opts *WriteOptions) (int, []byte) {
	ev := &b.events[i]
	html := opts.Method == "html" && ev.s2 == ""
	out = append(out, '<')
	out = appendFullName(out, ev.s1, ev.s3)
	for _, a := range b.attrs[ev.a0:ev.a1] {
		out = append(out, ' ')
		out = appendFullName(out, a.prefix, a.name)
		out = append(out, '=', '"')
		out = appendEscAttr(out, a.value)
		out = append(out, '"')
	}
	if ev.flags&efHasContent == 0 {
		if html {
			if htmlVoid[strings.ToLower(ev.s3)] {
				out = append(out, '>')
				return i + 2, out // skip the evEnd
			}
			out = append(out, '>', '<', '/')
			out = appendFullName(out, ev.s1, ev.s3)
			out = append(out, '>')
			return i + 2, out
		}
		out = append(out, '/', '>')
		return i + 2, out
	}
	out = append(out, '>')
	raw := html && htmlRawText[strings.ToLower(ev.s3)]
	structured := opts.Indent != "" && ev.flags&efStructured != 0
	j := i + 1
	for {
		if b.events[j].kind == evEnd {
			j++
			break
		}
		if structured {
			if b.events[j].kind == evText {
				j++ // whitespace-only: replaced by indentation
				continue
			}
			out = appendIndent(out, depth+1, opts.Indent)
		}
		j, out = b.replayNode(j, depth+1, raw, out, opts)
	}
	if structured {
		out = appendIndent(out, depth, opts.Indent)
	}
	out = append(out, '<', '/')
	out = appendFullName(out, ev.s1, ev.s3)
	out = append(out, '>')
	return j, out
}
