package xslt

import (
	"fmt"
	"strings"

	"goldweb/internal/xmldom"
	"goldweb/internal/xpath"
)

// BufferResult is the outcome of a full transformation: every output
// document (principal and xsl:document) rendered to bytes by the event-tape
// emitter, with no intermediate result DOM, and the messages emitted with
// xsl:message.
type BufferResult struct {
	Main []byte
	// Documents maps each href of DocumentOrder to its rendered
	// xsl:document bytes.
	Documents     map[string][]byte
	DocumentOrder []string
	Messages      []string
}

// PageResult is the outcome of a targeted run (TransformPage): one
// output document rendered to bytes, plus what the run learned about the
// others.
type PageResult struct {
	// Page is the target document rendered per the output specification,
	// byte-identical to the same document of a full run; nil unless Found.
	Page []byte
	// Found reports whether the run produced the target: always for the
	// principal output, and for an xsl:document href when the run
	// evaluated that href.
	Found bool
	// DocumentOrder lists every xsl:document href the run evaluated, in
	// first-evaluation order — the DocumentOrder of a full run.
	DocumentOrder []string
	// Messages holds the xsl:message output of the bodies the run
	// executed; skipped bodies report none.
	Messages []string
}

// serializeEmitter renders a finished event tape per the output spec,
// applying the XSLT 1.0 §16 html-method auto-detection when the method was
// not declared explicitly.
func serializeEmitter(be *xmldom.ByteEmitter, spec OutputSpec) []byte {
	method := spec.Method
	if !spec.MethodExplicit {
		if name, uri, ok := be.RootElement(); ok &&
			strings.EqualFold(name, "html") && uri == "" {
			method = "html"
		}
	}
	opts := xmldom.WriteOptions{
		Method:        method,
		OmitDecl:      spec.OmitDecl || method != "xml",
		DoctypePublic: spec.DoctypePublic,
		DoctypeSystem: spec.DoctypeSystem,
	}
	if spec.Indent {
		opts.Indent = "  "
	}
	return be.Serialize(opts)
}

// TransformError reports a runtime transformation failure.
type TransformError struct {
	Msg string
}

func (e *TransformError) Error() string { return "xslt: " + e.Msg }

// xctx is the execution context of the transformation.
type xctx struct {
	node      *xmldom.Node
	pos, size int
	vars      map[string]xpath.Value
	mode      string
	// curPrec is the import precedence of the template rule whose body is
	// executing; xsl:apply-imports searches strictly below it.
	curPrec int
}

type engine struct {
	sheet *Stylesheet
	// targeted marks a TransformPage run rendering only target: the
	// principal output when target is "", else that xsl:document href.
	targeted bool
	target   string
	// docNums numbers documents in first-seen order so that
	// generate-id() is a pure function of (document, stamp) —
	// deterministic across runs, no per-node map growth.
	docNums  map[*xmldom.DocIndex]int
	keyIdx   map[*xmldom.Node]map[string]map[string][]*xmldom.Node
	funcs    map[string]xpath.Function
	docCache map[string]*xmldom.Node
	messages []string
	// xsl:document sinks, created on first use per href: a ByteEmitter
	// for a rendered document, a discardSink for one a targeted run
	// leaves unrendered, and nil for an href whose bodies a targeted run
	// has only skipped so far.
	docEms   map[string]xmldom.Emitter
	docOrder []string
}

func newEngine(s *Stylesheet) *engine {
	// The per-run maps are created on first use: most runs never call
	// generate-id(), key() or document().
	e := &engine{sheet: s}
	e.installFunctions()
	return e
}

// docBuf returns the tape of a rendered xsl:document href, or nil.
func (e *engine) docBuf(href string) *xmldom.ByteEmitter {
	be, _ := e.docEms[href].(*xmldom.ByteEmitter)
	return be
}

// release returns the xsl:document tapes to their pool.
func (e *engine) release() {
	for _, em := range e.docEms {
		if be, ok := em.(*xmldom.ByteEmitter); ok {
			be.Release()
		}
	}
}

// prepSource wraps a non-document source in an engine-owned document and
// applies xsl:strip-space (on a clone) when the stylesheet requests it,
// then freezes the tree the run reads: the evaluators work on frozen
// trees only. A document source used as is is frozen in place.
func (s *Stylesheet) prepSource(source *xmldom.Node) *xmldom.Node {
	if source.Type != xmldom.DocumentNode {
		root := xmldom.NewDocument()
		root.AppendChild(source.Clone())
		source = root
	} else if len(s.strip) > 0 {
		source = source.Clone()
		s.stripSourceSpace(source)
	}
	xmldom.Freeze(source)
	return source
}

// TransformToBuffers applies the stylesheet to a source document and
// renders every output document (principal and xsl:document) straight to
// bytes from the instruction stream, with no intermediate result DOM.
// params provides values for global xsl:param declarations. A source
// document is frozen in place (xmldom.Freeze) unless the stylesheet
// strips whitespace, which operates on a frozen clone; its content is
// never modified. A frozen source document and a compiled Stylesheet
// may be shared by concurrent runs — all per-run state lives in the
// engine — but an unfrozen one must be frozen before it is shared.
func (s *Stylesheet) TransformToBuffers(source *xmldom.Node, params map[string]xpath.Value) (*BufferResult, error) {
	source = s.prepSource(source)
	e := newEngine(s)
	defer e.release()
	be := xmldom.NewByteEmitter()
	defer be.Release()
	if err := s.prog.execute(e, source, params, be); err != nil {
		return nil, err
	}
	res := &BufferResult{
		Main:          serializeEmitter(be, s.output),
		DocumentOrder: e.docOrder,
		Messages:      e.messages,
	}
	if len(e.docEms) > 0 {
		res.Documents = make(map[string][]byte, len(e.docEms))
		for _, href := range e.docOrder {
			res.Documents[href] = serializeEmitter(e.docBuf(href), s.output)
		}
	}
	return res, nil
}

// TransformPage is a targeted run: it renders one output document of
// the transformation, byte-identical to that document of a full
// TransformToBuffers run, without rendering the others. An empty href
// names the principal output; otherwise href names an xsl:document (an
// xsl:document whose href is empty is never the target).
//
// Control flow runs as usual and every xsl:document evaluates its href,
// so DocumentOrder is complete. The body of an xsl:document naming
// another page is skipped when the compile-time leaf proof holds for it
// (see markLeafDocs), and otherwise runs into a discard sink, as does the
// principal output unless it is the target. A run that succeeds in full
// therefore succeeds targeted; errors and xsl:message output of skipped
// bodies are not reported. generate-id() values can differ from a full
// run's where a skipped body would have been the first to number a
// document. The source is prepared, and frozen, as for
// TransformToBuffers.
func (s *Stylesheet) TransformPage(source *xmldom.Node, params map[string]xpath.Value, href string) (*PageResult, error) {
	source = s.prepSource(source)
	e := newEngine(s)
	e.targeted, e.target = true, href
	defer e.release()
	var main xmldom.Emitter = &discardSink{}
	var be *xmldom.ByteEmitter
	if href == "" {
		be = xmldom.NewByteEmitter()
		defer be.Release()
		main = be
	}
	if err := s.prog.execute(e, source, params, main); err != nil {
		return nil, err
	}
	res := &PageResult{DocumentOrder: e.docOrder, Messages: e.messages}
	if be == nil {
		be = e.docBuf(href)
	}
	if be != nil {
		res.Page, res.Found = serializeEmitter(be, s.output), true
	}
	return res, nil
}

// offTarget reports whether a targeted run leaves the xsl:document href
// unrendered.
func (e *engine) offTarget(href string) bool {
	return e.targeted && (e.target == "" || href != e.target)
}

// documentOut returns the output sink for an xsl:document href, creating
// it on first use (repeated hrefs append to the same document), and
// records the href in document order. skip only records the href: the
// caller skips the body, and the sink is created if a later body runs.
func (e *engine) documentOut(href string, skip bool) xmldom.Emitter {
	em, seen := e.docEms[href]
	if !seen {
		if e.docEms == nil {
			hint := int(e.sheet.prog.docHint.Load())
			e.docEms = make(map[string]xmldom.Emitter, hint)
			e.docOrder = make([]string, 0, hint)
		}
		e.docOrder = append(e.docOrder, href)
	}
	if em != nil || skip {
		if !seen {
			e.docEms[href] = nil
		}
		return em
	}
	if e.offTarget(href) {
		em = &discardSink{}
	} else {
		em = xmldom.NewByteEmitter()
	}
	e.docEms[href] = em
	return em
}

// stripSourceSpace removes whitespace-only text nodes under elements
// selected by xsl:strip-space.
func (s *Stylesheet) stripSourceSpace(n *xmldom.Node) {
	if n.Type == xmldom.ElementNode || n.Type == xmldom.DocumentNode {
		strip := n.Type == xmldom.ElementNode && s.shouldStrip(n.Name)
		if n.Type == xmldom.ElementNode {
			if a := n.GetAttrNS(xmldom.XMLNamespace, "space"); a != nil && a.Data == "preserve" {
				strip = false
			}
		}
		kept := n.Children[:0]
		for _, c := range n.Children {
			if strip && c.Type == xmldom.TextNode && strings.TrimSpace(c.Data) == "" {
				continue
			}
			s.stripSourceSpace(c)
			kept = append(kept, c)
		}
		n.Children = kept
	}
}

// textSink collects the string value of a result-tree fragment without
// materializing it: concatenated text event data, with comments, PIs and
// attribute values excluded — exactly Node.StringValue of the equivalent
// fragment document.
type textSink struct {
	b     strings.Builder
	depth int
}

func (t *textSink) BeginElement(prefix, uri, name string) { t.depth++ }
func (t *textSink) Attr(prefix, uri, name, value string) bool {
	return t.depth > 0
}
func (t *textSink) EndElement() {
	if t.depth > 0 {
		t.depth--
	}
}
func (t *textSink) Text(data string, raw bool) { t.b.WriteString(data) }
func (t *textSink) Comment(data string)        {}
func (t *textSink) PI(name, data string)       {}
func (t *textSink) CopyTree(n *xmldom.Node) {
	switch n.Type {
	case xmldom.TextNode:
		t.b.WriteString(n.Data)
	case xmldom.ElementNode, xmldom.DocumentNode:
		for _, c := range n.Children {
			t.CopyTree(c)
		}
	}
}
func (t *textSink) OpenElement() bool { return t.depth > 0 }

// discardSink drops the events of an output a targeted run does not
// render. It tracks element depth only, so Attr and OpenElement answer
// exactly as the real sink would and xsl:attribute fails or succeeds as
// in a full run.
type discardSink struct{ depth int }

func (d *discardSink) BeginElement(prefix, uri, name string) { d.depth++ }
func (d *discardSink) Attr(prefix, uri, name, value string) bool {
	return d.depth > 0
}
func (d *discardSink) EndElement() {
	if d.depth > 0 {
		d.depth--
	}
}
func (d *discardSink) Text(data string, raw bool) {}
func (d *discardSink) Comment(data string)        {}
func (d *discardSink) PI(name, data string)       {}
func (d *discardSink) CopyTree(n *xmldom.Node)    {}
func (d *discardSink) OpenElement() bool          { return d.depth > 0 }

func copyVars(m map[string]xpath.Value) map[string]xpath.Value {
	cp := make(map[string]xpath.Value, len(m)+4)
	for k, v := range m {
		cp[k] = v
	}
	return cp
}

const maxInt = int(^uint(0) >> 1)

// formatCounter renders n using an xsl:number format token: 1, 01, a, A,
// i, I.
func formatCounter(n int, format string) string {
	switch format {
	case "a", "A":
		if n <= 0 {
			return fmt.Sprintf("%d", n)
		}
		var b []byte
		for n > 0 {
			n--
			b = append([]byte{byte('a' + n%26)}, b...)
			n /= 26
		}
		s := string(b)
		if format == "A" {
			s = strings.ToUpper(s)
		}
		return s
	case "i", "I":
		s := toRoman(n)
		if format == "I" {
			return strings.ToUpper(s)
		}
		return s
	default:
		// Zero-padded decimal formats such as "01".
		if len(format) > 1 && strings.Trim(format, "0123456789") == "" {
			return fmt.Sprintf("%0*d", len(format), n)
		}
		return fmt.Sprintf("%d", n)
	}
}

func toRoman(n int) string {
	if n <= 0 || n >= 5000 {
		return fmt.Sprintf("%d", n)
	}
	vals := []struct {
		v int
		s string
	}{{1000, "m"}, {900, "cm"}, {500, "d"}, {400, "cd"}, {100, "c"}, {90, "xc"},
		{50, "l"}, {40, "xl"}, {10, "x"}, {9, "ix"}, {5, "v"}, {4, "iv"}, {1, "i"}}
	var b strings.Builder
	for _, kv := range vals {
		for n >= kv.v {
			b.WriteString(kv.s)
			n -= kv.v
		}
	}
	return b.String()
}
