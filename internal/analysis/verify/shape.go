package verify

import (
	"fmt"
	"sort"
	"strings"

	"goldweb/internal/xmldom"
	"goldweb/internal/xslt"
)

// Result-shape analysis: an abstract interpretation of the program's
// emit opcodes (segment tapes included, decoded event by event) that
// tracks the stack of open result elements along every control path and
// lints the inferred shape:
//
//	GW502  attribute emitted after child content of the same element
//	GW503  the same attribute name definitely emitted twice
//	GW504  an HTML void element given children          (html output only)
//	GW505  raw-text (<script>/<style>) content hazards  (html output only)
//
// Each open element is a frame in the abstract state; frames carry a
// must/may content pair and the set of definitely-emitted attribute
// names. Joins meet pointwise — "definitely has content" survives a
// join only when every path agrees (AND), "may have content" when any
// does (OR), and the definite-attribute sets intersect — so a
// conditional branch or a for-each that can run zero times never
// produces a false "attribute after content". The analysis is a
// worklist fixpoint; findings are collected in a second pass over the
// stable states, so a must-fact weakened by a later join can never
// leave a premature finding behind.

// Frame kinds of the shape stack. Elements are the interesting case;
// capture frames (attribute/comment/PI/message value construction and
// result-tree fragments) and sub-document frames absorb the content
// produced inside them.
const (
	shElem    = 'e'
	shAttr    = 'a'
	shComment = 'c'
	shPI      = 'p'
	shMsg     = 'm'
	shRTF     = 'r'
	shDoc     = 'd'
)

// shpFrame is one open construct in the abstract result stack.
type shpFrame struct {
	kind byte
	// name is the static local name ("" when computed at run time). For
	// shAttr frames it is the pending attribute's name.
	name string
	uri  string
	pc   int  // the begin pc, for reporting and join identity
	html bool // the HTML content model applies to this element
	void bool
	raw  bool
	def  bool // definitely has child content (every path)
	may  bool // may have child content (some path)
	// attrs is the set of definitely-emitted attribute keys (uri|name).
	attrs map[string]bool
}

type shpState struct{ frames []shpFrame }

func (s *shpState) clone() *shpState {
	out := &shpState{frames: make([]shpFrame, len(s.frames))}
	copy(out.frames, s.frames)
	for i := range out.frames {
		if a := out.frames[i].attrs; a != nil {
			c := make(map[string]bool, len(a))
			for k := range a {
				c[k] = true
			}
			out.frames[i].attrs = c
		}
	}
	return out
}

func (s *shpState) top() *shpFrame {
	if len(s.frames) == 0 {
		return nil
	}
	return &s.frames[len(s.frames)-1]
}

func (s *shpState) pop(kind byte) *shpFrame {
	t := s.top()
	if t == nil || t.kind != kind {
		return nil
	}
	f := *t
	s.frames = s.frames[:len(s.frames)-1]
	return &f
}

// meet joins two states reaching the same pc. Frames must agree on
// (kind, pc) — they always do for states produced from the same
// balanced bytecode; nil means the shapes are incompatible and the edge
// is dropped (the structural verifier owns that diagnosis).
func meet(a, b *shpState) *shpState {
	if len(a.frames) != len(b.frames) {
		return nil
	}
	out := a.clone()
	for i := range out.frames {
		fa, fb := &out.frames[i], &b.frames[i]
		if fa.kind != fb.kind || fa.pc != fb.pc {
			return nil
		}
		fa.def = fa.def && fb.def
		fa.may = fa.may || fb.may
		if fa.attrs != nil {
			for k := range fa.attrs {
				if !fb.attrs[k] {
					delete(fa.attrs, k)
				}
			}
		}
	}
	return out
}

func statesEqual(a, b *shpState) bool {
	if len(a.frames) != len(b.frames) {
		return false
	}
	for i := range a.frames {
		fa, fb := &a.frames[i], &b.frames[i]
		if fa.kind != fb.kind || fa.pc != fb.pc || fa.def != fb.def || fa.may != fb.may ||
			len(fa.attrs) != len(fb.attrs) {
			return false
		}
		for k := range fa.attrs {
			if !fb.attrs[k] {
				return false
			}
		}
	}
	return true
}

// shaper is the analysis driver.
type shaper struct {
	p       *xslt.Program
	code    []xslt.Instr
	htmlOut bool
	state   map[int]*shpState
	work    []int
	report  bool
	seen    map[string]bool
	out     []Finding
}

// Shape runs the result-shape analysis over a structurally valid
// program and returns the GW502–GW505 findings, annotated with their
// owning templates. Structurally broken programs yield nil — the
// GW501 checks own those.
func Shape(p *xslt.Program) []Finding {
	im := Capture(p)
	for _, f := range im.Check() {
		if !f.Warning {
			return nil
		}
	}
	sa := &shaper{
		p:       p,
		code:    im.Code,
		htmlOut: p.Output().Method == "html",
		state:   make(map[int]*shpState),
		seen:    make(map[string]bool),
	}

	// Phase 1: worklist fixpoint over the abstract states.
	sa.flow(0, &shpState{})
	for _, e := range im.Entries {
		sa.flow(e, &shpState{})
	}
	for len(sa.work) > 0 {
		pc := sa.work[len(sa.work)-1]
		sa.work = sa.work[:len(sa.work)-1]
		sa.step(pc, sa.state[pc])
	}

	// Phase 2: re-run the transfer functions against the stable states
	// with reporting on. Findings are deduplicated and pc-ordered.
	sa.report = true
	pcs := make([]int, 0, len(sa.state))
	for pc := range sa.state {
		pcs = append(pcs, pc)
	}
	sort.Ints(pcs)
	for _, pc := range pcs {
		sa.step(pc, sa.state[pc])
	}

	attachOwners(p, sa.out)
	return sa.out
}

// flow merges a state into a successor pc and requeues it on change.
// During the reporting pass it does nothing: the states are stable.
func (sa *shaper) flow(pc int, st *shpState) {
	if sa.report || pc < 0 || pc >= len(sa.code) {
		return
	}
	have, ok := sa.state[pc]
	if !ok {
		sa.state[pc] = st.clone()
		sa.work = append(sa.work, pc)
		return
	}
	merged := meet(have, st)
	if merged == nil || statesEqual(merged, have) {
		return
	}
	sa.state[pc] = merged
	sa.work = append(sa.work, pc)
}

func (sa *shaper) finding(code string, pc int, format string, args ...interface{}) {
	if !sa.report {
		return
	}
	msg := fmt.Sprintf(format, args...)
	key := fmt.Sprintf("%s@%d:%s", code, pc, msg)
	if sa.seen[key] {
		return
	}
	sa.seen[key] = true
	sa.out = append(sa.out, Finding{Code: code, Msg: msg, PC: pc, Warning: true})
}

func displayName(f *shpFrame) string {
	if f.name == "" {
		return "(computed name)"
	}
	return f.name
}

// markContent records child content on the innermost open element.
// definite=false is a may-fact (conditional constructs, apply/call whose
// output is unknown). structured=true means the content is a node, not
// text, which matters only for the raw-text hazard.
func (sa *shaper) markContent(st *shpState, pc int, definite, structured bool) {
	t := st.top()
	if t == nil || t.kind != shElem {
		return // absorbed by a capture/doc frame, or depth 0 (unknown parent)
	}
	if t.void && t.html {
		// Reported at the element's begin pc so one offending element
		// yields one finding however many content sites it has.
		sa.finding(CodeVoidContent, t.pc,
			"<%s> is an HTML void element but is given child content", displayName(t))
	}
	if t.raw && t.html && structured && definite {
		sa.finding(CodeRawTextHazard, pc,
			"node content inside raw-text element <%s> cannot be serialized as HTML", displayName(t))
	}
	if definite {
		t.def = true
	}
	t.may = true
}

// text records character content, with the raw-text "</" hazard check.
func (sa *shaper) text(st *shpState, pc int, data string) {
	if data == "" {
		return
	}
	if t := st.top(); t != nil && t.kind == shElem && t.raw && t.html &&
		strings.Contains(data, "</") {
		sa.finding(CodeRawTextHazard, pc,
			`text inside raw-text element <%s> contains "</", which HTML output does not escape`, displayName(t))
	}
	sa.markContent(st, pc, true, false)
}

// beginElem records an element child and opens its frame.
func (sa *shaper) beginElem(st *shpState, pc int, uri, name string, static bool) {
	sa.markContent(st, pc, true, true)
	f := shpFrame{kind: shElem, pc: pc, attrs: map[string]bool{}}
	if static {
		f.name, f.uri = name, uri
		if sa.htmlOut && uri == "" {
			lower := strings.ToLower(name)
			f.html = true
			f.void = xmldom.HTMLVoid(lower)
			f.raw = xmldom.HTMLRawText(lower)
		}
	}
	st.frames = append(st.frames, f)
}

// attr records an attribute on the innermost open element: emitted after
// definite child content → GW502; name already definitely present →
// GW503. Dynamic names (computed xsl:attribute) are tracked as content
// ordering only.
func (sa *shaper) attr(st *shpState, pc int, uri, name string) {
	t := st.top()
	if t == nil || t.kind != shElem {
		return // depth 0: the receiving element is outside this body
	}
	if t.def {
		sa.finding(CodeAttrAfterContent, pc,
			"attribute %q is emitted after child content of <%s>", name, displayName(t))
	}
	if name == "" || strings.Contains(name, ":") {
		return
	}
	key := uri + "|" + name
	if t.attrs[key] {
		sa.finding(CodeDuplicateAttr, pc,
			"attribute %q is emitted twice on <%s>; the second value overwrites the first", name, displayName(t))
	}
	t.attrs[key] = true
}

// step applies one instruction's transfer function to its entry state
// and flows the results to its successors.
func (sa *shaper) step(pc int, in *shpState) {
	st := in.clone()
	instr := sa.code[pc]
	next := func() { sa.flow(pc+1, st) }
	switch instr.Op {
	case xslt.OpHalt, xslt.OpRet:
		// No successors; any open frames belong to enclosing bodies the
		// verifier cannot see, so nothing to check.
	case xslt.OpJmp:
		sa.flow(int(instr.A), st)
	case xslt.OpTest:
		sa.flow(int(instr.B), st.clone())
		next()
	case xslt.OpSeg:
		seg := segShaper{sa: sa, st: st, pc: pc}
		sa.p.Seg(int(instr.A)).Replay(&seg)
		next()
	case xslt.OpText:
		sa.text(st, pc, sa.p.StrAt(int(instr.A)))
		next()
	case xslt.OpValueOf, xslt.OpCopyOf:
		sa.markContent(st, pc, false, false)
		next()
	case xslt.OpNumber:
		sa.markContent(st, pc, true, false)
		next()
	case xslt.OpLitBegin:
		_, uri, name := sa.p.LitNameAt(int(instr.A))
		sa.beginElem(st, pc, uri, name, true)
		next()
	case xslt.OpElemBegin:
		name, ok := sa.p.ElemSiteStatic(int(instr.A))
		if ok && !strings.Contains(name, ":") {
			sa.beginElem(st, pc, "", name, true)
		} else {
			sa.beginElem(st, pc, "", "", false)
		}
		next()
	case xslt.OpEndElem:
		st.pop(shElem)
		next()
	case xslt.OpLitAttr:
		_, uri, name, _ := sa.p.LitAttrAt(int(instr.A))
		sa.attr(st, pc, uri, name)
		next()
	case xslt.OpAVTAttr:
		_, uri, name := sa.p.AVTAttrAt(int(instr.A))
		sa.attr(st, pc, uri, name)
		next()
	case xslt.OpAttrSets:
		// Attribute-set contents are merged at run time; their names are
		// out of scope for the definite-attribute set.
		next()
	case xslt.OpAttrBegin:
		name, _ := sa.p.AVTStatic(int(instr.A))
		st.frames = append(st.frames, shpFrame{kind: shAttr, name: name, pc: pc})
		next()
	case xslt.OpAttrEnd:
		if f := st.pop(shAttr); f != nil {
			sa.attr(st, pc, "", f.name)
		}
		next()
	case xslt.OpCommentBegin:
		st.frames = append(st.frames, shpFrame{kind: shComment, pc: pc})
		next()
	case xslt.OpCommentEnd:
		if st.pop(shComment) != nil {
			sa.markContent(st, pc, true, true)
		}
		next()
	case xslt.OpPIBegin:
		st.frames = append(st.frames, shpFrame{kind: shPI, pc: pc})
		next()
	case xslt.OpPIEnd:
		if st.pop(shPI) != nil {
			sa.markContent(st, pc, true, true)
		}
		next()
	case xslt.OpMsgBegin:
		st.frames = append(st.frames, shpFrame{kind: shMsg, pc: pc})
		next()
	case xslt.OpMsgEnd:
		st.pop(shMsg)
		next()
	case xslt.OpRTFBegin:
		st.frames = append(st.frames, shpFrame{kind: shRTF, pc: pc})
		next()
	case xslt.OpRTFEnd:
		st.pop(shRTF)
		next()
	case xslt.OpDocBegin:
		if instr.B != 0 {
			// Doc skip: the body is jumped over, the output state unchanged.
			sa.flow(int(instr.B), st.clone())
		}
		st.frames = append(st.frames, shpFrame{kind: shDoc, pc: pc})
		next()
	case xslt.OpDocEnd:
		st.pop(shDoc)
		next()
	case xslt.OpCopyBegin:
		// Leaf branch: the copied node is text/comment/PI, nothing opens.
		leaf := st.clone()
		sa.markContent(leaf, pc, false, false)
		sa.flow(int(instr.B), leaf)
		// Element branch: an element of unknown name opens.
		sa.beginElem(st, pc, "", "", false)
		st.top().may = true // copied source attributes/children are unknown
		next()
	case xslt.OpCopyEnd:
		st.pop(shElem)
		next()
	case xslt.OpApply:
		sa.markContent(st, pc, false, false)
		next()
	case xslt.OpIterate:
		sa.flow(int(instr.B), st)
	case xslt.OpApplyImports, xslt.OpInvoke:
		sa.markContent(st, pc, false, false)
		next()
	case xslt.OpParam, xslt.OpGlobalParam:
		sa.flow(int(instr.B), st.clone())
		next()
	case xslt.OpForNext:
		sa.flow(int(instr.B), st.clone())
		next()
	case xslt.OpForEnd:
		sa.flow(int(instr.A), st)
	default:
		// OpForEach, OpCall, OpEnter, OpParamsEnd,
		// OpVarDecl and other control opcodes do not touch the result
		// shape.
		next()
	}
}

// segShaper replays a pre-serialized segment tape into the abstract
// state. Segments are event runs, not trees — an element opened in one
// segment may be closed instructions later — so every event mutates the
// live frame stack exactly like its opcode counterpart.
type segShaper struct {
	sa *shaper
	st *shpState
	pc int
}

func (e *segShaper) BeginElement(prefix, uri, name string) {
	e.sa.beginElem(e.st, e.pc, uri, name, true)
}
func (e *segShaper) Attr(prefix, uri, name, value string) bool {
	e.sa.attr(e.st, e.pc, uri, name)
	return true
}
func (e *segShaper) EndElement()                { e.st.pop(shElem) }
func (e *segShaper) Text(data string, raw bool) { e.sa.text(e.st, e.pc, data) }
func (e *segShaper) Comment(data string)        { e.sa.markContent(e.st, e.pc, true, true) }
func (e *segShaper) PI(name, data string)       { e.sa.markContent(e.st, e.pc, true, true) }
func (e *segShaper) CopyTree(n *xmldom.Node)    { e.sa.markContent(e.st, e.pc, false, false) }
func (e *segShaper) OpenElement() bool {
	t := e.st.top()
	return t != nil && t.kind == shElem
}
