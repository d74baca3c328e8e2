package xslt

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"

	"goldweb/internal/xmldom"
	"goldweb/internal/xpath"
)

// The stylesheet bytecode: CompileStylesheet lowers the compiled
// instruction tree into one flat program per stylesheet, executed by the
// VM in vm.go on the frame stack shared with the XPath expression VM
// (xpath.Frame). The VM is the only XSLT engine:
//
//   - template dispatch is a jump table: the per-mode match-class index
//     (precedence-resolved at compile time) narrows the candidate rules,
//     and the winning rule's body is entered by pc, not by Go call;
//   - maximal static literal runs (literal text and literal elements
//     whose attributes carry no expressions) collapse into single
//     pre-serialized segments (xmldom.Segment) appended to the
//     ByteEmitter tape with one bulk copy;
//   - apply-templates / for-each / call-template are VM loops and calls
//     on one pooled control stack — no per-node Go recursion and no
//     boxed per-evaluation contexts;
//   - value-producing bodies lower too: result-tree fragments (variable,
//     global, with-param and parameter-default content) are output
//     captures into a fresh document, and each attribute set is a
//     subroutine that the use-attribute-sets lists call in order.
//
// The outputs of the tree-walking engine this VM replaced are frozen in
// testdata/transforms.golden and testdata/fuzz.golden.

// Opcode is a stylesheet bytecode opcode.
type Opcode uint8

const (
	OpHalt         Opcode = iota
	OpRet                 // return from a template body (apply iteration or call)
	OpJmp                 // a: target pc
	OpTest                // a: expr; b: target pc when the test is false
	OpSeg                 // a: segment — bulk-append a pre-serialized literal run
	OpText                // a: string; b: 1 = disable output escaping
	OpValueOf             // a: expr; b: 1 = disable output escaping
	OpLitBegin            // a: literal element name
	OpAttrSets            // a: name list — apply xsl:use-attribute-sets
	OpLitAttr             // a: literal attribute with a static value
	OpAVTAttr             // a: literal attribute with an AVT value
	OpEndElem             // close the open element (literal, xsl:element)
	OpApply               // a: apply site — push the loop frame (falls into OpIterate)
	OpIterate             // a: apply site; b: exit pc — dispatch next node or exit
	OpForEach             // a: for-each site — push the loop frame
	OpForNext             // b: exit pc — advance the iteration or exit
	OpForEnd              // a: loop-head pc (its OpForNext)
	OpCall                // a: call site — push a call frame, jump to the template
	OpApplyImports        // dispatch below the current precedence, call frame
	OpEnter               // a: template — bind parameters, set import precedence
	OpScopeBegin          // copy-on-write variable scope for a body with xsl:variable
	OpScopeEnd
	OpVarDecl      // a: variable declaration — evaluate and bind
	OpElemBegin    // a: element site — computed name + attribute sets
	OpAttrBegin    // a: name AVT — begin capturing an attribute value
	OpAttrEnd      //
	OpCommentBegin // begin capturing a comment body
	OpCommentEnd   //
	OpPIBegin      // a: name AVT — begin capturing a PI body
	OpPIEnd        //
	OpMsgBegin     // begin capturing an xsl:message body
	OpMsgEnd       // a: 1 = terminate
	OpDocBegin     // a: href AVT — redirect output to an xsl:document sink; b: pc past its OpDocEnd when the body is a leaf (doc skip), else 0
	OpDocEnd       //
	OpCopyBegin    // a: copy site; b: pc after OpCopyEnd (leaf-node skip)
	OpCopyEnd      //
	OpCopyOf       // a: expr
	OpNumber       // a: number site
	OpInvoke       // a: call site — jump to the template (after its with-params)
	OpParam        // a: parameter; b: pc past its default — bind the passed value or fall into the default
	OpParamsEnd    // close the parameter scope OpEnter opened and make it current
	OpGlobalParam  // a: global parameter; b: pc past its default — bind the caller's value or fall into the default
	OpRTFBegin     // begin capturing a result-tree fragment
	OpRTFEnd       // a: variable declaration; b: bind target — bind the fragment
)

// Bind targets: operand b of OpVarDecl and OpRTFEnd.
const (
	BindVar    int32 = iota // the current variable scope (locals and, in the prologue, globals)
	BindPassed              // the with-param values of the apply or call frame on top
	BindParam               // the parameter scope on top: a parameter's default value
)

var opcodeNames = [...]string{
	OpHalt: "halt", OpRet: "ret", OpJmp: "jmp", OpTest: "test", OpSeg: "seg",
	OpText: "text", OpValueOf: "value-of", OpLitBegin: "elem",
	OpAttrSets: "attr-sets", OpLitAttr: "attr", OpAVTAttr: "attr-avt",
	OpEndElem: "end-elem", OpApply: "apply", OpIterate: "iterate",
	OpForEach: "for-each", OpForNext: "for-next", OpForEnd: "for-end",
	OpCall: "call", OpApplyImports: "apply-imports", OpEnter: "enter",
	OpScopeBegin: "scope-begin", OpScopeEnd: "scope-end", OpVarDecl: "var",
	OpElemBegin: "elem-avt", OpAttrBegin: "attr-begin", OpAttrEnd: "attr-end",
	OpCommentBegin: "comment-begin", OpCommentEnd: "comment-end",
	OpPIBegin: "pi-begin", OpPIEnd: "pi-end", OpMsgBegin: "msg-begin",
	OpMsgEnd: "msg-end", OpDocBegin: "doc-begin", OpDocEnd: "doc-end",
	OpCopyBegin: "copy", OpCopyEnd: "copy-end", OpCopyOf: "copy-of",
	OpNumber: "number", OpInvoke: "invoke", OpParam: "param",
	OpParamsEnd: "params-end", OpGlobalParam: "global-param",
	OpRTFBegin: "rtf-begin", OpRTFEnd: "rtf-end",
}

var bindNames = [...]string{BindPassed: " →with-param", BindParam: " →param"}

// Instr is one bytecode instruction: an opcode plus two operands
// (side-table indexes or jump targets).
type Instr struct {
	Op   Opcode
	A, B int32
}

// applySite is the compile-time payload of one xsl:apply-templates.
type applySite struct {
	sel  *xpath.Compiled // nil → child nodes (or the context node when self)
	self bool            // root invocation: the list is [context node]
	mode string
	// disp is the mode's dispatch index, resolved at compile time so the
	// iterate loop never consults the mode map.
	disp  *templateIndex
	sorts []sortKey
}

// forSite is the payload of one xsl:for-each.
type forSite struct {
	sel   *xpath.Compiled
	sorts []sortKey
}

// bcCallSite is the payload of one xsl:call-template, with the callee
// resolved at compile time (nil when the stylesheet names a missing
// template: the error is raised when the call runs).
type bcCallSite struct {
	name string
	t    *Template
}

// elemSite is the payload of one xsl:element.
type elemSite struct {
	name *avt
}

// setList is one use-attribute-sets list, expanded at compile time the
// way the list applies: each named set's own used sets first, then the
// set itself, depth first. subs are the attribute-set subroutines to run
// in order; err is the error the expansion hits after them (a missing
// set or a cycle), if any.
type setList struct {
	names []string
	subs  []int32
	err   string
}

// progSub records one attribute-set subroutine and its entry pc.
type progSub struct {
	name  string
	entry int32
}

// litName is a literal result element name.
type litName struct {
	prefix, uri, name string
}

// litAttrOp is a literal attribute whose value template is static.
type litAttrOp struct {
	prefix, uri, name, value string
}

// avtAttrOp is a literal attribute with a computed value template.
type avtAttrOp struct {
	prefix, uri, name string
	value             *avt
}

// progTemplate records one lowered template and its entry pc.
type progTemplate struct {
	t     *Template
	entry int32
}

// Program is a compiled stylesheet lowered to flat bytecode with its
// side tables. Programs are immutable after lowering and safe for
// concurrent execution; all run state lives on the shared xpath.Frame
// and in the per-run engine.
type Program struct {
	sheet      *Stylesheet
	code       []Instr
	segs       []*xmldom.Segment
	strs       []string
	exprs      []*xpath.Compiled
	avts       []*avt
	litNames   []litName
	litAttrs   []litAttrOp
	avtAttrs   []avtAttrOp
	setLists   []*setList
	varDecls   []*compiledVar
	applySites []*applySite
	forSites   []*forSite
	callSites  []*bcCallSite
	elemSites  []*elemSite
	copySites  []int32 // set list index, -1 when the copy names no sets
	numSites   []*iNumber
	tmpls      []*progTemplate
	subs       []progSub
	// docHint is the number of xsl:document hrefs the latest run
	// evaluated: the initial capacity of the next run's document tables.
	docHint atomic.Int32
}

// CompileStylesheet compiles a stylesheet document and lowers it to
// bytecode: TransformToBuffers and TransformPage then execute the flat
// program on the shared XPath VM.
func CompileStylesheet(doc *xmldom.Node, opts CompileOptions) (*Stylesheet, error) {
	s, err := compile(doc, opts)
	if err != nil {
		return nil, err
	}
	s.prog = s.lower()
	if err := verifyLowered(s.prog); err != nil {
		return nil, err
	}
	return s, nil
}

// CompileStylesheetString parses, compiles and lowers a stylesheet from
// XML text.
func CompileStylesheetString(src string, opts CompileOptions) (*Stylesheet, error) {
	doc, err := xmldom.ParseString(src)
	if err != nil {
		return nil, err
	}
	return CompileStylesheet(doc, opts)
}

// MustCompileStylesheetString compiles an embedded, known-good
// stylesheet to bytecode.
func MustCompileStylesheetString(src string) *Stylesheet {
	s, err := CompileStylesheetString(src, CompileOptions{})
	if err != nil {
		panic(err)
	}
	return s
}

// Program returns the lowered bytecode.
func (s *Stylesheet) Program() *Program { return s.prog }

// ---- lowering ----

// asm accumulates the flat program.
type asm struct {
	s *Stylesheet
	p *Program
	// setEntry maps each attribute-set name to its subroutine entry pc.
	setEntry map[string]int32
	// docs holds the (OpDocBegin, OpDocEnd) pc pair of every xsl:document.
	docs [][2]int32
}

func (a *asm) emit(op Opcode, opa, opb int32) int {
	a.p.code = append(a.p.code, Instr{Op: op, A: opa, B: opb})
	return len(a.p.code) - 1
}

func (a *asm) patchA(pc int, target int32) { a.p.code[pc].A = target }
func (a *asm) patchB(pc int, target int32) { a.p.code[pc].B = target }
func (a *asm) here() int32                 { return int32(len(a.p.code)) }

// lower flattens the whole stylesheet into one program. The root
// prologue binds the global variables and parameters in declaration
// order and applies templates to the source root; the attribute-set
// subroutines follow (sorted by name), then the template bodies in
// deterministic order (sorted modes, precedence order within a mode,
// then named-only templates sorted by name), so disassembly is stable.
func (s *Stylesheet) lower() *Program {
	p := &Program{sheet: s}
	a := &asm{s: s, p: p, setEntry: map[string]int32{}}

	for _, d := range s.globals {
		di := a.addVarDecl(d)
		if !d.isParam {
			a.lowerValue(di, d, BindVar)
			continue
		}
		skip := a.emit(OpGlobalParam, di, 0)
		a.lowerValue(di, d, BindVar)
		a.patchB(skip, a.here())
	}
	root := &applySite{self: true, disp: s.index[""]}
	p.applySites = append(p.applySites, root)
	a.emit(OpApply, 0, a.here()+1)
	it := a.emit(OpIterate, 0, 0)
	a.patchB(it, a.here())
	a.emit(OpHalt, 0, 0)

	for _, name := range s.AttrSetNames() {
		a.setEntry[name] = a.here()
		p.subs = append(p.subs, progSub{name: name, entry: a.here()})
		a.lowerBody(s.attrSets[name].body)
		a.emit(OpRet, 0, 0)
	}

	seen := map[*Template]bool{}
	lowerT := func(t *Template) {
		if seen[t] {
			return
		}
		seen[t] = true
		a.lowerTemplate(t)
	}
	modes := make([]string, 0, len(s.templates))
	for mode := range s.templates {
		modes = append(modes, mode)
	}
	sort.Strings(modes)
	for _, mode := range modes {
		for _, t := range s.templates[mode] {
			lowerT(t)
		}
	}
	names := make([]string, 0, len(s.named))
	for name := range s.named {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		lowerT(s.named[name])
	}

	for _, sl := range p.setLists {
		a.expandSets(sl, sl.names, map[string]bool{})
	}
	a.markLeafDocs()
	return p
}

// markLeafDocs gives every OpDocBegin whose body provably reaches no
// OpDocBegin a doc-skip operand: the pc just past its OpDocEnd, where a
// targeted run (TransformPage) continues instead of running the body of
// a page it was not asked for. The proof is a conservative scan of the
// flat code: a body reaches a document when it holds an OpDocBegin, or
// invokes a template, applies templates in a mode (any rule of the mode,
// built-ins included), applies imports (any rule of any mode) or runs an
// attribute set whose code reaches one. Every template body and
// attribute-set subroutine is one contiguous region from its entry to
// the next entry; which regions reach a document is a least fixpoint.
func (a *asm) markLeafDocs() {
	if len(a.docs) == 0 {
		return
	}
	p := a.p
	entries := make([]int32, 0, len(p.tmpls)+len(p.subs))
	for _, pt := range p.tmpls {
		entries = append(entries, pt.entry)
	}
	for _, sub := range p.subs {
		entries = append(entries, sub.entry)
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i] < entries[j] })
	reaches := make(map[int32]bool, len(entries))
	for changed := true; changed; {
		changed = false
		for i, lo := range entries {
			hi := int32(len(p.code))
			if i+1 < len(entries) {
				hi = entries[i+1]
			}
			if !reaches[lo] && a.reachesDoc(lo, hi, reaches) {
				reaches[lo] = true
				changed = true
			}
		}
	}
	for _, d := range a.docs {
		if !a.reachesDoc(d[0]+1, d[1], reaches) {
			a.patchB(int(d[0]), d[1]+1)
		}
	}
}

// reachesDoc reports whether code[lo:hi] holds an OpDocBegin or transfers
// control into a region that reaches one, by the entries in reaches.
func (a *asm) reachesDoc(lo, hi int32, reaches map[int32]bool) bool {
	p := a.p
	anyRule := func(ts []*Template) bool {
		for _, t := range ts {
			if reaches[t.entryPC] {
				return true
			}
		}
		return false
	}
	anySub := func(li int32) bool {
		for _, entry := range p.setLists[li].subs {
			if reaches[entry] {
				return true
			}
		}
		return false
	}
	for _, in := range p.code[lo:hi] {
		switch in.Op {
		case OpDocBegin:
			return true
		case OpInvoke:
			if t := p.callSites[in.A].t; t != nil && reaches[t.entryPC] {
				return true
			}
		case OpApply:
			if anyRule(a.s.templates[p.applySites[in.A].mode]) {
				return true
			}
		case OpApplyImports:
			for _, ts := range a.s.templates {
				if anyRule(ts) {
					return true
				}
			}
		case OpAttrSets:
			if anySub(in.A) {
				return true
			}
		case OpCopyBegin:
			if li := p.copySites[in.A]; li >= 0 && anySub(li) {
				return true
			}
		}
	}
	return false
}

// expandSets appends the subroutines of names, in application order, to
// sl. It stops at the first missing set or cycle through the sets on the
// current path, recording the error, and reports whether it completed.
func (a *asm) expandSets(sl *setList, names []string, onPath map[string]bool) bool {
	for _, name := range names {
		set := a.s.attrSets[name]
		if set == nil {
			sl.err = "no xsl:attribute-set named " + name
			return false
		}
		if onPath[name] {
			sl.err = "circular use-attribute-sets through " + name
			return false
		}
		onPath[name] = true
		if !a.expandSets(sl, set.uses, onPath) {
			return false
		}
		sl.subs = append(sl.subs, a.setEntry[name])
		onPath[name] = false
	}
	return true
}

// lowerTemplate lowers one template body behind its entry. Parameters
// bind in declaration order in a scope OpEnter opens: each takes the
// passed value or runs its default, which evaluates in the caller's
// variable scope.
func (a *asm) lowerTemplate(t *Template) {
	t.entryPC = a.here()
	ti := int32(len(a.p.tmpls))
	a.p.tmpls = append(a.p.tmpls, &progTemplate{t: t, entry: t.entryPC})
	a.emit(OpEnter, ti, boolOperand(len(t.params) > 0))
	if len(t.params) > 0 {
		for _, prm := range t.params {
			di := a.addVarDecl(prm)
			skip := a.emit(OpParam, di, 0)
			a.lowerValue(di, prm, BindParam)
			a.patchB(skip, a.here())
		}
		a.emit(OpParamsEnd, 0, 0)
	}
	a.lowerBody(t.body)
	a.emit(OpRet, 0, 0)
}

// lowerValue lowers the value of variable declaration di and its
// binding to target: a select expression, or the empty string when the
// declaration has no content, is one OpVarDecl; content is captured as a
// result-tree fragment.
func (a *asm) lowerValue(di int32, d *compiledVar, target int32) {
	if d.sel != nil || len(d.body) == 0 {
		a.emit(OpVarDecl, di, target)
		return
	}
	a.emit(OpRTFBegin, 0, 0)
	a.lowerBody(d.body)
	a.emit(OpRTFEnd, di, target)
}

// lowerWithParams lowers with-param values into the pending frame of the
// apply or call they belong to.
func (a *asm) lowerWithParams(params []*compiledVar) {
	for _, p := range params {
		a.lowerValue(a.addVarDecl(p), p, BindPassed)
	}
}

// lowerBody flattens one instruction sequence. A body that declares
// variables gets a scope frame, so its bindings are visible only to
// following siblings and their descendants.
func (a *asm) lowerBody(body []instruction) {
	scope := false
	for _, ins := range body {
		if _, ok := ins.(*iVariable); ok {
			scope = true
			break
		}
	}
	if scope {
		a.emit(OpScopeBegin, 0, 0)
	}
	for i := 0; i < len(body); {
		if n := a.staticRun(body[i:]); n > 0 {
			a.emitSegment(body[i : i+n])
			i += n
			continue
		}
		a.lowerInstr(body[i])
		i++
	}
	if scope {
		a.emit(OpScopeEnd, 0, 0)
	}
}

// staticRun returns the length of the maximal static prefix of body when
// collapsing it into a segment pays off (it contains an element, or at
// least two instructions); single text nodes emit cheaper as OpText.
func (a *asm) staticRun(body []instruction) int {
	n := 0
	hasElem := false
	for _, ins := range body {
		if !staticInstr(ins) {
			break
		}
		if _, ok := ins.(*iLiteralElement); ok {
			hasElem = true
		}
		n++
	}
	if hasElem || n >= 2 {
		return n
	}
	return 0
}

// staticInstr reports whether an instruction produces identical events
// on every execution: literal text, xsl:text, and literal elements whose
// attribute value templates are expression-free (transitively).
func staticInstr(ins instruction) bool {
	switch t := ins.(type) {
	case *iLiteralText:
		return true
	case *iText:
		return true
	case *iLiteralElement:
		if len(t.useSets) > 0 {
			return false
		}
		for _, at := range t.attrs {
			if _, ok := staticAVT(at.value); !ok {
				return false
			}
		}
		for _, c := range t.body {
			if !staticInstr(c) {
				return false
			}
		}
		return true
	}
	return false
}

// staticAVT returns the constant value of an expression-free attribute
// value template.
func staticAVT(a *avt) (string, bool) {
	var b strings.Builder
	for _, p := range a.parts {
		if p.expr != nil {
			return "", false
		}
		b.WriteString(p.lit)
	}
	return b.String(), true
}

// emitSegment records a static run once and emits a single bulk-copy
// opcode for it.
func (a *asm) emitSegment(run []instruction) {
	seg := xmldom.RecordSegment(func(em xmldom.Emitter) {
		for _, ins := range run {
			emitStatic(ins, em)
		}
	})
	idx := int32(len(a.p.segs))
	a.p.segs = append(a.p.segs, seg)
	a.emit(OpSeg, idx, 0)
}

// emitStatic replays one static instruction's events into the segment
// recorder, in exactly the order executing the instruction emits them.
func emitStatic(ins instruction, em xmldom.Emitter) {
	switch t := ins.(type) {
	case *iLiteralText:
		em.Text(t.data, false)
	case *iText:
		em.Text(t.data, t.disableEsc)
	case *iLiteralElement:
		em.BeginElement(t.prefix, t.uri, t.name)
		for _, at := range t.attrs {
			v, _ := staticAVT(at.value)
			em.Attr(at.prefix, at.uri, at.name, v)
		}
		for _, c := range t.body {
			emitStatic(c, em)
		}
		em.EndElement()
	}
}

// side-table adders

func (a *asm) addStr(s string) int32 {
	a.p.strs = append(a.p.strs, s)
	return int32(len(a.p.strs) - 1)
}

func (a *asm) addExpr(x *xpath.Compiled) int32 {
	a.p.exprs = append(a.p.exprs, x)
	return int32(len(a.p.exprs) - 1)
}

func (a *asm) addAVT(v *avt) int32 {
	a.p.avts = append(a.p.avts, v)
	return int32(len(a.p.avts) - 1)
}

// addSetList records a use-attribute-sets list; lower expands it once
// every subroutine entry is known.
func (a *asm) addSetList(names []string) int32 {
	a.p.setLists = append(a.p.setLists, &setList{names: names})
	return int32(len(a.p.setLists) - 1)
}

func (a *asm) addVarDecl(d *compiledVar) int32 {
	a.p.varDecls = append(a.p.varDecls, d)
	return int32(len(a.p.varDecls) - 1)
}

func boolOperand(b bool) int32 {
	if b {
		return 1
	}
	return 0
}

func (a *asm) lowerInstr(ins instruction) {
	p := a.p
	switch t := ins.(type) {
	case *iLiteralText:
		a.emit(OpText, a.addStr(t.data), 0)
	case *iText:
		a.emit(OpText, a.addStr(t.data), boolOperand(t.disableEsc))
	case *iValueOf:
		a.emit(OpValueOf, a.addExpr(t.sel), boolOperand(t.disableEsc))
	case *iLiteralElement:
		p.litNames = append(p.litNames, litName{prefix: t.prefix, uri: t.uri, name: t.name})
		a.emit(OpLitBegin, int32(len(p.litNames)-1), 0)
		if len(t.useSets) > 0 {
			a.emit(OpAttrSets, a.addSetList(t.useSets), 0)
		}
		for _, at := range t.attrs {
			if v, ok := staticAVT(at.value); ok {
				p.litAttrs = append(p.litAttrs, litAttrOp{prefix: at.prefix, uri: at.uri, name: at.name, value: v})
				a.emit(OpLitAttr, int32(len(p.litAttrs)-1), 0)
			} else {
				p.avtAttrs = append(p.avtAttrs, avtAttrOp{prefix: at.prefix, uri: at.uri, name: at.name, value: at.value})
				a.emit(OpAVTAttr, int32(len(p.avtAttrs)-1), 0)
			}
		}
		a.lowerBody(t.body)
		a.emit(OpEndElem, 0, 0)
	case *iApplyTemplates:
		site := &applySite{sel: t.sel, mode: t.mode, disp: a.s.index[t.mode], sorts: t.sorts}
		p.applySites = append(p.applySites, site)
		si := int32(len(p.applySites) - 1)
		ap := a.emit(OpApply, si, 0)
		a.lowerWithParams(t.params)
		a.patchB(ap, a.here())
		it := a.emit(OpIterate, si, 0)
		a.patchB(it, a.here())
	case *iForEach:
		p.forSites = append(p.forSites, &forSite{sel: t.sel, sorts: t.sorts})
		a.emit(OpForEach, int32(len(p.forSites)-1), 0)
		next := a.emit(OpForNext, 0, 0)
		a.lowerBody(t.body)
		a.emit(OpForEnd, int32(next), 0)
		a.patchB(next, a.here())
	case *iCallTemplate:
		p.callSites = append(p.callSites, &bcCallSite{name: t.name, t: a.s.named[t.name]})
		ci := int32(len(p.callSites) - 1)
		a.emit(OpCall, ci, 0)
		a.lowerWithParams(t.params)
		a.emit(OpInvoke, ci, 0)
	case *iApplyImports:
		a.emit(OpApplyImports, 0, 0)
	case *iElement:
		p.elemSites = append(p.elemSites, &elemSite{name: t.name})
		a.emit(OpElemBegin, int32(len(p.elemSites)-1), 0)
		if len(t.useSets) > 0 {
			a.emit(OpAttrSets, a.addSetList(t.useSets), 0)
		}
		a.lowerBody(t.body)
		a.emit(OpEndElem, 0, 0)
	case *iAttribute:
		a.emit(OpAttrBegin, a.addAVT(t.name), 0)
		a.lowerBody(t.body)
		a.emit(OpAttrEnd, 0, 0)
	case *iComment:
		a.emit(OpCommentBegin, 0, 0)
		a.lowerBody(t.body)
		a.emit(OpCommentEnd, 0, 0)
	case *iPI:
		a.emit(OpPIBegin, a.addAVT(t.name), 0)
		a.lowerBody(t.body)
		a.emit(OpPIEnd, 0, 0)
	case *iMessage:
		a.emit(OpMsgBegin, 0, 0)
		a.lowerBody(t.body)
		a.emit(OpMsgEnd, boolOperand(t.terminate), 0)
	case *iDocument:
		db := a.emit(OpDocBegin, a.addAVT(t.href), 0)
		a.lowerBody(t.body)
		a.docs = append(a.docs, [2]int32{int32(db), int32(a.emit(OpDocEnd, 0, 0))})
	case *iCopy:
		sets := int32(-1)
		if len(t.useSets) > 0 {
			sets = a.addSetList(t.useSets)
		}
		p.copySites = append(p.copySites, sets)
		cb := a.emit(OpCopyBegin, int32(len(p.copySites)-1), 0)
		a.lowerBody(t.body)
		a.emit(OpCopyEnd, 0, 0)
		a.patchB(cb, a.here())
	case *iCopyOf:
		a.emit(OpCopyOf, a.addExpr(t.sel), 0)
	case *iIf:
		tp := a.emit(OpTest, a.addExpr(t.test), 0)
		a.lowerBody(t.body)
		a.patchB(tp, a.here())
	case *iChoose:
		var ends []int
		for _, w := range t.whens {
			tp := a.emit(OpTest, a.addExpr(w.test), 0)
			a.lowerBody(w.body)
			ends = append(ends, a.emit(OpJmp, 0, 0))
			a.patchB(tp, a.here())
		}
		if t.otherwise != nil {
			a.lowerBody(t.otherwise)
		}
		for _, e := range ends {
			a.patchA(e, a.here())
		}
	case *iVariable:
		a.lowerValue(a.addVarDecl(t.decl), t.decl, BindVar)
	case *iNumber:
		p.numSites = append(p.numSites, t)
		a.emit(OpNumber, int32(len(p.numSites)-1), 0)
	default:
		// Every instruction the compiler produces is handled above; a new
		// instruction type must be lowered here before it can ship.
		panic(fmt.Sprintf("xslt: no lowering for %T", ins))
	}
}

// ---- introspection ----

// DispatchRule is one entry of a compiled program's per-mode jump table:
// the template rule plus the pc its body is entered at. Entries are in
// dispatch (precedence) order — the first matching rule wins.
type DispatchRule struct {
	TemplateRule
	Entry int
}

// Modes returns every mode with jump-table entries, sorted.
func (p *Program) Modes() []string { return p.sheet.Modes() }

// ModeEntries returns one mode's jump table. The static analyzer's
// shadowed-template check (GW201) reads dispatch order from here, so it
// reasons about exactly what the VM executes.
func (p *Program) ModeEntries(mode string) []DispatchRule {
	ts := p.sheet.templates[mode]
	out := make([]DispatchRule, 0, len(ts))
	for _, t := range ts {
		out = append(out, DispatchRule{
			TemplateRule: TemplateRule{
				Match:      t.Match,
				Name:       t.Name,
				Mode:       t.Mode,
				Priority:   t.Priority,
				ImportPrec: t.importPrec,
				Builtin:    t.src == nil,
				Src:        t.src,
			},
			Entry: int(t.entryPC),
		})
	}
	return out
}

// ---- disassembly ----

// avtSource reconstructs the {expr}-interleaved source of an attribute
// value template for disassembly.
func avtSource(a *avt) string {
	var b strings.Builder
	for _, p := range a.parts {
		if p.expr == nil {
			b.WriteString(p.lit)
		} else {
			b.WriteByte('{')
			b.WriteString(p.expr.String())
			b.WriteByte('}')
		}
	}
	return b.String()
}

// templateLabel renders a template's identity for disassembly headers.
func templateLabel(t *Template) string {
	var parts []string
	if t.Name != "" {
		parts = append(parts, fmt.Sprintf("name=%q", t.Name))
	}
	if t.Match != nil {
		parts = append(parts, fmt.Sprintf("match=%q", t.Match.String()))
	}
	if t.Mode != "" {
		parts = append(parts, fmt.Sprintf("mode=%q", t.Mode))
	}
	if t.src == nil && t.Match != nil {
		parts = append(parts, "builtin")
	}
	return strings.Join(parts, " ")
}

func qname(prefix, name string) string {
	if prefix != "" {
		return prefix + ":" + name
	}
	return name
}

// String renders a set list for disassembly: the names as written, the
// subroutines they expand to, and the expansion error, if any.
func (sl *setList) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, " [%s] →", strings.Join(sl.names, " "))
	for _, pc := range sl.subs {
		fmt.Fprintf(&b, " %04d", pc)
	}
	if sl.err != "" {
		fmt.Fprintf(&b, " error %q", sl.err)
	}
	return b.String()
}

// Disasm renders the program as a deterministic pc-addressed listing
// with a header line per template body — the golden corpus format of
// testdata/programs.want.
func (p *Program) Disasm() string {
	heads := make(map[int32]string, len(p.tmpls)+len(p.subs))
	for _, pt := range p.tmpls {
		heads[pt.entry] = "template " + templateLabel(pt.t)
	}
	for _, sub := range p.subs {
		heads[sub.entry] = "attribute-set " + sub.name
	}
	var b strings.Builder
	for pc, in := range p.code {
		if head, ok := heads[int32(pc)]; ok {
			fmt.Fprintf(&b, "\n;; %s\n", head)
		}
		fmt.Fprintf(&b, "%04d %s", pc, opcodeNames[in.Op])
		switch in.Op {
		case OpJmp:
			fmt.Fprintf(&b, " %04d", in.A)
		case OpTest:
			fmt.Fprintf(&b, " %s false→%04d", p.exprs[in.A].String(), in.B)
		case OpSeg:
			fmt.Fprintf(&b, " #%d %s", in.A, p.segs[in.A].Summary())
		case OpText:
			fmt.Fprintf(&b, " %q", p.strs[in.A])
			if in.B != 0 {
				b.WriteString(" raw")
			}
		case OpValueOf:
			fmt.Fprintf(&b, " %s", p.exprs[in.A].String())
			if in.B != 0 {
				b.WriteString(" raw")
			}
		case OpLitBegin:
			ln := p.litNames[in.A]
			fmt.Fprintf(&b, " <%s>", qname(ln.prefix, ln.name))
		case OpAttrSets:
			b.WriteString(p.setLists[in.A].String())
		case OpLitAttr:
			la := p.litAttrs[in.A]
			fmt.Fprintf(&b, " %s=%q", qname(la.prefix, la.name), la.value)
		case OpAVTAttr:
			aa := p.avtAttrs[in.A]
			fmt.Fprintf(&b, " %s=%q", qname(aa.prefix, aa.name), avtSource(aa.value))
		case OpApply:
			site := p.applySites[in.A]
			if site.self {
				b.WriteString(" self")
			} else if site.sel != nil {
				fmt.Fprintf(&b, " select=%s", site.sel.String())
			} else {
				b.WriteString(" children")
			}
			if site.mode != "" {
				fmt.Fprintf(&b, " mode=%q", site.mode)
			}
			if len(site.sorts) > 0 {
				fmt.Fprintf(&b, " sorts=%d", len(site.sorts))
			}
			if int(in.B) != pc+1 {
				fmt.Fprintf(&b, " iterate→%04d", in.B)
			}
		case OpIterate:
			fmt.Fprintf(&b, " exit→%04d", in.B)
		case OpForEach:
			site := p.forSites[in.A]
			fmt.Fprintf(&b, " select=%s", site.sel.String())
			if len(site.sorts) > 0 {
				fmt.Fprintf(&b, " sorts=%d", len(site.sorts))
			}
		case OpForNext:
			fmt.Fprintf(&b, " exit→%04d", in.B)
		case OpForEnd:
			fmt.Fprintf(&b, " loop→%04d", in.A)
		case OpCall, OpInvoke:
			cs := p.callSites[in.A]
			fmt.Fprintf(&b, " %q", cs.name)
			if cs.t != nil {
				fmt.Fprintf(&b, " entry→%04d", cs.t.entryPC)
			} else {
				b.WriteString(" unresolved")
			}
		case OpEnter:
			fmt.Fprintf(&b, " %s", templateLabel(p.tmpls[in.A].t))
			if n := len(p.tmpls[in.A].t.params); n > 0 {
				fmt.Fprintf(&b, " params=%d", n)
			}
		case OpVarDecl:
			d := p.varDecls[in.A]
			if d.sel != nil {
				fmt.Fprintf(&b, " $%s select=%s", d.name, d.sel.String())
			} else {
				fmt.Fprintf(&b, " $%s empty", d.name)
			}
			b.WriteString(bindNames[in.B])
		case OpRTFEnd:
			fmt.Fprintf(&b, " $%s%s", p.varDecls[in.A].name, bindNames[in.B])
		case OpParam, OpGlobalParam:
			fmt.Fprintf(&b, " $%s skip→%04d", p.varDecls[in.A].name, in.B)
		case OpElemBegin:
			fmt.Fprintf(&b, " name=%q", avtSource(p.elemSites[in.A].name))
		case OpAttrBegin, OpPIBegin:
			fmt.Fprintf(&b, " %q", avtSource(p.avts[in.A]))
		case OpDocBegin:
			fmt.Fprintf(&b, " %q", avtSource(p.avts[in.A]))
			if in.B != 0 {
				fmt.Fprintf(&b, " skip→%04d", in.B)
			}
		case OpMsgEnd:
			if in.A != 0 {
				b.WriteString(" terminate")
			}
		case OpCopyBegin:
			if li := p.copySites[in.A]; li >= 0 {
				b.WriteString(p.setLists[li].String())
			}
			fmt.Fprintf(&b, " leaf→%04d", in.B)
		case OpCopyOf:
			fmt.Fprintf(&b, " %s", p.exprs[in.A].String())
		case OpNumber:
			ns := p.numSites[in.A]
			if ns.value != nil {
				fmt.Fprintf(&b, " value=%s", ns.value.String())
			}
			fmt.Fprintf(&b, " format=%q", ns.format)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
