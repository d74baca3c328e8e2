package xslt

import (
	"fmt"
	"slices"
	"sort"
	"strings"

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
//     subroutine that the use-attribute-sets lists call in order;
//   - variables are lexically scoped and resolved at lowering time: every
//     declaration gets a frame slot and every $name reads one, so a run
//     binds no names and keeps no scope maps (see Program).
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
	OpEnter               // a: template; b: 1 = parameters follow — open the template's variable frame, set import precedence
	OpVarDecl             // a: variable declaration — evaluate and bind its slot
	OpElemBegin           // a: element site — computed name + attribute sets
	OpAttrBegin           // a: name AVT — begin capturing an attribute value
	OpAttrEnd             //
	OpCommentBegin        // begin capturing a comment body
	OpCommentEnd          //
	OpPIBegin             // a: name AVT — begin capturing a PI body
	OpPIEnd               //
	OpMsgBegin            // begin capturing an xsl:message body
	OpMsgEnd              // a: 1 = terminate
	OpDocBegin            // a: href AVT — redirect output to an xsl:document sink; b: pc past its OpDocEnd when the body is a leaf (doc skip), else 0
	OpDocEnd              //
	OpCopyBegin           // a: copy site; b: pc after OpCopyEnd (leaf-node skip)
	OpCopyEnd             //
	OpCopyOf              // a: expr
	OpNumber              // a: number site
	OpInvoke              // a: call site — jump to the template (after its with-params)
	OpParam               // a: parameter; b: pc past its default — bind the passed value or fall into the default
	OpParamsEnd           // a: template — parameters bound: install the template's import precedence
	OpGlobalParam         // a: global parameter; b: pc past its default — bind the caller's value or fall into the default
	OpRTFBegin            // begin capturing a result-tree fragment
	OpRTFEnd              // a: variable declaration — bind the fragment to its slot
)

var opcodeNames = [...]string{
	OpHalt: "halt", OpRet: "ret", OpJmp: "jmp", OpTest: "test", OpSeg: "seg",
	OpText: "text", OpValueOf: "value-of", OpLitBegin: "elem",
	OpAttrSets: "attr-sets", OpLitAttr: "attr", OpAVTAttr: "attr-avt",
	OpEndElem: "end-elem", OpApply: "apply", OpIterate: "iterate",
	OpForEach: "for-each", OpForNext: "for-next", OpForEnd: "for-end",
	OpCall: "call", OpApplyImports: "apply-imports", OpEnter: "enter",
	OpVarDecl:   "var",
	OpElemBegin: "elem-avt", OpAttrBegin: "attr-begin", OpAttrEnd: "attr-end",
	OpCommentBegin: "comment-begin", OpCommentEnd: "comment-end",
	OpPIBegin: "pi-begin", OpPIEnd: "pi-end", OpMsgBegin: "msg-begin",
	OpMsgEnd: "msg-end", OpDocBegin: "doc-begin", OpDocEnd: "doc-end",
	OpCopyBegin: "copy", OpCopyEnd: "copy-end", OpCopyOf: "copy-of",
	OpNumber: "number", OpInvoke: "invoke", OpParam: "param",
	OpParamsEnd: "params-end", OpGlobalParam: "global-param",
	OpRTFBegin: "rtf-begin", OpRTFEnd: "rtf-end",
}

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
	// params are the with-param declarations, bound in the caller's frame
	// and read by the entered template's OpParam.
	params []*compiledVar
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
	name   string
	t      *Template
	params []*compiledVar // with-params, as for applySite
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

// progTemplate records one lowered template, its entry pc and the size
// of its variable frame.
type progTemplate struct {
	t     *Template
	entry int32
	frame int32
}

// Program is a compiled stylesheet lowered to flat bytecode with its
// side tables. Programs are immutable after lowering and safe for
// concurrent execution; all run state lives on the shared xpath.Frame
// and in the per-run engine.
//
// Variables live in slots of one stack of xpath.Values. The global
// region comes first: a slot per global variable or parameter name, per
// undeclared caller parameter a stylesheet reads, and per local of the
// root prologue. The staging region mirrors it: a run starts by reading
// the caller's parameters into the staging slots of their names, and
// OpGlobalParam and the root invocation copy them into the global slots
// from there. Every template invocation and attribute-set list then
// opens a frame of its own above, and a compiled $name reads its global
// slot or its slot in the current frame.
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
	// globals is the size of the global region, the staging region's
	// too; staged lists the global slots a caller's parameter of the
	// slot's name is staged for, and undeclared those of the undeclared
	// parameters, which the root invocation binds.
	globals    int32
	staged     []stagedParam
	undeclared []int32
	// setFrame is the variable frame of an attribute-set list, and frame
	// the largest frame of any kind (the prologue's is both regions):
	// each frame entry makes this much room, so every slot the verifier
	// bounds by it is addressable.
	setFrame, frame int32
}

// stagedParam names the global slot a caller's parameter is staged for.
type stagedParam struct {
	name string
	slot int32
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
	// globalSlots maps every global and undeclared parameter name to its
	// global slot. vars are the local bindings in scope, innermost last,
	// and frame counts the slots of the frame being lowered; the root
	// prologue's locals take global slots instead (prologue).
	globalSlots map[string]int32
	vars        []*compiledVar
	frame       int32
	prologue    bool
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
// Every variable reference is resolved to its slot on the way: the
// globals first get theirs, so a reference anywhere, the prologue
// included, finds a global of its name whatever the declaration order.
func (s *Stylesheet) lower() *Program {
	p := &Program{sheet: s}
	a := &asm{s: s, p: p, setEntry: map[string]int32{}, globalSlots: map[string]int32{}, prologue: true}

	for _, d := range s.globals {
		slot, ok := a.globalSlots[d.name]
		if !ok {
			slot = a.newGlobal(d.name)
		}
		d.slot = slot
		staged := slices.ContainsFunc(p.staged, func(sp stagedParam) bool { return sp.slot == slot })
		if d.isParam && !staged {
			p.staged = append(p.staged, stagedParam{name: d.name, slot: slot})
		}
	}
	for _, d := range s.globals {
		di := a.addVarDecl(d)
		if !d.isParam {
			a.lowerBinding(di, d)
			continue
		}
		skip := a.emit(OpGlobalParam, di, 0)
		a.lowerBinding(di, d)
		a.patchB(skip, a.here())
	}
	root := &applySite{self: true, disp: s.index[""]}
	p.applySites = append(p.applySites, root)
	a.emit(OpApply, 0, a.here()+1)
	it := a.emit(OpIterate, 0, 0)
	a.patchB(it, a.here())
	a.emit(OpHalt, 0, 0)
	a.prologue = false

	for _, name := range s.AttrSetNames() {
		a.setEntry[name] = a.here()
		p.subs = append(p.subs, progSub{name: name, entry: a.here()})
		a.vars, a.frame = a.vars[:0], 0
		a.lowerBody(s.attrSets[name].body)
		a.emit(OpRet, 0, 0)
		p.setFrame = max(p.setFrame, a.frame)
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

	// Patterns, and keys, which key() evaluates from wherever it is
	// called, see the globals only.
	for _, ts := range s.templates {
		for _, t := range ts {
			if t.Match != nil {
				t.Match.ResolveVars(a.resolveGlobal)
			}
		}
	}
	for _, k := range s.keys {
		k.match.ResolveVars(a.resolveGlobal)
		k.use.ResolveVars(a.resolveGlobal)
	}
	p.frame = max(2*p.globals, p.setFrame)
	for _, pt := range p.tmpls {
		p.frame = max(p.frame, pt.frame)
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

// lowerTemplate lowers one template body behind its entry, in a frame
// of its own: a template sees the globals, its parameters and its
// locals, never its caller's (XSLT 1.0 §11.5). Parameters bind in
// declaration order: each takes the passed value or runs its default,
// which sees the parameters declared before it.
func (a *asm) lowerTemplate(t *Template) {
	t.entryPC = a.here()
	ti := int32(len(a.p.tmpls))
	pt := &progTemplate{t: t, entry: t.entryPC}
	a.p.tmpls = append(a.p.tmpls, pt)
	a.vars, a.frame = a.vars[:0], 0
	a.emit(OpEnter, ti, boolOperand(len(t.params) > 0))
	if len(t.params) > 0 {
		for _, prm := range t.params {
			di := a.addVarDecl(prm)
			skip := a.emit(OpParam, di, 0)
			a.lowerValue(di, prm)
			a.patchB(skip, a.here())
			a.declare(prm)
		}
		a.emit(OpParamsEnd, ti, 0)
	}
	a.lowerBody(t.body)
	a.emit(OpRet, 0, 0)
	pt.frame = a.frame
}

// lowerValue gives variable declaration di a slot of the frame being
// lowered and lowers its binding.
func (a *asm) lowerValue(di int32, d *compiledVar) {
	d.slot = a.newSlot()
	a.lowerBinding(di, d)
}

// lowerBinding lowers the value of variable declaration di and its
// binding to the declaration's slot: a select expression, or the empty
// string when the declaration has no content, is one OpVarDecl; content
// is captured as a result-tree fragment. The value sees the bindings in
// scope before the declaration.
func (a *asm) lowerBinding(di int32, d *compiledVar) {
	if d.sel != nil || len(d.body) == 0 {
		a.resolve(d.sel)
		a.emit(OpVarDecl, di, 0)
		return
	}
	a.emit(OpRTFBegin, 0, 0)
	a.lowerBody(d.body)
	a.emit(OpRTFEnd, di, 0)
}

// lowerWithParams lowers with-param values into slots of the caller's
// frame, where the entered template's OpParam reads them.
func (a *asm) lowerWithParams(params []*compiledVar) {
	for _, p := range params {
		a.lowerValue(a.addVarDecl(p), p)
	}
}

// lowerBody flattens one instruction sequence. The variables it declares
// are in scope for their following siblings and those siblings'
// descendants only.
func (a *asm) lowerBody(body []instruction) {
	outer := len(a.vars)
	for i := 0; i < len(body); {
		if n := a.staticRun(body[i:]); n > 0 {
			a.emitSegment(body[i : i+n])
			i += n
			continue
		}
		a.lowerInstr(body[i])
		i++
	}
	a.vars = a.vars[:outer]
}

// ---- variable slots ----

// newSlot returns a fresh slot of the frame being lowered: a global slot
// in the root prologue, whose frame is the global region. A frame has a
// slot per declaration of its body; none is reused.
func (a *asm) newSlot() int32 {
	if a.prologue {
		return a.newGlobal("")
	}
	a.frame++
	return a.frame - 1
}

// newGlobal returns a fresh global slot, recorded under name unless it
// is a prologue local's.
func (a *asm) newGlobal(name string) int32 {
	slot := a.p.globals
	a.p.globals++
	if name != "" {
		a.globalSlots[name] = slot
	}
	return slot
}

// declare brings d into scope for the code lowered next.
func (a *asm) declare(d *compiledVar) {
	a.vars = append(a.vars, d)
}

// resolveName maps a variable reference to the innermost binding in
// scope, else to the global of its name. A name no declaration binds is
// an undeclared parameter: it gets a global slot that the root
// invocation fills from the caller's parameter of that name, if any.
// Each reference counts for the declaration it resolves to.
func (a *asm) resolveName(name string) (int, bool) {
	for i := len(a.vars) - 1; i >= 0; i-- {
		if d := a.vars[i]; d.name == name {
			d.refs++
			return int(d.slot), true
		}
	}
	return a.resolveGlobal(name)
}

// resolveGlobal maps a variable reference to the global of its name,
// counting it for every top-level declaration of that slot, or to its
// undeclared parameter slot.
func (a *asm) resolveGlobal(name string) (int, bool) {
	if slot, ok := a.globalSlots[name]; ok {
		for _, d := range a.s.globals {
			if d.slot == slot {
				d.refs++
			}
		}
		return int(slot), false
	}
	slot := a.newGlobal(name)
	a.p.staged = append(a.p.staged, stagedParam{name: name, slot: slot})
	a.p.undeclared = append(a.p.undeclared, slot)
	return int(slot), false
}

// resolve resolves the variable references of x in the current scope.
func (a *asm) resolve(x *xpath.Compiled) {
	if x != nil {
		x.ResolveVars(a.resolveName)
	}
}

// resolveAVT resolves the expressions of an attribute value template.
func (a *asm) resolveAVT(v *avt) {
	if v == nil {
		return
	}
	for _, part := range v.parts {
		a.resolve(part.expr)
	}
}

// resolveSorts resolves sort keys: each evaluates in the scope of the
// instruction it sorts for.
func (a *asm) resolveSorts(keys []sortKey) {
	for _, k := range keys {
		a.resolve(k.sel)
		a.resolveAVT(k.dataType)
		a.resolveAVT(k.order)
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
	a.resolve(x)
	a.p.exprs = append(a.p.exprs, x)
	return int32(len(a.p.exprs) - 1)
}

func (a *asm) addAVT(v *avt) int32 {
	a.resolveAVT(v)
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
				a.resolveAVT(at.value)
				p.avtAttrs = append(p.avtAttrs, avtAttrOp{prefix: at.prefix, uri: at.uri, name: at.name, value: at.value})
				a.emit(OpAVTAttr, int32(len(p.avtAttrs)-1), 0)
			}
		}
		a.lowerBody(t.body)
		a.emit(OpEndElem, 0, 0)
	case *iApplyTemplates:
		a.resolve(t.sel)
		a.resolveSorts(t.sorts)
		site := &applySite{sel: t.sel, mode: t.mode, disp: a.s.index[t.mode], sorts: t.sorts, params: t.params}
		p.applySites = append(p.applySites, site)
		si := int32(len(p.applySites) - 1)
		ap := a.emit(OpApply, si, 0)
		a.lowerWithParams(t.params)
		a.patchB(ap, a.here())
		it := a.emit(OpIterate, si, 0)
		a.patchB(it, a.here())
	case *iForEach:
		a.resolve(t.sel)
		a.resolveSorts(t.sorts)
		p.forSites = append(p.forSites, &forSite{sel: t.sel, sorts: t.sorts})
		a.emit(OpForEach, int32(len(p.forSites)-1), 0)
		next := a.emit(OpForNext, 0, 0)
		a.lowerBody(t.body)
		a.emit(OpForEnd, int32(next), 0)
		a.patchB(next, a.here())
	case *iCallTemplate:
		p.callSites = append(p.callSites, &bcCallSite{name: t.name, t: a.s.named[t.name], params: t.params})
		ci := int32(len(p.callSites) - 1)
		a.emit(OpCall, ci, 0)
		a.lowerWithParams(t.params)
		a.emit(OpInvoke, ci, 0)
	case *iApplyImports:
		a.emit(OpApplyImports, 0, 0)
	case *iElement:
		a.resolveAVT(t.name)
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
		a.lowerValue(a.addVarDecl(t.decl), t.decl)
		a.declare(t.decl)
	case *iNumber:
		a.resolve(t.value)
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
		out = append(out, DispatchRule{TemplateRule: t.rule(), Entry: int(t.entryPC)})
	}
	return out
}
