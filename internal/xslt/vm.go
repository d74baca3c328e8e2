package xslt

import (
	"math"
	"slices"
	"strings"

	"goldweb/internal/xmldom"
	"goldweb/internal/xpath"
)

// The bytecode VM, the processor's only XSLT engine: executes a lowered
// Program on the frame stack shared with the XPath expression VM.
// Control flow (template dispatch, apply-templates iteration, for-each
// loops, call-template, attribute-set subroutines) runs as VM loops and
// pc jumps on pooled CtlFrames — no per-node Go recursion — and every
// embedded expression, sort keys and xsl:number values included,
// evaluates on the same shared operand stack via the EvalXxxOn entry
// points, so one transformation performs a single frame-pool round trip.
// Value-producing bodies (result-tree fragments, parameter defaults)
// are output captures on the same stack.

// Control frame kinds on the shared xpath.Frame stack.
const (
	cfApply uint8 = iota + 1 // apply-templates node loop
	cfCall                   // call-template / apply-imports invocation
	cfFor                    // for-each loop
	cfCap                    // output capture (attribute/comment/PI/message/fragment)
	cfDoc                    // xsl:document output redirect
	cfSets                   // attribute-set list being applied
)

// maxDepth bounds the control stack so runaway (circular) templates fail
// cleanly instead of exhausting memory.
const maxDepth = 3200

// vmRun is the mutable state of one program execution. It lives in the
// pooled engine, so a run allocates none of it: release clears it and
// keeps the slot stack and the sort scratch for the next run.
type vmRun struct {
	e   *engine
	p   *Program
	f   *xpath.Frame
	ctx xctx
	out xmldom.Emitter
	// slots is the variable stack (see Program): the global and staging
	// regions, then a frame per active template invocation and
	// attribute-set list. base is the current frame's first slot, top
	// the first slot above it.
	slots     []xpath.Value
	base, top int
	// xc is the persistent expression-evaluation context; refreshed from
	// ctx before each evaluation instead of boxing a new one.
	xc xpath.Context
	// mc is the persistent pattern-match context used by dispatch.
	mc xpath.Context
	// order, keys and nums are sortNodes' scratch.
	order []int
	keys  []string
	nums  []float64
}

// Param is a stylesheet parameter a caller passes to a run: the value
// of the global xsl:param, or of the undeclared parameter, named Name.
type Param struct {
	Name  string
	Value xpath.Value
}

// execute runs the program over source with the caller's stylesheet
// parameters, writing the principal output to out. The parameters are
// read into their staging slots before the run starts and not kept.
func (p *Program) execute(e *engine, source *xmldom.Node, params []Param, out xmldom.Emitter) error {
	f := xpath.GetFrame()
	defer xpath.PutFrame(f)
	r := &e.run
	r.start(e, p, f)
	r.ctx = xctx{node: source, pos: 1, size: 1}
	r.out = out
	r.enter(int(2 * p.globals))
	for _, sp := range p.staged {
		for i := len(params) - 1; i >= 0; i-- {
			if params[i].Name == sp.name {
				r.slots[p.globals+sp.slot] = params[i].Value
				break
			}
		}
	}
	return r.loop()
}

// start readies the engine's run for executing p on frame f.
func (r *vmRun) start(e *engine, p *Program, f *xpath.Frame) {
	r.e, r.p, r.f = e, p, f
	r.xc.Funcs, r.xc.NS = e.funcs, e.sheet.exprNS
	r.mc.Funcs, r.mc.NS = e.funcs, e.sheet.exprNS
}

// enter opens a variable frame of n slots above the current one. The
// stack always has room for a frame of the program's largest size, so
// every slot the verifier accepts is addressable.
func (r *vmRun) enter(n int) {
	r.base = r.top
	r.top += n
	if need := r.base + int(r.p.frame); need > len(r.slots) {
		r.slots = append(r.slots, make([]xpath.Value, need-len(r.slots))...)
	}
}

// leave closes the current frame and makes base the current one again.
func (r *vmRun) leave(base int32) {
	r.top = r.base
	r.base = int(base)
}

// bind stores the value of declaration d in its slot of the current
// frame (in the root prologue, whose frame is the global region, its
// global slot).
func (r *vmRun) bind(d *compiledVar, v xpath.Value) {
	r.slots[r.base+int(d.slot)] = v
}

// passed returns the with-param value named name that the apply or call
// frame fr passes, from its slot in the caller's frame; the last of
// several with-params of one name wins.
func (r *vmRun) passed(fr *xpath.CtlFrame, name string) (xpath.Value, bool) {
	var ws []*compiledVar
	switch fr.Kind {
	case cfApply:
		ws = r.p.applySites[fr.Site].params
	case cfCall:
		if fr.Site >= 0 { // apply-imports (site -1) passes none
			ws = r.p.callSites[fr.Site].params
		}
	}
	for i := len(ws) - 1; i >= 0; i-- {
		if ws[i].name == name {
			return r.slots[int(fr.Base)+int(ws[i].slot)], true
		}
	}
	return nil, false
}

// ectx refreshes and returns the shared expression context from the
// execution context.
func (r *vmRun) ectx() *xpath.Context {
	r.xc.Node = r.ctx.node
	r.xc.Position = r.ctx.pos
	r.xc.Size = r.ctx.size
	r.xc.Slots, r.xc.Base = r.slots, r.base
	r.xc.Current = r.ctx.node
	return &r.xc
}

// evalAVT evaluates an attribute value template on the shared frame.
func (r *vmRun) evalAVT(a *avt) (string, error) {
	if len(a.parts) == 1 {
		if p := a.parts[0]; p.expr == nil {
			return p.lit, nil
		}
		return a.parts[0].expr.EvalStringOn(r.ectx(), r.f)
	}
	// Evaluate every part first so the value is built in one allocation.
	var buf [8]string
	vals := buf[:0]
	n := 0
	for _, p := range a.parts {
		s := p.lit
		if p.expr != nil {
			var err error
			if s, err = p.expr.EvalStringOn(r.ectx(), r.f); err != nil {
				return "", err
			}
		}
		vals = append(vals, s)
		n += len(s)
	}
	var b strings.Builder
	b.Grow(n)
	for _, s := range vals {
		b.WriteString(s)
	}
	return b.String(), nil
}

// push appends a control frame, guarding against runaway recursion.
func (r *vmRun) push(cf xpath.CtlFrame) error {
	if r.f.Depth() >= maxDepth {
		return &TransformError{Msg: "maximum instruction depth exceeded (circular templates?)"}
	}
	r.f.PushCtl(cf)
	return nil
}

// dispatch finds the first template whose pattern matches node in the
// dispatch index, scanning only the node's match-class bucket, among the
// rules whose import precedence is below maxPrec. The match context
// carries the *caller's* position, size and current node; patterns read
// global variables only.
func (r *vmRun) dispatch(ix *templateIndex, node *xmldom.Node,
	cur *xmldom.Node, pos, size, maxPrec int) (*Template, error) {
	if ix == nil {
		return nil, nil
	}
	list := ix.candidates(node)
	if len(list) == 0 {
		return nil, nil
	}
	mc := &r.mc
	mc.Node = node
	mc.Position = pos
	mc.Size = size
	mc.Slots = r.slots
	mc.Current = cur
	for _, t := range list {
		if t.importPrec >= maxPrec {
			continue
		}
		ok, err := t.Match.Matches(mc, node)
		if err != nil {
			return nil, err
		}
		if ok {
			return t, nil
		}
	}
	return nil, nil
}

// runSets starts the attribute-set list li and returns the pc to
// continue at: the list's first subroutine, or ret when it is empty.
// The list's subroutines run one after another in one variable frame.
func (r *vmRun) runSets(li int32, ret int) (int, error) {
	sl := r.p.setLists[li]
	if len(sl.subs) == 0 {
		if sl.err != "" {
			return 0, &TransformError{Msg: sl.err}
		}
		return ret, nil
	}
	if err := r.push(xpath.CtlFrame{Kind: cfSets, Ret: int32(ret), Site: li, Base: int32(r.base)}); err != nil {
		return 0, err
	}
	r.enter(int(r.p.setFrame))
	return int(sl.subs[0]), nil
}

// sortNodes orders a node list by the given sort keys. Order and
// data-type evaluate in the current context; each key evaluates with the
// node as context node, its list position and the list size.
func (r *vmRun) sortNodes(list []*xmldom.Node, sorts []sortKey) ([]*xmldom.Node, error) {
	nk := len(sorts)
	var flags [8]bool
	var numeric, descending []bool
	if nk <= len(flags)/2 {
		numeric, descending = flags[:nk], flags[nk:2*nk]
	} else {
		numeric, descending = make([]bool, nk), make([]bool, nk)
	}
	anyText, anyNum := false, false
	for i, k := range sorts {
		if k.dataType != nil {
			v, err := r.evalAVT(k.dataType)
			if err != nil {
				return nil, err
			}
			numeric[i] = v == "number"
		}
		if k.order != nil {
			v, err := r.evalAVT(k.order)
			if err != nil {
				return nil, err
			}
			descending[i] = v == "descending"
		}
		anyNum = anyNum || numeric[i]
		anyText = anyText || !numeric[i]
	}
	// Flat backing arrays, the run's scratch: keys/nums for node i, key j
	// live at i*nk+j. No sort key evaluation sorts, so one set serves
	// every sort of the run.
	var keys []string
	var nums []float64
	if anyText {
		r.keys = resize(r.keys, len(list)*nk)
		keys = r.keys
	}
	if anyNum {
		r.nums = resize(r.nums, len(list)*nk)
		nums = r.nums
	}
	r.order = resize(r.order, len(list))
	order := r.order
	xc := &r.xc
	xc.Size = len(list)
	xc.Slots, xc.Base = r.slots, r.base
	for i, n := range list {
		order[i] = i
		xc.Node, xc.Current, xc.Position = n, n, i+1
		for j, k := range sorts {
			var err error
			if numeric[j] {
				nums[i*nk+j], err = k.sel.EvalNumberOn(xc, r.f)
			} else {
				keys[i*nk+j], err = k.sel.EvalStringOn(xc, r.f)
			}
			if err != nil {
				return nil, err
			}
		}
	}
	slices.SortStableFunc(order, func(a, b int) int {
		for j := 0; j < nk; j++ {
			var cmp int
			if numeric[j] {
				cmp = compareNumbers(nums[a*nk+j], nums[b*nk+j])
			} else {
				cmp = strings.Compare(keys[a*nk+j], keys[b*nk+j])
			}
			if cmp == 0 {
				continue
			}
			if descending[j] {
				return -cmp
			}
			return cmp
		}
		return 0
	})
	out := make([]*xmldom.Node, len(list))
	for i, idx := range order {
		out[i] = list[idx]
	}
	return out, nil
}

// resize returns s with length n, reusing its array when it is large
// enough.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// compareNumbers orders numeric sort keys: NaN sorts before every number
// (ascending) and equal to another NaN, as libxslt does, which keeps the
// comparison a strict weak order.
func compareNumbers(u, w float64) int {
	switch uNaN, wNaN := math.IsNaN(u), math.IsNaN(w); {
	case uNaN && wNaN:
		return 0
	case uNaN:
		return -1
	case wNaN:
		return 1
	case u < w:
		return -1
	case u > w:
		return 1
	}
	return 0
}

// number computes the integer an xsl:number site formats: its value,
// rounded as XPath round() does (XSLT 1.0 §7.7), or the context node's
// position among its same-named preceding siblings (level="single" with
// the default count), 1-based.
func (r *vmRun) number(ns *iNumber) (int, error) {
	if ns.value != nil {
		f, err := ns.value.EvalNumberOn(r.ectx(), r.f)
		return int(math.Floor(f + 0.5)), err
	}
	n := 1
	cur := r.ctx.node
	if cur.Parent != nil {
		for _, sib := range cur.Parent.Children {
			if sib == cur {
				break
			}
			if sib.Type == cur.Type && sib.Name == cur.Name {
				n++
			}
		}
	}
	return n, nil
}

func splitQName(name string) (prefix, local string) {
	if i := strings.IndexByte(name, ':'); i >= 0 {
		return name[:i], name[i+1:]
	}
	return "", name
}

// loop is the interpreter: one flat pc loop over the whole stylesheet.
func (r *vmRun) loop() error {
	p := r.p
	e := r.e
	f := r.f
	code := p.code
	for pc := 0; ; {
		in := &code[pc]
		switch in.Op {
		case OpHalt:
			return nil

		case OpJmp:
			pc = int(in.A)
			continue

		case OpTest:
			ok, err := p.exprs[in.A].EvalBoolOn(r.ectx(), f)
			if err != nil {
				return err
			}
			if !ok {
				pc = int(in.B)
				continue
			}

		case OpSeg:
			switch out := r.out.(type) {
			case *xmldom.ByteEmitter:
				out.AppendSegment(p.segs[in.A])
			case *discardSink:
				// A static run is balanced: it leaves no state to track.
			default:
				p.segs[in.A].Replay(r.out)
			}

		case OpText:
			r.out.Text(p.strs[in.A], in.B != 0)

		case OpValueOf:
			s, err := p.exprs[in.A].EvalStringOn(r.ectx(), f)
			if err != nil {
				return err
			}
			if s != "" {
				r.out.Text(s, in.B != 0)
			}

		case OpLitBegin:
			ln := &p.litNames[in.A]
			r.out.BeginElement(ln.prefix, ln.uri, ln.name)

		case OpAttrSets:
			next, err := r.runSets(in.A, pc+1)
			if err != nil {
				return err
			}
			pc = next
			continue

		case OpLitAttr:
			la := &p.litAttrs[in.A]
			r.out.Attr(la.prefix, la.uri, la.name, la.value)

		case OpAVTAttr:
			aa := &p.avtAttrs[in.A]
			v, err := r.evalAVT(aa.value)
			if err != nil {
				return err
			}
			r.out.Attr(aa.prefix, aa.uri, aa.name, v)

		case OpEndElem:
			r.out.EndElement()

		case OpApply:
			site := p.applySites[in.A]
			var list []*xmldom.Node
			switch {
			case site.self:
				// The root invocation ends the prologue: caller parameters
				// no xsl:param declares become visible after the globals.
				for _, slot := range p.undeclared {
					if v := r.slots[p.globals+slot]; v != nil {
						r.slots[slot] = v
					}
				}
				list = r.ctx.node.Singleton()
			case site.sel != nil:
				ns, err := site.sel.EvalNodesOn(r.ectx(), f)
				if err != nil {
					return err
				}
				list = ns
			default:
				list = r.ctx.node.Children
			}
			if len(site.sorts) > 0 {
				var err error
				if list, err = r.sortNodes(list, site.sorts); err != nil {
					return err
				}
			}
			// The with-params that follow bind into the caller's frame,
			// which this frame records; the template bodies return to its
			// iterate (operand b).
			if err := r.push(xpath.CtlFrame{
				Kind: cfApply, Ret: in.B, Site: in.A,
				Node: r.ctx.node, Pos: r.ctx.pos, Size: r.ctx.size,
				Mode: r.ctx.mode, Prec: r.ctx.curPrec,
				List: list, Base: int32(r.base),
			}); err != nil {
				return err
			}

		case OpIterate:
			fr := f.TopCtl()
			site := p.applySites[in.A]
			entered := false
			for int(fr.Idx) < len(fr.List) {
				i := int(fr.Idx)
				fr.Idx++
				n := fr.List[i]
				t, err := r.dispatch(site.disp, n, fr.Node, fr.Pos, fr.Size, maxInt)
				if err != nil {
					return err
				}
				if t == nil {
					continue // no rule at all (should not happen: built-ins exist)
				}
				r.ctx.node = n
				r.ctx.pos = i + 1
				r.ctx.size = len(fr.List)
				r.ctx.mode = site.mode
				pc = int(t.entryPC)
				entered = true
				break
			}
			if entered {
				continue
			}
			// List exhausted: restore the caller's context and leave the loop.
			r.ctx.node, r.ctx.pos, r.ctx.size = fr.Node, fr.Pos, fr.Size
			r.ctx.mode, r.ctx.curPrec = fr.Mode, fr.Prec
			f.PopCtl()
			pc = int(in.B)
			continue

		case OpEnter:
			// The template's frame opens above its caller's. Parameter
			// defaults evaluate under the caller's precedence;
			// OpParamsEnd installs the template's.
			pt := p.tmpls[in.A]
			r.enter(int(pt.frame))
			if in.B == 0 {
				r.ctx.curPrec = pt.t.importPrec
			}

		case OpParam:
			// The apply or call frame that entered the template is on top.
			d := p.varDecls[in.A]
			if v, ok := r.passed(f.TopCtl(), d.name); ok {
				r.bind(d, v)
				pc = int(in.B)
				continue
			}

		case OpParamsEnd:
			r.ctx.curPrec = p.tmpls[in.A].t.importPrec

		case OpGlobalParam:
			d := p.varDecls[in.A]
			if v := r.slots[p.globals+d.slot]; v != nil {
				r.bind(d, v)
				pc = int(in.B)
				continue
			}

		case OpRet:
			fr := f.TopCtl()
			switch fr.Kind {
			case cfApply:
				// Back into the apply loop; the frame stays for the next node.
				r.leave(fr.Base)
				pc = int(fr.Ret)
			case cfSets:
				// Next attribute-set subroutine of the list, or done.
				sl := p.setLists[fr.Site]
				fr.Idx++
				if int(fr.Idx) < len(sl.subs) {
					pc = int(sl.subs[fr.Idx])
					continue
				}
				if sl.err != "" {
					return &TransformError{Msg: sl.err}
				}
				r.leave(fr.Base)
				pc = int(fr.Ret)
				f.PopCtl()
			default:
				// Call frame: restore frame and precedence, pop, return.
				r.leave(fr.Base)
				r.ctx.curPrec = fr.Prec
				pc = int(fr.Ret)
				f.PopCtl()
			}
			continue

		case OpCall:
			// The with-params that follow bind into the caller's frame,
			// which this frame records.
			cs := p.callSites[in.A]
			if cs.t == nil {
				return &TransformError{Msg: "call-template: no template named " + cs.name}
			}
			if err := r.push(xpath.CtlFrame{Kind: cfCall, Site: in.A, Prec: r.ctx.curPrec, Base: int32(r.base)}); err != nil {
				return err
			}

		case OpInvoke:
			f.TopCtl().Ret = int32(pc + 1)
			pc = int(p.callSites[in.A].t.entryPC)
			continue

		case OpApplyImports:
			t, err := r.dispatch(e.sheet.index[r.ctx.mode], r.ctx.node,
				r.ctx.node, r.ctx.pos, r.ctx.size, r.ctx.curPrec)
			if err != nil {
				return err
			}
			if t == nil {
				break // no lower-precedence rule: no output
			}
			// Site -1: xsl:apply-imports passes no parameters.
			if err := r.push(xpath.CtlFrame{
				Kind: cfCall, Ret: int32(pc + 1), Site: -1,
				Prec: r.ctx.curPrec, Base: int32(r.base),
			}); err != nil {
				return err
			}
			pc = int(t.entryPC)
			continue

		case OpForEach:
			site := p.forSites[in.A]
			ns, err := site.sel.EvalNodesOn(r.ectx(), f)
			if err != nil {
				return err
			}
			list := []*xmldom.Node(ns)
			if len(site.sorts) > 0 {
				if list, err = r.sortNodes(list, site.sorts); err != nil {
					return err
				}
			}
			if err := r.push(xpath.CtlFrame{
				Kind: cfFor, Node: r.ctx.node, Pos: r.ctx.pos, Size: r.ctx.size,
				List: list,
			}); err != nil {
				return err
			}

		case OpForNext:
			fr := f.TopCtl()
			if int(fr.Idx) < len(fr.List) {
				r.ctx.node = fr.List[fr.Idx]
				r.ctx.pos = int(fr.Idx) + 1
				r.ctx.size = len(fr.List)
				fr.Idx++
			} else {
				r.ctx.node, r.ctx.pos, r.ctx.size = fr.Node, fr.Pos, fr.Size
				f.PopCtl()
				pc = int(in.B)
				continue
			}

		case OpForEnd:
			pc = int(in.A)
			continue

		case OpVarDecl:
			d := p.varDecls[in.A]
			var v xpath.Value = xpath.String("")
			if d.sel != nil {
				var err error
				if v, err = d.sel.EvalOn(r.ectx(), f); err != nil {
					return err
				}
			}
			r.bind(d, v)

		case OpRTFBegin:
			frag := xmldom.NewDocument()
			if err := r.push(xpath.CtlFrame{Kind: cfCap, Node: frag, Out: r.out}); err != nil {
				return err
			}
			r.out = xmldom.NewTreeEmitter(frag)

		case OpRTFEnd:
			// A fragment is a node-set holding its document node, which
			// this processor also accepts where node-sets are expected
			// (like the common exsl:node-set extension).
			// The capture is closed, so the fragment is frozen like every
			// other tree the evaluators read.
			fr := f.TopCtl()
			frag := fr.Node
			xmldom.Freeze(frag)
			r.out = fr.Out.(xmldom.Emitter)
			f.PopCtl()
			r.bind(p.varDecls[in.A], xpath.NodeSet{frag})

		case OpElemBegin:
			es := p.elemSites[in.A]
			name, err := r.evalAVT(es.name)
			if err != nil {
				return err
			}
			prefix, local := splitQName(name)
			uri := ""
			if prefix != "" {
				uri = e.sheet.exprNS[prefix]
			}
			r.out.BeginElement(prefix, uri, local)

		case OpAttrBegin:
			if !r.out.OpenElement() {
				return &TransformError{Msg: "xsl:attribute outside an element"}
			}
			name, err := r.evalAVT(p.avts[in.A])
			if err != nil {
				return err
			}
			if err := r.push(xpath.CtlFrame{Kind: cfCap, Str: name, Out: r.out}); err != nil {
				return err
			}
			r.out = &textSink{}

		case OpAttrEnd:
			fr := f.TopCtl()
			sv := r.out.(*textSink).b.String()
			r.out = fr.Out.(xmldom.Emitter)
			name := fr.Str
			f.PopCtl()
			prefix, local := splitQName(name)
			uri := ""
			if prefix != "" {
				uri = e.sheet.exprNS[prefix]
			}
			if !r.out.Attr(prefix, uri, local, sv) {
				return &TransformError{Msg: "xsl:attribute outside an element"}
			}

		case OpCommentBegin:
			if err := r.push(xpath.CtlFrame{Kind: cfCap, Out: r.out}); err != nil {
				return err
			}
			r.out = &textSink{}

		case OpCommentEnd:
			fr := f.TopCtl()
			sv := r.out.(*textSink).b.String()
			r.out = fr.Out.(xmldom.Emitter)
			f.PopCtl()
			r.out.Comment(sv)

		case OpPIBegin:
			name, err := r.evalAVT(p.avts[in.A])
			if err != nil {
				return err
			}
			if err := r.push(xpath.CtlFrame{Kind: cfCap, Str: name, Out: r.out}); err != nil {
				return err
			}
			r.out = &textSink{}

		case OpPIEnd:
			fr := f.TopCtl()
			sv := r.out.(*textSink).b.String()
			r.out = fr.Out.(xmldom.Emitter)
			name := fr.Str
			f.PopCtl()
			r.out.PI(name, sv)

		case OpMsgBegin:
			if err := r.push(xpath.CtlFrame{Kind: cfCap, Out: r.out}); err != nil {
				return err
			}
			r.out = &textSink{}

		case OpMsgEnd:
			fr := f.TopCtl()
			msg := r.out.(*textSink).b.String()
			r.out = fr.Out.(xmldom.Emitter)
			f.PopCtl()
			e.messages = append(e.messages, msg)
			if in.A != 0 {
				return &TransformError{Msg: "terminated by xsl:message: " + msg}
			}

		case OpDocBegin:
			href, err := r.evalAVT(p.avts[in.A])
			if err != nil {
				return err
			}
			if in.B != 0 && e.offTarget(href) {
				// A leaf body of another page: record the href, skip the body.
				e.documentOut(href, true)
				pc = int(in.B)
				continue
			}
			if err := r.push(xpath.CtlFrame{Kind: cfDoc, Out: r.out}); err != nil {
				return err
			}
			r.out = e.documentOut(href, false)

		case OpDocEnd:
			fr := f.TopCtl()
			r.out = fr.Out.(xmldom.Emitter)
			f.PopCtl()

		case OpCopyBegin:
			n := r.ctx.node
			switch n.Type {
			case xmldom.ElementNode:
				r.out.BeginElement(n.Prefix, n.URI, n.Name)
				if li := p.copySites[in.A]; li >= 0 {
					next, err := r.runSets(li, pc+1)
					if err != nil {
						return err
					}
					pc = next
					continue
				}
			case xmldom.DocumentNode:
				// content only
			case xmldom.TextNode:
				r.out.Text(n.Data, false)
				pc = int(in.B)
				continue
			case xmldom.AttrNode:
				r.out.Attr(n.Prefix, n.URI, n.Name, n.Data) // ignored outside an element
				pc = int(in.B)
				continue
			case xmldom.CommentNode:
				r.out.Comment(n.Data)
				pc = int(in.B)
				continue
			case xmldom.PINode:
				r.out.PI(n.Name, n.Data)
				pc = int(in.B)
				continue
			}

		case OpCopyEnd:
			if r.ctx.node.Type == xmldom.ElementNode {
				r.out.EndElement()
			}

		case OpCopyOf:
			v, err := p.exprs[in.A].EvalOn(r.ectx(), f)
			if err != nil {
				return err
			}
			ns, ok := v.(xpath.NodeSet)
			if !ok {
				r.out.Text(xpath.ToString(v), false)
				break
			}
			for _, n := range ns {
				switch n.Type {
				case xmldom.DocumentNode:
					for _, c := range n.Children {
						r.out.CopyTree(c)
					}
				case xmldom.AttrNode:
					r.out.Attr(n.Prefix, n.URI, n.Name, n.Data) // ignored outside an element
				default:
					r.out.CopyTree(n)
				}
			}

		case OpNumber:
			ns := p.numSites[in.A]
			n, err := r.number(ns)
			if err != nil {
				return err
			}
			r.out.Text(formatCounter(n, ns.format), false)

		default:
			return &TransformError{Msg: "internal: bad opcode"}
		}
		pc++
	}
}
