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
	cfApply  uint8 = iota + 1 // apply-templates node loop
	cfCall                    // call-template / apply-imports invocation
	cfFor                     // for-each loop
	cfScope                   // copy-on-write variable scope
	cfCap                     // output capture (attribute/comment/PI/message/fragment)
	cfDoc                     // xsl:document output redirect
	cfParams                  // template-parameter scope being bound
	cfSets                    // attribute-set list being applied
)

// maxDepth bounds the control stack so runaway (circular) templates fail
// cleanly instead of exhausting memory.
const maxDepth = 3200

// vmRun is the mutable state of one program execution.
type vmRun struct {
	e   *engine
	p   *Program
	f   *xpath.Frame
	ctx xctx
	out xmldom.Emitter
	// params are the caller's stylesheet parameters.
	params map[string]xpath.Value
	// globals is the top-level scope: the global variables and, from the
	// root invocation on, the caller's parameters. Every template enters
	// with it, so a template sees globals, its own parameters and its own
	// locals, never its caller's (XSLT 1.0 §11.5).
	globals map[string]xpath.Value
	// xc is the persistent expression-evaluation context; refreshed from
	// ctx before each evaluation instead of boxing a new one.
	xc xpath.Context
	// mc is the persistent pattern-match context used by dispatch.
	mc xpath.Context
}

// execute runs the program over source with the caller's stylesheet
// parameters, writing the principal output to out.
func (p *Program) execute(e *engine, source *xmldom.Node, params map[string]xpath.Value, out xmldom.Emitter) error {
	f := xpath.GetFrame()
	defer xpath.PutFrame(f)
	r := p.newRun(e, f)
	r.ctx = xctx{node: source, pos: 1, size: 1, vars: map[string]xpath.Value{}}
	r.globals = r.ctx.vars
	r.out = out
	r.params = params
	err := r.loop()
	if n := int32(len(e.docOrder)); n != p.docHint.Load() {
		p.docHint.Store(n)
	}
	return err
}

func (p *Program) newRun(e *engine, f *xpath.Frame) *vmRun {
	r := &vmRun{e: e, p: p, f: f}
	r.xc.Funcs = e.funcs
	r.xc.NS = e.sheet.exprNS
	r.mc.Funcs = e.funcs
	r.mc.NS = e.sheet.exprNS
	return r
}

// ectx refreshes and returns the shared expression context from the
// execution context.
func (r *vmRun) ectx() *xpath.Context {
	r.xc.Node = r.ctx.node
	r.xc.Position = r.ctx.pos
	r.xc.Size = r.ctx.size
	r.xc.Vars = r.ctx.vars
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
// carries the *caller's* position, size, variables and current node.
func (r *vmRun) dispatch(ix *templateIndex, node *xmldom.Node, vars map[string]xpath.Value,
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
	mc.Vars = vars
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

// bind stores a variable, parameter or with-param value in the scope
// target names.
func (r *vmRun) bind(name string, v xpath.Value, target int32) {
	switch target {
	case BindVar:
		r.ctx.vars[name] = v
	case BindPassed:
		fr := r.f.TopCtl()
		if fr.Passed == nil {
			fr.Passed = make(map[string]xpath.Value, 4)
		}
		fr.Passed[name] = v
	case BindParam:
		r.f.TopCtl().Vars[name] = v
	}
}

// runSets starts the attribute-set list li and returns the pc to
// continue at: the list's first subroutine, or ret when it is empty.
func (r *vmRun) runSets(li int32, ret int) (int, error) {
	sl := r.p.setLists[li]
	if len(sl.subs) == 0 {
		if sl.err != "" {
			return 0, &TransformError{Msg: sl.err}
		}
		return ret, nil
	}
	if err := r.push(xpath.CtlFrame{Kind: cfSets, Ret: int32(ret), Site: li}); err != nil {
		return 0, err
	}
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
	// Flat backing arrays: keys/nums for node i, key j live at i*nk+j.
	var keys []string
	var nums []float64
	if anyText {
		keys = make([]string, len(list)*nk)
	}
	if anyNum {
		nums = make([]float64, len(list)*nk)
	}
	order := make([]int, len(list))
	xc := &r.xc
	xc.Size = len(list)
	xc.Vars = r.ctx.vars
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
				for name, v := range r.params {
					if _, ok := r.ctx.vars[name]; !ok {
						r.ctx.vars[name] = v
					}
				}
				list = []*xmldom.Node{r.ctx.node}
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
			// The with-params that follow bind into this frame's Passed;
			// the template bodies return to its iterate (operand b).
			if err := r.push(xpath.CtlFrame{
				Kind: cfApply, Ret: in.B, Site: in.A,
				Node: r.ctx.node, Pos: r.ctx.pos, Size: r.ctx.size,
				Vars: r.ctx.vars, Mode: r.ctx.mode, Prec: r.ctx.curPrec,
				List: list,
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
				t, err := r.dispatch(site.disp, n, fr.Vars, fr.Node, fr.Pos, fr.Size, maxInt)
				if err != nil {
					return err
				}
				if t == nil {
					continue // no rule at all (should not happen: built-ins exist)
				}
				r.ctx.node = n
				r.ctx.pos = i + 1
				r.ctx.size = len(fr.List)
				r.ctx.vars = r.globals
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
			r.ctx.vars, r.ctx.mode, r.ctx.curPrec = fr.Vars, fr.Mode, fr.Prec
			f.PopCtl()
			pc = int(in.B)
			continue

		case OpEnter:
			t := p.tmpls[in.A].t
			if in.B == 0 {
				r.ctx.curPrec = t.importPrec
				break
			}
			// Open the parameter scope over the globals. Defaults evaluate
			// in it, so each sees the parameters before it, under the
			// caller's precedence; OpParamsEnd installs the template's.
			vars := copyVars(r.globals)
			if err := r.push(xpath.CtlFrame{
				Kind: cfParams, Vars: vars,
				Prec: t.importPrec, Passed: f.TopCtl().Passed,
			}); err != nil {
				return err
			}
			r.ctx.vars = vars

		case OpParam:
			fr := f.TopCtl()
			name := p.varDecls[in.A].name
			if v, ok := fr.Passed[name]; ok {
				fr.Vars[name] = v
				pc = int(in.B)
				continue
			}

		case OpParamsEnd:
			fr := f.TopCtl()
			r.ctx.vars, r.ctx.curPrec = fr.Vars, fr.Prec
			f.PopCtl()

		case OpGlobalParam:
			name := p.varDecls[in.A].name
			if v, ok := r.params[name]; ok {
				r.ctx.vars[name] = v
				pc = int(in.B)
				continue
			}

		case OpRet:
			fr := f.TopCtl()
			switch fr.Kind {
			case cfApply:
				// Back into the apply loop; the frame stays for the next node.
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
				pc = int(fr.Ret)
				f.PopCtl()
			default:
				// Call frame: restore scope and precedence, pop, return.
				r.ctx.vars = fr.Vars
				r.ctx.curPrec = fr.Prec
				pc = int(fr.Ret)
				f.PopCtl()
			}
			continue

		case OpCall:
			// The with-params that follow bind into this frame's Passed.
			cs := p.callSites[in.A]
			if cs.t == nil {
				return &TransformError{Msg: "call-template: no template named " + cs.name}
			}
			if err := r.push(xpath.CtlFrame{Kind: cfCall, Vars: r.ctx.vars, Prec: r.ctx.curPrec}); err != nil {
				return err
			}

		case OpInvoke:
			f.TopCtl().Ret = int32(pc + 1)
			r.ctx.vars = r.globals
			pc = int(p.callSites[in.A].t.entryPC)
			continue

		case OpApplyImports:
			t, err := r.dispatch(e.sheet.index[r.ctx.mode], r.ctx.node, r.ctx.vars,
				r.ctx.node, r.ctx.pos, r.ctx.size, r.ctx.curPrec)
			if err != nil {
				return err
			}
			if t == nil {
				break // no lower-precedence rule: no output
			}
			if err := r.push(xpath.CtlFrame{
				Kind: cfCall, Ret: int32(pc + 1),
				Vars: r.ctx.vars, Prec: r.ctx.curPrec,
			}); err != nil {
				return err
			}
			r.ctx.vars = r.globals
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

		case OpScopeBegin:
			if err := r.push(xpath.CtlFrame{Kind: cfScope, Vars: r.ctx.vars}); err != nil {
				return err
			}
			r.ctx.vars = copyVars(r.ctx.vars)

		case OpScopeEnd:
			fr := f.TopCtl()
			r.ctx.vars = fr.Vars
			f.PopCtl()

		case OpVarDecl:
			d := p.varDecls[in.A]
			var v xpath.Value = xpath.String("")
			if d.sel != nil {
				var err error
				if v, err = d.sel.EvalOn(r.ectx(), f); err != nil {
					return err
				}
			}
			r.bind(d.name, v, in.B)

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
			r.bind(p.varDecls[in.A].name, xpath.NodeSet{frag}, in.B)

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
