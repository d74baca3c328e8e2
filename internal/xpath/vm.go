package xpath

import (
	"fmt"
	"math"
	"sync"

	"goldweb/internal/xmldom"
)

// The IR evaluator: a small stack machine over unboxed tagged values.
// One pooled frame per top-level evaluation; nested programs
// (predicates) run on the same frame with a saved base, like call
// frames. Nested Compiled evaluations triggered from extension
// functions (key(), document()) acquire their own frame from the pool,
// so re-entrancy is safe.

// vkind tags an irval with one of the four XPath 1.0 value types.
type vkind uint8

const (
	vNodes vkind = iota
	vBool
	vNum
	vStr
)

// irval is an unboxed XPath value: scalars live inline, so arithmetic,
// comparisons and boolean logic never allocate.
type irval struct {
	kind  vkind
	b     bool
	num   float64
	str   string
	nodes NodeSet
}

func boolVal(b bool) irval             { return irval{kind: vBool, b: b} }
func numVal(f float64) irval           { return irval{kind: vNum, num: f} }
func strVal(s string) irval            { return irval{kind: vStr, str: s} }
func nodesVal(ns []*xmldom.Node) irval { return irval{kind: vNodes, nodes: ns} }

// fromValue unboxes a Value. A nil Value (which no conforming function
// should return) maps to the empty node-set.
func fromValue(v Value) irval {
	switch t := v.(type) {
	case NodeSet:
		return nodesVal(t)
	case Boolean:
		return boolVal(bool(t))
	case Number:
		return numVal(float64(t))
	case String:
		return strVal(string(t))
	}
	return nodesVal(nil)
}

// boxed converts back to the interface Value form.
func (v irval) boxed() Value {
	switch v.kind {
	case vBool:
		return Boolean(v.b)
	case vNum:
		return Number(v.num)
	case vStr:
		return String(v.str)
	}
	return v.nodes
}

func (v irval) truthy() bool {
	switch v.kind {
	case vBool:
		return v.b
	case vNum:
		return v.num != 0 && !math.IsNaN(v.num)
	case vStr:
		return len(v.str) > 0
	}
	return len(v.nodes) > 0
}

func (v irval) toStr() string {
	switch v.kind {
	case vBool:
		if v.b {
			return "true"
		}
		return "false"
	case vNum:
		return FormatNumber(v.num)
	case vStr:
		return v.str
	}
	if len(v.nodes) == 0 {
		return ""
	}
	return v.nodes[0].StringValue()
}

func (v irval) toNum() float64 {
	switch v.kind {
	case vBool:
		if v.b {
			return 1
		}
		return 0
	case vNum:
		return v.num
	case vStr:
		return stringToNumber(v.str)
	}
	return stringToNumber(v.toStr())
}

// contextPool recycles evaluation contexts for callers that set up a
// fresh Context per evaluation on a hot path (the xslt engine, the xsd
// identity-constraint validator). GetContext/PutContext is the one
// variable-binding plumbing both share, so poolcheck covers them
// together.
var contextPool = sync.Pool{New: func() interface{} { return new(Context) }}

// GetContext returns a zeroed Context from the pool. Release it with
// PutContext when the evaluation is done.
func GetContext() *Context { return contextPool.Get().(*Context) }

// PutContext returns a Context to the pool, dropping every binding so
// the pooled value never pins documents, variables or function tables.
func PutContext(c *Context) {
	*c = Context{}
	contextPool.Put(c)
}

// frame is the pooled operand stack of one top-level IR evaluation.
type frame struct {
	stack []irval
}

var framePool = sync.Pool{New: func() interface{} { return &frame{stack: make([]irval, 0, 16)} }}

// getFrame returns a pooled frame with room for need operand slots, so
// deep programs never grow the stack mid-evaluation.
func getFrame(need int) *frame {
	f := framePool.Get().(*frame)
	if cap(f.stack) < need {
		f.stack = make([]irval, 0, need)
	}
	return f
}

func putFrame(f *frame) {
	f.truncate(0)
	framePool.Put(f)
}

func (f *frame) push(v irval) { f.stack = append(f.stack, v) }

func (f *frame) pop() irval {
	i := len(f.stack) - 1
	v := f.stack[i]
	f.stack[i] = irval{} // do not retain node-sets in the pooled array
	f.stack = f.stack[:i]
	return v
}

// truncate drops down to base, clearing the abandoned slots so the
// pooled array never pins node-sets.
func (f *frame) truncate(base int) {
	for i := base; i < len(f.stack); i++ {
		f.stack[i] = irval{}
	}
	f.stack = f.stack[:base]
}

// run executes the compiled program on a pooled frame, first freezing
// the context node's tree in place when it is not frozen yet: the
// evaluator reads document order and the name and ID indexes, which
// exist only on frozen trees. (An inline stack-allocated frame was
// tried and lost: exec leaks its frame parameter through the
// path-evaluation call chain, so the backing array is heap-moved on
// every run — the pool amortizes that.)
func (c *Compiled) run(ctx *Context) (irval, error) {
	if n := ctx.Node; n != nil && !n.Frozen() {
		xmldom.Freeze(n.Root())
	}
	f := getFrame(c.prog.maxStack)
	v, err := exec(c.prog, ctx, f)
	putFrame(f)
	return v, err
}

// Eval evaluates the expression via the planned IR. Compiled satisfies
// the Expr interface, so existing call sites keep working unchanged.
// Like every Eval* method, it freezes the context node's tree in place
// when it is not frozen yet (see xmldom.Freeze), so the tree can no
// longer be edited afterwards. An unfrozen tree is not safe for
// concurrent evaluation: freeze it before sharing it.
func (c *Compiled) Eval(ctx *Context) (Value, error) {
	v, err := c.run(ctx)
	if err != nil {
		return nil, err
	}
	return v.boxed(), nil
}

// EvalBool evaluates the expression and coerces the result to a boolean
// without boxing intermediate values.
func (c *Compiled) EvalBool(ctx *Context) (bool, error) {
	v, err := c.run(ctx)
	if err != nil {
		return false, err
	}
	return v.truthy(), nil
}

// EvalString evaluates the expression and coerces the result to its
// XPath string value without boxing.
func (c *Compiled) EvalString(ctx *Context) (string, error) {
	v, err := c.run(ctx)
	if err != nil {
		return "", err
	}
	return v.toStr(), nil
}

// EvalNumber evaluates the expression and coerces the result to a
// number without boxing.
func (c *Compiled) EvalNumber(ctx *Context) (float64, error) {
	v, err := c.run(ctx)
	if err != nil {
		return 0, err
	}
	return v.toNum(), nil
}

// EvalNodes evaluates the expression and returns the resulting node-set
// in document order; it is an error if the expression yields a scalar.
func (c *Compiled) EvalNodes(ctx *Context) (NodeSet, error) {
	v, err := c.run(ctx)
	if err != nil {
		return nil, err
	}
	if v.kind != vNodes {
		return nil, fmt.Errorf("xpath: %s does not evaluate to a node-set", c.src)
	}
	return v.nodes, nil
}

// exec runs one program on the frame, returning the single result
// value. The frame is restored to its entry depth on every path.
func exec(p *program, ctx *Context, f *frame) (irval, error) {
	base := len(f.stack)
	code := p.code
	var rerr error
loop:
	for pc := 0; pc < len(code); pc++ {
		in := code[pc]
		switch in.op {
		case opConst:
			f.push(p.consts[in.a])
		case opVar:
			v, err := ctx.lookupVar(p.names[in.a])
			if err != nil {
				rerr = err
				break loop
			}
			f.push(fromValue(v))
		case opNeg:
			v := f.pop()
			f.push(numVal(-v.toNum()))
		case opAdd, opSub, opMul, opDiv, opMod:
			r := f.pop()
			l := f.pop()
			a, b := l.toNum(), r.toNum()
			var res float64
			switch in.op {
			case opAdd:
				res = a + b
			case opSub:
				res = a - b
			case opMul:
				res = a * b
			case opDiv:
				res = a / b
			case opMod:
				res = math.Mod(a, b)
			}
			f.push(numVal(res))
		case opEq, opNeq, opLt, opLe, opGt, opGe:
			r := f.pop()
			l := f.pop()
			f.push(boolVal(compareIR(in.op, l, r)))
		case opJmpFalse:
			v := f.pop()
			if !v.truthy() {
				f.push(boolVal(false))
				pc = int(in.a) - 1
			}
		case opJmpTrue:
			v := f.pop()
			if v.truthy() {
				f.push(boolVal(true))
				pc = int(in.a) - 1
			}
		case opToBool:
			v := f.pop()
			f.push(boolVal(v.truthy()))
		case opUnion:
			n := int(in.a)
			var all []*xmldom.Node
			parts := f.stack[len(f.stack)-n:]
			for i := range parts {
				if parts[i].kind != vNodes {
					rerr = fmt.Errorf("xpath: operand of | is not a node-set")
					break loop
				}
				all = append(all, parts[i].nodes...)
			}
			f.truncate(len(f.stack) - n)
			f.push(nodesVal(xmldom.SortDocOrder(all)))
		case opCall:
			cs := p.calls[in.a]
			var fn Function
			if ctx.Funcs != nil {
				fn = ctx.Funcs[cs.name]
			}
			if fn == nil {
				fn = coreFunctions[cs.name]
			}
			if fn == nil {
				rerr = fmt.Errorf("xpath: unknown function %s()", cs.name)
				break loop
			}
			var args []Value
			if cs.argc > 0 {
				args = make([]Value, cs.argc)
				for i := cs.argc - 1; i >= 0; i-- {
					args[i] = f.pop().boxed()
				}
			}
			v, err := fn(ctx, args)
			if err != nil {
				rerr = err
				break loop
			}
			f.push(fromValue(v))
		case opID:
			arg := f.pop()
			if fn := ctx.Funcs["id"]; fn != nil {
				// The context shadows the core id(); defer to it.
				v, err := fn(ctx, []Value{arg.boxed()})
				if err != nil {
					rerr = err
					break loop
				}
				f.push(fromValue(v))
				continue
			}
			f.push(nodesVal(idLookupIR(ctx, arg)))
		case opCurrent:
			if fn := ctx.Funcs["current"]; fn != nil {
				// The context shadows the core current(); defer to it.
				v, err := fn(ctx, nil)
				if err != nil {
					rerr = err
					break loop
				}
				f.push(fromValue(v))
				continue
			}
			f.push(nodesVal(currentNode(ctx)))
		case opPath:
			ns, err := evalPathPlan(p.paths[in.a], ctx, f)
			if err != nil {
				rerr = err
				break loop
			}
			f.push(nodesVal(ns))
		case opFilter:
			v := f.pop()
			if v.kind != vNodes {
				rerr = fmt.Errorf("xpath: predicate applied to non-node-set")
				break loop
			}
			nodes := []*xmldom.Node(v.nodes)
			for _, pr := range p.filters[in.a] {
				var err error
				nodes, err = applyPredPlan(ctx, nodes, pr, f)
				if err != nil {
					rerr = err
					break loop
				}
			}
			f.push(nodesVal(nodes))
		}
	}
	if rerr != nil {
		f.truncate(base)
		return irval{}, rerr
	}
	res := f.pop()
	return res, nil
}

// tokForOp maps comparison opcodes back to token kinds for the
// node-set comparison fallback.
func tokForOp(op opcode) tokKind {
	switch op {
	case opEq:
		return tokEq
	case opNeq:
		return tokNeq
	case opLt:
		return tokLt
	case opLe:
		return tokLe
	case opGt:
		return tokGt
	}
	return tokGe
}

// compareIR implements XPath comparison over unboxed operands. A
// node-set against a string or number is existential: true when some
// node's string value, taken as the other operand's type, compares true
// under the scalar rules, so neither side is boxed. Node-set against a
// boolean or another node-set falls back to the shared logic.
func compareIR(op opcode, l, r irval) bool {
	switch {
	case l.kind == vNodes && r.kind != vNodes && r.kind != vBool:
		for _, n := range l.nodes {
			if compareScalar(op, nodeAtomIR(n, r.kind), r) {
				return true
			}
		}
		return false
	case r.kind == vNodes && l.kind != vNodes && l.kind != vBool:
		for _, n := range r.nodes {
			if compareScalar(op, l, nodeAtomIR(n, l.kind)) {
				return true
			}
		}
		return false
	case l.kind == vNodes || r.kind == vNodes:
		return compare(tokForOp(op), l.boxed(), r.boxed())
	}
	return compareScalar(op, l, r)
}

// nodeAtomIR converts a node to the scalar type of the other operand of
// a comparison: a number for a number, else its string value.
func nodeAtomIR(n *xmldom.Node, other vkind) irval {
	if other == vNum {
		return numVal(stringToNumber(n.StringValue()))
	}
	return strVal(n.StringValue())
}

// compareScalar compares two scalars; it mirrors compareAtomic without
// boxing.
func compareScalar(op opcode, l, r irval) bool {
	if op == opEq || op == opNeq {
		var eq bool
		switch {
		case l.kind == vBool || r.kind == vBool:
			eq = l.truthy() == r.truthy()
		case l.kind == vNum || r.kind == vNum:
			eq = l.toNum() == r.toNum()
		default:
			eq = l.str == r.str
		}
		if op == opNeq {
			return !eq
		}
		return eq
	}
	a, b := l.toNum(), r.toNum()
	switch op {
	case opLt:
		return a < b
	case opLe:
		return a <= b
	case opGt:
		return a > b
	}
	return a >= b
}

// evalPathPlan walks a planned location path. A relative or absolute
// path starts from its one context node directly, so no start slice is
// built.
func evalPathPlan(pl *pathPlan, ctx *Context, f *frame) ([]*xmldom.Node, error) {
	var cur []*xmldom.Node
	steps := pl.steps
	if pl.hasInput {
		in := f.pop()
		if in.kind != vNodes {
			return nil, fmt.Errorf("xpath: path applied to non-node-set")
		}
		cur = in.nodes
	} else {
		n := ctx.Node
		if n == nil {
			if pl.absolute {
				return nil, fmt.Errorf("xpath: no context node for absolute path")
			}
			return nil, fmt.Errorf("xpath: no context node for path")
		}
		if pl.absolute {
			n = n.Root()
		}
		if len(steps) == 0 {
			return n.Singleton(), nil
		}
		sel, err := stepOne(ctx, n, steps[0], f)
		if err != nil {
			return nil, err
		}
		cur, steps = sel, steps[1:]
	}
	for _, st := range steps {
		if len(cur) == 1 {
			sel, err := stepOne(ctx, cur[0], st, f)
			if err != nil {
				return nil, err
			}
			cur = sel
			continue
		}
		var next []*xmldom.Node
		for _, n := range cur {
			sel, err := evalPlanStep(ctx, n, st, f)
			if err != nil {
				return nil, err
			}
			next = append(next, sel...)
		}
		cur = xmldom.SortDocOrder(next)
	}
	return cur, nil
}

// stepOne selects along one planned step from a single context node, in
// document order. On a planned forward axis the step already yields
// document order with no duplicates, so the merge sort is skipped and
// the result may stay a window into the document. A reverse axis sorts
// a fresh copy: SortDocOrder works in place and must never see a window.
func stepOne(ctx *Context, n *xmldom.Node, st *planStep, f *frame) ([]*xmldom.Node, error) {
	sel, err := evalPlanStep(ctx, n, st, f)
	if err != nil || st.forward || len(sel) < 2 {
		return sel, err
	}
	return xmldom.SortDocOrder(append([]*xmldom.Node(nil), sel...)), nil
}

// subseq collects an ordered subsequence of src. While the kept nodes
// form one contiguous run the result is a capped window into src; the
// first gap copies the run out and appends from there on.
type subseq struct {
	src    []*xmldom.Node
	lo, hi int
	out    []*xmldom.Node
	copied bool
}

// keep adds src[i]; calls come in increasing i.
func (s *subseq) keep(i int) {
	switch {
	case s.copied:
		s.out = append(s.out, s.src[i])
	case s.lo == s.hi:
		s.lo, s.hi = i, i+1
	case i == s.hi:
		s.hi++
	default:
		s.out = make([]*xmldom.Node, s.hi-s.lo, s.hi-s.lo+len(s.src)-i)
		copy(s.out, s.src[s.lo:s.hi])
		s.out = append(s.out, s.src[i])
		s.copied = true
	}
}

// nodes returns the kept nodes: nil when none, a capped window into src
// when they are contiguous, the copy otherwise.
func (s *subseq) nodes() []*xmldom.Node {
	if s.copied {
		return s.out
	}
	if s.lo == s.hi {
		return nil
	}
	return s.src[s.lo:s.hi:s.hi]
}

// evalPlanStep selects along one planned step from a single context
// node and applies its predicates in axis order.
func evalPlanStep(ctx *Context, n *xmldom.Node, st *planStep, f *frame) ([]*xmldom.Node, error) {
	var matched []*xmldom.Node
	var err error
	switch {
	case st.indexed:
		matched = indexedDescendants(n, st)
	case st.axis == axisAncestor || st.axis == axisAncestorOrSelf:
		matched, err = ancestorMatches(ctx, n, st)
	default:
		matched, err = axisMatches(ctx, n, st)
	}
	if err != nil {
		return nil, err
	}
	for _, pr := range st.preds {
		matched, err = applyPredPlan(ctx, matched, pr, f)
		if err != nil {
			return nil, err
		}
	}
	return matched, nil
}

// axisMatches returns the nodes on the step's axis from n that pass its
// node test. Matches that form one contiguous run of the axis come back
// as a window into it (the element's Children or Attr, or a frozen
// singleton).
func axisMatches(ctx *Context, n *xmldom.Node, st *planStep) ([]*xmldom.Node, error) {
	candidates := axisNodes(n, st.axis)
	sub := subseq{src: candidates}
	for i, c := range candidates {
		ok, err := matchTest(ctx, c, st.axis, st.test)
		if err != nil {
			return nil, err
		}
		if ok {
			sub.keep(i)
		}
	}
	return sub.nodes(), nil
}

// ancestorMatches tests n's ancestors (and n itself on ancestor-or-self)
// nearest first, in axis order, without building the axis. A lone match
// is its frozen singleton, so a step like ancestor::dimclass allocates
// nothing on a frozen document.
func ancestorMatches(ctx *Context, n *xmldom.Node, st *planStep) ([]*xmldom.Node, error) {
	var first *xmldom.Node
	var out []*xmldom.Node
	a := n
	if st.axis == axisAncestor {
		a = parentOf(n)
	}
	for ; a != nil; a = parentOf(a) {
		ok, err := matchTest(ctx, a, st.axis, st.test)
		if err != nil {
			return nil, err
		}
		switch {
		case !ok:
		case first == nil:
			first = a
		case out == nil:
			out = []*xmldom.Node{first, a}
		default:
			out = append(out, a)
		}
	}
	if out == nil && first != nil {
		return first.Singleton(), nil
	}
	return out, nil
}

// indexedDescendants answers a planned descendant name test straight
// from the document's name index. The index matches by local name alone,
// so a residual filter drops elements in a namespace. The result slice
// may alias the index, which is safe because every caller treats step
// results as read-only.
func indexedDescendants(n *xmldom.Node, st *planStep) []*xmldom.Node {
	list := n.IndexedDescendants(st.test.name, st.axis == axisDescendantOrSelf)
	for i, c := range list {
		if c.URI != "" {
			out := make([]*xmldom.Node, i, len(list))
			copy(out, list[:i])
			for _, d := range list[i:] {
				if d.URI == "" {
					out = append(out, d)
				}
			}
			return out
		}
	}
	return list
}

// applyPredPlan filters nodes (in axis order) by a planned predicate.
// The kept nodes come back as a capped window into nodes while they are
// contiguous (node-sets are read-only, so the window is safe to share).
func applyPredPlan(ctx *Context, nodes []*xmldom.Node, pr *predPlan, f *frame) ([]*xmldom.Node, error) {
	if k := pr.posConst; k > 0 {
		// Constant integer predicate: direct k-th selection, nothing to
		// evaluate per node.
		if k <= len(nodes) {
			return nodes[k-1 : k : k], nil
		}
		return nil, nil
	}
	out := subseq{src: nodes}
	// One reusable pooled sub-context for the whole scan; predicate
	// programs never retain the context they are given. (A plain local
	// would be heap-moved every call: exec leaks its context parameter
	// into the dynamically resolved function table.)
	sub := GetContext()
	defer PutContext(sub)
	*sub = *ctx
	sub.Size = len(nodes)
	for i, n := range nodes {
		sub.Node = n
		sub.Position = i + 1
		v, err := exec(pr.prog, sub, f)
		if err != nil {
			return nil, err
		}
		keep := false
		if !pr.posFree && v.kind == vNum {
			// A numeric predicate is an implicit position() = N test.
			keep = v.num == float64(i+1)
		} else {
			keep = v.truthy()
		}
		if keep {
			out.keep(i)
		}
	}
	return out.nodes(), nil
}
