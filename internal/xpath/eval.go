package xpath

import (
	"fmt"
	"math"

	"goldweb/internal/xmldom"
)

// Query compiles and evaluates src with node as the context node.
// Convenience for one-shot queries; hot paths should Compile once.
func Query(node *xmldom.Node, src string) (Value, error) {
	e, err := Compile(src)
	if err != nil {
		return nil, err
	}
	return e.Eval(NewContext(node))
}

// QueryNodes evaluates src against node and returns the resulting node-set
// in document order. It is an error if the expression does not yield a
// node-set.
func QueryNodes(node *xmldom.Node, src string) ([]*xmldom.Node, error) {
	v, err := Query(node, src)
	if err != nil {
		return nil, err
	}
	ns, ok := v.(NodeSet)
	if !ok {
		return nil, fmt.Errorf("xpath: %s does not evaluate to a node-set", src)
	}
	return ns, nil
}

// QueryString evaluates src against node and returns the string value of
// the result.
func QueryString(node *xmldom.Node, src string) (string, error) {
	v, err := Query(node, src)
	if err != nil {
		return "", err
	}
	return ToString(v), nil
}

// ---- expression evaluation ----

func (e literalExpr) Eval(ctx *Context) (Value, error) { return String(e), nil }
func (e numberExpr) Eval(ctx *Context) (Value, error)  { return Number(e), nil }

func (e varExpr) Eval(ctx *Context) (Value, error) { return ctx.lookupVar(string(e)) }

func (e *negExpr) Eval(ctx *Context) (Value, error) {
	v, err := e.e.Eval(ctx)
	if err != nil {
		return nil, err
	}
	return Number(-ToNumber(v)), nil
}

func (e *unionExpr) Eval(ctx *Context) (Value, error) {
	var all []*xmldom.Node
	for _, part := range e.parts {
		v, err := part.Eval(ctx)
		if err != nil {
			return nil, err
		}
		ns, ok := v.(NodeSet)
		if !ok {
			return nil, fmt.Errorf("xpath: operand of | is not a node-set in %s", e)
		}
		all = append(all, ns...)
	}
	return NodeSet(xmldom.SortDocOrder(all)), nil
}

func (e *binaryExpr) Eval(ctx *Context) (Value, error) {
	// Short-circuit boolean operators.
	switch e.op {
	case tokAnd, tokOr:
		lv, err := e.l.Eval(ctx)
		if err != nil {
			return nil, err
		}
		lb := ToBool(lv)
		if e.op == tokAnd && !lb {
			return Boolean(false), nil
		}
		if e.op == tokOr && lb {
			return Boolean(true), nil
		}
		rv, err := e.r.Eval(ctx)
		if err != nil {
			return nil, err
		}
		return Boolean(ToBool(rv)), nil
	}
	lv, err := e.l.Eval(ctx)
	if err != nil {
		return nil, err
	}
	rv, err := e.r.Eval(ctx)
	if err != nil {
		return nil, err
	}
	switch e.op {
	case tokPlus, tokMinus, tokMultiply, tokDiv, tokMod:
		a, b := ToNumber(lv), ToNumber(rv)
		switch e.op {
		case tokPlus:
			return Number(a + b), nil
		case tokMinus:
			return Number(a - b), nil
		case tokMultiply:
			return Number(a * b), nil
		case tokDiv:
			return Number(a / b), nil
		case tokMod:
			return Number(math.Mod(a, b)), nil
		}
	case tokEq, tokNeq, tokLt, tokLe, tokGt, tokGe:
		return Boolean(compare(e.op, lv, rv)), nil
	}
	return nil, fmt.Errorf("xpath: unsupported operator in %s", e)
}

// compare implements the XPath 1.0 comparison semantics, including the
// existential rules for node-set operands.
func compare(op tokKind, l, r Value) bool {
	ln, lIsNS := l.(NodeSet)
	rn, rIsNS := r.(NodeSet)
	// A node-set compared with a boolean compares boolean(node-set),
	// not each node existentially.
	if _, ok := l.(Boolean); ok && rIsNS {
		return compareAtomic(op, l, Boolean(ToBool(r)))
	}
	if _, ok := r.(Boolean); ok && lIsNS {
		return compareAtomic(op, Boolean(ToBool(l)), r)
	}
	switch {
	case lIsNS && rIsNS:
		for _, a := range ln {
			sa := a.StringValue()
			for _, b := range rn {
				if compareAtomic(op, String(sa), String(b.StringValue())) {
					return true
				}
			}
		}
		return false
	case lIsNS:
		for _, a := range ln {
			if compareAtomic(op, nodeAtom(a, r), r) {
				return true
			}
		}
		return false
	case rIsNS:
		for _, b := range rn {
			if compareAtomic(op, l, nodeAtom(b, l)) {
				return true
			}
		}
		return false
	}
	return compareAtomic(op, l, r)
}

// nodeAtom converts a node to the atomic type dictated by the other
// comparison operand.
func nodeAtom(n *xmldom.Node, other Value) Value {
	switch other.(type) {
	case Number:
		return Number(stringToNumber(n.StringValue()))
	case Boolean:
		return Boolean(true) // a node in a node-set: boolean of non-empty set handled by caller semantics
	default:
		return String(n.StringValue())
	}
}

func compareAtomic(op tokKind, l, r Value) bool {
	if op == tokEq || op == tokNeq {
		_, lb := l.(Boolean)
		_, rb := r.(Boolean)
		var eq bool
		switch {
		case lb || rb:
			eq = ToBool(l) == ToBool(r)
		default:
			_, lnum := l.(Number)
			_, rnum := r.(Number)
			if lnum || rnum {
				eq = ToNumber(l) == ToNumber(r)
			} else {
				eq = ToString(l) == ToString(r)
			}
		}
		if op == tokEq {
			return eq
		}
		return !eq
	}
	a, b := ToNumber(l), ToNumber(r)
	switch op {
	case tokLt:
		return a < b
	case tokLe:
		return a <= b
	case tokGt:
		return a > b
	case tokGe:
		return a >= b
	}
	return false
}

func (e *callExpr) Eval(ctx *Context) (Value, error) {
	var fn Function
	if ctx.Funcs != nil {
		fn = ctx.Funcs[e.name]
	}
	if fn == nil {
		fn = coreFunctions[e.name]
	}
	if fn == nil {
		return nil, fmt.Errorf("xpath: unknown function %s()", e.name)
	}
	args := make([]Value, len(e.args))
	for i, a := range e.args {
		v, err := a.Eval(ctx)
		if err != nil {
			return nil, err
		}
		args[i] = v
	}
	return fn(ctx, args)
}

func (f *filterExpr) Eval(ctx *Context) (Value, error) {
	v, err := f.primary.Eval(ctx)
	if err != nil {
		return nil, err
	}
	ns, ok := v.(NodeSet)
	if !ok {
		return nil, fmt.Errorf("xpath: predicate applied to non-node-set in %s", f)
	}
	nodes := []*xmldom.Node(ns)
	for _, pred := range f.preds {
		nodes, err = applyPredicate(ctx, nodes, pred)
		if err != nil {
			return nil, err
		}
	}
	return NodeSet(nodes), nil
}

// applyPredicate filters nodes (already in forward order) by pred.
func applyPredicate(ctx *Context, nodes []*xmldom.Node, pred Expr) ([]*xmldom.Node, error) {
	var out []*xmldom.Node
	size := len(nodes)
	// One reusable sub-context for the whole scan instead of a copy per
	// node: predicate evaluation never retains the context it is given.
	sub := *ctx
	sub.Size = size
	for i, n := range nodes {
		sub.Node = n
		sub.Position = i + 1
		v, err := pred.Eval(&sub)
		if err != nil {
			return nil, err
		}
		keep := false
		if num, isNum := v.(Number); isNum {
			keep = float64(num) == float64(i+1)
		} else {
			keep = ToBool(v)
		}
		if keep {
			out = append(out, n)
		}
	}
	return out, nil
}

func (p *pathExpr) Eval(ctx *Context) (Value, error) {
	var start []*xmldom.Node
	switch {
	case p.input != nil:
		v, err := p.input.Eval(ctx)
		if err != nil {
			return nil, err
		}
		ns, ok := v.(NodeSet)
		if !ok {
			return nil, fmt.Errorf("xpath: path applied to non-node-set in %s", p)
		}
		start = ns
	case p.absolute:
		if ctx.Node == nil {
			return nil, fmt.Errorf("xpath: no context node for absolute path %s", p)
		}
		start = []*xmldom.Node{ctx.Node.Root()}
	default:
		if ctx.Node == nil {
			return nil, fmt.Errorf("xpath: no context node for path %s", p)
		}
		start = []*xmldom.Node{ctx.Node}
	}
	// No per-eval strategy detection here: the reference interpreter
	// always gathers and sorts. The compiled IR (vm.go) carries the
	// planner's precomputed forward-axis and name-index decisions.
	cur := start
	for _, s := range p.steps {
		var next []*xmldom.Node
		for _, n := range cur {
			sel, err := evalStep(ctx, n, s)
			if err != nil {
				return nil, err
			}
			next = append(next, sel...)
		}
		cur = xmldom.SortDocOrder(next)
	}
	return NodeSet(cur), nil
}

// forwardAxis reports whether evalStep results along this axis come back in
// document order and duplicate-free for a single context node.
func forwardAxis(a axisType) bool {
	switch a {
	case axisAncestor, axisAncestorOrSelf, axisPreceding, axisPrecedingSibling:
		return false
	}
	return true
}

// evalStep selects along one step from a single context node, applying the
// step's predicates with proximity positions in axis order.
func evalStep(ctx *Context, n *xmldom.Node, s *step) ([]*xmldom.Node, error) {
	candidates := axisNodes(n, s.axis)
	// Filter by node test first.
	matched := candidates[:0:0]
	for _, c := range candidates {
		ok, err := matchTest(ctx, c, s.axis, s.test)
		if err != nil {
			return nil, err
		}
		if ok {
			matched = append(matched, c)
		}
	}
	var err error
	for _, pred := range s.preds {
		matched, err = applyPredicate(ctx, matched, pred)
		if err != nil {
			return nil, err
		}
	}
	return matched, nil
}

// axisNodes returns the nodes on the given axis from n, in axis order
// (reverse document order for reverse axes, which is what predicate
// position semantics require).
func axisNodes(n *xmldom.Node, axis axisType) []*xmldom.Node {
	switch axis {
	case axisChild:
		// Callers never mutate axis results, so the child and attribute
		// slices, and the frozen singletons of the parent and self axes,
		// are returned without copying.
		return n.Children
	case axisDescendant:
		return n.Descendants()
	case axisDescendantOrSelf:
		return append([]*xmldom.Node{n}, n.Descendants()...)
	case axisParent:
		if p := parentOf(n); p != nil {
			return p.Singleton()
		}
		return nil
	case axisAncestor:
		var out []*xmldom.Node
		for p := parentOf(n); p != nil; p = parentOf(p) {
			out = append(out, p)
		}
		return out
	case axisAncestorOrSelf:
		out := []*xmldom.Node{n}
		for p := parentOf(n); p != nil; p = parentOf(p) {
			out = append(out, p)
		}
		return out
	case axisSelf:
		return n.Singleton()
	case axisAttribute:
		if n.Type != xmldom.ElementNode {
			return nil
		}
		return n.Attr
	case axisFollowingSibling:
		p := n.Parent
		if p == nil || n.Type == xmldom.AttrNode {
			return nil
		}
		var out []*xmldom.Node
		seen := false
		for _, c := range p.Children {
			if seen {
				out = append(out, c)
			}
			if c == n {
				seen = true
			}
		}
		return out
	case axisPrecedingSibling:
		p := n.Parent
		if p == nil || n.Type == xmldom.AttrNode {
			return nil
		}
		var out []*xmldom.Node
		for _, c := range p.Children {
			if c == n {
				break
			}
			out = append(out, c)
		}
		// reverse order for the reverse axis
		for i, j := 0, len(out)-1; i < j; i, j = i+1, j-1 {
			out[i], out[j] = out[j], out[i]
		}
		return out
	case axisFollowing:
		var out []*xmldom.Node
		cur := n
		if n.Type == xmldom.AttrNode {
			cur = n.Parent
			if cur == nil {
				return nil
			}
			out = append(out, cur.Descendants()...)
		}
		for cur != nil {
			for _, sib := range axisNodes(cur, axisFollowingSibling) {
				out = append(out, sib)
				out = append(out, sib.Descendants()...)
			}
			cur = parentOf(cur)
		}
		return out
	case axisPreceding:
		var out []*xmldom.Node
		cur := n
		if n.Type == xmldom.AttrNode {
			cur = n.Parent
			if cur == nil {
				return nil
			}
		}
		for cur != nil {
			for _, sib := range axisNodes(cur, axisPrecedingSibling) {
				// sibling's subtree in reverse document order
				desc := sib.Descendants()
				for i := len(desc) - 1; i >= 0; i-- {
					out = append(out, desc[i])
				}
				out = append(out, sib)
			}
			cur = parentOf(cur)
		}
		return out
	}
	return nil
}

// parentOf returns the XPath parent of n (for attributes, the owning
// element).
func parentOf(n *xmldom.Node) *xmldom.Node { return n.Parent }

// matchTest applies a node test to a candidate node. The principal node
// type is attribute for the attribute axis and element otherwise.
func matchTest(ctx *Context, n *xmldom.Node, axis axisType, t nodeTest) (bool, error) {
	principal := xmldom.ElementNode
	if axis == axisAttribute {
		principal = xmldom.AttrNode
	}
	switch t.kind {
	case testNode:
		return true, nil
	case testText:
		return n.Type == xmldom.TextNode, nil
	case testComment:
		return n.Type == xmldom.CommentNode, nil
	case testPI:
		return n.Type == xmldom.PINode && (t.piTarget == "" || n.Name == t.piTarget), nil
	case testAnyName:
		return n.Type == principal, nil
	case testNSWildcard:
		if n.Type != principal {
			return false, nil
		}
		uri, err := ctx.resolvePrefix(t.prefix)
		if err != nil {
			return false, err
		}
		return n.URI == uri, nil
	case testName:
		if n.Type != principal || n.Name != t.name {
			return false, nil
		}
		uri, err := ctx.resolvePrefix(t.prefix)
		if err != nil {
			return false, err
		}
		return n.URI == uri, nil
	}
	return false, nil
}
