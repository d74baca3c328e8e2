package xpath

import (
	"fmt"
	"math"

	"goldweb/internal/xmldom"
)

// The reference interpreter: a tree walk over the raw parse tree, with
// no normalization and no planning. Every step gathers its candidates
// and sorts them into document order. The differential test,
// index_test.go and FuzzIRvsReference compare the IR VM (vm.go) against
// it. It lives in test code only; production evaluates every
// expression on the VM. It shares the comparison, axis, node-test and
// predicate helpers of eval.go with the VM.

// EvalReference evaluates the expression with the reference
// interpreter. It re-parses the source to get the unnormalized parse
// tree. Unlike Eval it does not freeze the context tree, which must
// already be frozen.
func (c *Compiled) EvalReference(ctx *Context) (Value, error) {
	ast, err := parse(c.src)
	if err != nil {
		return nil, err
	}
	return refEval(ast, ctx)
}

// refEval evaluates a raw parse-tree node. Every node kind the parser
// produces has an Eval method in this file.
func refEval(e Expr, ctx *Context) (Value, error) {
	return e.(evaluator).Eval(ctx)
}

func (e literalExpr) Eval(ctx *Context) (Value, error) { return String(e), nil }
func (e numberExpr) Eval(ctx *Context) (Value, error)  { return Number(e), nil }

func (e varExpr) Eval(ctx *Context) (Value, error) { return ctx.lookupVar(string(e)) }

func (e *negExpr) Eval(ctx *Context) (Value, error) {
	v, err := refEval(e.e, ctx)
	if err != nil {
		return nil, err
	}
	return Number(-ToNumber(v)), nil
}

func (e *unionExpr) Eval(ctx *Context) (Value, error) {
	var all []*xmldom.Node
	for _, part := range e.parts {
		v, err := refEval(part, ctx)
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
		lv, err := refEval(e.l, ctx)
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
		rv, err := refEval(e.r, ctx)
		if err != nil {
			return nil, err
		}
		return Boolean(ToBool(rv)), nil
	}
	lv, err := refEval(e.l, ctx)
	if err != nil {
		return nil, err
	}
	rv, err := refEval(e.r, ctx)
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
		v, err := refEval(a, ctx)
		if err != nil {
			return nil, err
		}
		args[i] = v
	}
	return fn(ctx, args)
}

func (f *filterExpr) Eval(ctx *Context) (Value, error) {
	v, err := refEval(f.primary, ctx)
	if err != nil {
		return nil, err
	}
	ns, ok := v.(NodeSet)
	if !ok {
		return nil, fmt.Errorf("xpath: predicate applied to non-node-set in %s", f)
	}
	nodes := []*xmldom.Node(ns)
	for _, pred := range f.preds {
		nodes, err = applyPredicate(ctx, nodes, pred.(evaluator))
		if err != nil {
			return nil, err
		}
	}
	return NodeSet(nodes), nil
}

func (p *pathExpr) Eval(ctx *Context) (Value, error) {
	var start []*xmldom.Node
	switch {
	case p.input != nil:
		v, err := refEval(p.input, ctx)
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
	// Every step gathers and sorts. The VM instead follows the forward
	// and name-index flags the planner put on each planStep.
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
		matched, err = applyPredicate(ctx, matched, pred.(evaluator))
		if err != nil {
			return nil, err
		}
	}
	return matched, nil
}
