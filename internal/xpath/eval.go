package xpath

import "goldweb/internal/xmldom"

// Evaluation helpers shared by the IR evaluator (vm.go), XSLT pattern
// matching (pattern.go) and the test-only reference interpreter:
// comparison semantics, axis traversal, node tests and predicate
// filtering.

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

// evaluator is what a predicate needs to be applied: *Compiled in
// production, and the raw parse-tree nodes in the reference interpreter.
type evaluator interface {
	Eval(ctx *Context) (Value, error)
}

// applyPredicate filters nodes (already in forward order) by pred.
func applyPredicate(ctx *Context, nodes []*xmldom.Node, pred evaluator) ([]*xmldom.Node, error) {
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

// forwardAxis reports whether axisNodes results along this axis come back
// in document order and duplicate-free for a single context node.
func forwardAxis(a axisType) bool {
	switch a {
	case axisAncestor, axisAncestorOrSelf, axisPreceding, axisPrecedingSibling:
		return false
	}
	return true
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
