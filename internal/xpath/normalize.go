package xpath

// Normalization: the first stage of the compilation pipeline. The parse
// AST is rewritten into an equivalent, canonical form that the planner
// can pattern-match without re-deriving facts per evaluation:
//
//   - constant folding (arithmetic, comparisons, boolean operators and
//     the constant core functions true()/false()/not()/boolean()/concat())
//   - axis canonicalization: `//` pairs
//     (descendant-or-self::node()/child::T[preds]) fuse into a single
//     descendant::T[preds] step when the predicates are provably
//     position-independent, and redundant self::node() steps are dropped
//   - predicate simplification: [position() = N] becomes the bare
//     numeric predicate [N], which the planner turns into a direct k-th
//     selection
//
// Normalization builds fresh nodes wherever a rewrite applies and never
// mutates its input tree. Folding of function calls assumes the
// core-library meaning of the function name: evaluation contexts may in
// principle shadow core functions via Context.Funcs, but no consumer in
// this repository does, and the differential test pins the VM against
// the test-only reference interpreter, which walks the unnormalized
// parse tree, under the real function sets.

// boolExpr is a folded boolean constant. The parser never produces it;
// it only appears in normalized ASTs.
type boolExpr bool

func (e boolExpr) String() string {
	if e {
		return "true()"
	}
	return "false()"
}

// normalizeExpr rewrites e bottom-up into its canonical form.
func normalizeExpr(e Expr) Expr {
	switch v := e.(type) {
	case *pathExpr:
		return normalizePath(v)
	case *filterExpr:
		nf := &filterExpr{primary: normalizeExpr(v.primary), preds: normalizePreds(v.preds)}
		return nf
	case *unionExpr:
		parts := make([]Expr, len(v.parts))
		for i, p := range v.parts {
			parts[i] = normalizeExpr(p)
		}
		return &unionExpr{parts: parts}
	case *negExpr:
		inner := normalizeExpr(v.e)
		if n, ok := inner.(numberExpr); ok {
			return numberExpr(-float64(n))
		}
		return &negExpr{e: inner}
	case *binaryExpr:
		return normalizeBinary(v)
	case *callExpr:
		return normalizeCall(v)
	default:
		// Leaves: literals, numbers, variables, and already-normalized
		// boolean constants.
		return e
	}
}

func normalizePath(p *pathExpr) *pathExpr {
	np := &pathExpr{absolute: p.absolute}
	if p.input != nil {
		np.input = normalizeExpr(p.input)
	}
	steps := make([]*step, 0, len(p.steps))
	for _, s := range p.steps {
		steps = append(steps, &step{axis: s.axis, test: s.test, preds: normalizePreds(s.preds)})
	}
	steps = dropSelfSteps(steps)
	np.steps = fuseSteps(steps)
	return np
}

// dropSelfSteps removes predicate-free self::node() steps from
// multi-step paths: a/./b selects exactly what a/b does. A path that is
// only "." keeps its single step.
func dropSelfSteps(steps []*step) []*step {
	if len(steps) < 2 {
		return steps
	}
	out := steps[:0:0]
	for _, s := range steps {
		if s.axis == axisSelf && s.test.kind == testNode && len(s.preds) == 0 {
			continue
		}
		out = append(out, s)
	}
	if len(out) == 0 {
		// Path was entirely self steps (e.g. "./."): keep one.
		return steps[:1]
	}
	return out
}

// normalizePreds normalizes each predicate expression and then applies
// the predicate-position rewrites that are only valid at a predicate
// boundary (a predicate whose value is a number N means position()=N).
func normalizePreds(preds []Expr) []Expr {
	if len(preds) == 0 {
		return nil
	}
	out := make([]Expr, 0, len(preds))
	for _, p := range preds {
		np := normalizePred(normalizeExpr(p))
		if b, ok := np.(boolExpr); ok && bool(b) {
			// [true()] keeps every node; drop the predicate. [false()]
			// is kept — an always-empty predicate still needs to empty
			// the node list.
			continue
		}
		out = append(out, np)
	}
	return out
}

// normalizePred rewrites position() = N (and N = position()) into the
// bare numeric predicate N, which the planner lowers to a direct k-th
// selection. Only exact top-level equality is rewritten.
func normalizePred(p Expr) Expr {
	b, ok := p.(*binaryExpr)
	if !ok || b.op != tokEq {
		return p
	}
	if isPositionCall(b.l) {
		if n, ok := b.r.(numberExpr); ok {
			return n
		}
	}
	if isPositionCall(b.r) {
		if n, ok := b.l.(numberExpr); ok {
			return n
		}
	}
	return p
}

func isPositionCall(e Expr) bool {
	c, ok := e.(*callExpr)
	return ok && c.name == "position" && len(c.args) == 0
}

func normalizeBinary(v *binaryExpr) Expr {
	l := normalizeExpr(v.l)
	r := normalizeExpr(v.r)
	switch v.op {
	case tokAnd, tokOr:
		// Only a determining left operand folds: the right operand is
		// then never evaluated, exactly as at runtime, so errors and
		// side conditions in r are skipped by both evaluators.
		if lb, known := constBool(l); known {
			if v.op == tokAnd && !lb {
				return boolExpr(false)
			}
			if v.op == tokOr && lb {
				return boolExpr(true)
			}
			if rb, rknown := constBool(r); rknown {
				return boolExpr(rb)
			}
		}
	case tokPlus, tokMinus, tokMultiply, tokDiv, tokMod:
		if ln, ok := l.(numberExpr); ok {
			if rn, ok := r.(numberExpr); ok {
				return numberExpr(arith(binaryOps[v.op], float64(ln), float64(rn)))
			}
		}
	case tokEq, tokNeq, tokLt, tokLe, tokGt, tokGe:
		if lv, ok := constScalar(l); ok {
			if rv, ok := constScalar(r); ok {
				return boolExpr(compareAtomic(v.op, lv, rv))
			}
		}
	}
	return &binaryExpr{op: v.op, l: l, r: r}
}

// constBool reports the truth value of a constant scalar expression.
func constBool(e Expr) (val, known bool) {
	if v, ok := constScalar(e); ok {
		return ToBool(v), true
	}
	return false, false
}

// constScalar returns the Value of a constant scalar AST node.
func constScalar(e Expr) (Value, bool) {
	switch v := e.(type) {
	case literalExpr:
		return String(v), true
	case numberExpr:
		return Number(v), true
	case boolExpr:
		return Boolean(v), true
	}
	return nil, false
}

func normalizeCall(v *callExpr) Expr {
	args := make([]Expr, len(v.args))
	allConst := true
	for i, a := range v.args {
		args[i] = normalizeExpr(a)
		if _, ok := constScalar(args[i]); !ok {
			allConst = false
		}
	}
	switch v.name {
	case "true":
		if len(args) == 0 {
			return boolExpr(true)
		}
	case "false":
		if len(args) == 0 {
			return boolExpr(false)
		}
	case "not":
		if len(args) == 1 {
			if b, known := constBool(args[0]); known {
				return boolExpr(!b)
			}
		}
	case "boolean":
		if len(args) == 1 {
			if b, known := constBool(args[0]); known {
				return boolExpr(b)
			}
		}
	case "concat":
		if len(args) >= 2 && allConst {
			var s string
			for _, a := range args {
				v, _ := constScalar(a)
				s += ToString(v)
			}
			return literalExpr(s)
		}
	}
	return &callExpr{name: v.name, args: args}
}

// ---- position-safety analysis (moved from the former fuse.go) ----

// fuseSteps rewrites descendant-or-self::node()/child::T[preds] into
// descendant::T[preds] wherever the predicates are position-independent.
// The parser expands `//` into descendant-or-self::node() followed by
// the next step, which makes `//name` enumerate every node of the
// subtree and then that node's children — quadratic work that
// SortDocOrder has to dedup afterwards. The fused descendant step is
// also what the planner answers straight from a frozen document's name
// index.
func fuseSteps(steps []*step) []*step {
	out := steps[:0:0]
	for i := 0; i < len(steps); i++ {
		s := steps[i]
		if i+1 < len(steps) && isDescOrSelfNode(s) && canFuseInto(steps[i+1]) {
			nxt := steps[i+1]
			out = append(out, &step{axis: axisDescendant, test: nxt.test, preds: nxt.preds})
			i++
			continue
		}
		out = append(out, s)
	}
	return out
}

func isDescOrSelfNode(s *step) bool {
	return s.axis == axisDescendantOrSelf && s.test.kind == testNode && len(s.preds) == 0
}

// canFuseInto reports whether a child step can absorb a preceding
// descendant-or-self::node(). Fusion changes the context position and
// size seen by the step's predicates (siblings vs. all descendants), so
// every predicate must be provably position-independent: it must
// statically evaluate to a non-number (a numeric predicate is an implicit
// position() = N test) and must not call position() or last().
func canFuseInto(s *step) bool {
	if s.axis != axisChild {
		return false
	}
	for _, p := range s.preds {
		if !staticallyNonNumeric(p) || usesPosition(p) {
			return false
		}
	}
	return true
}

// staticallyNonNumeric reports whether e can be proven to never yield an
// XPath number. Unknown constructs (variables, unknown functions) return
// false, keeping the analysis conservative.
func staticallyNonNumeric(e Expr) bool {
	switch v := e.(type) {
	case *pathExpr, *unionExpr, *filterExpr, literalExpr, boolExpr:
		return true
	case *binaryExpr:
		switch v.op {
		case tokAnd, tokOr, tokEq, tokNeq, tokLt, tokLe, tokGt, tokGe:
			return true
		}
		return false
	case *callExpr:
		switch v.name {
		case "boolean", "not", "true", "false", "lang", "contains", "starts-with",
			"string", "concat", "substring", "substring-before", "substring-after",
			"normalize-space", "translate", "name", "local-name", "namespace-uri",
			"id", "key", "current":
			return true
		}
		return false
	}
	return false
}

// usesPosition reports whether e contains a position() or last() call
// anywhere. This is deliberately over-broad: a call inside a nested
// path's predicate refers to that inner context and would actually be
// safe, but rejecting it only costs the optimization, never correctness.
func usesPosition(e Expr) bool {
	switch v := e.(type) {
	case *callExpr:
		if v.name == "position" || v.name == "last" {
			return true
		}
		for _, a := range v.args {
			if usesPosition(a) {
				return true
			}
		}
	case *binaryExpr:
		return usesPosition(v.l) || usesPosition(v.r)
	case *negExpr:
		return usesPosition(v.e)
	case *unionExpr:
		for _, p := range v.parts {
			if usesPosition(p) {
				return true
			}
		}
	case *filterExpr:
		if usesPosition(v.primary) {
			return true
		}
		for _, p := range v.preds {
			if usesPosition(p) {
				return true
			}
		}
	case *pathExpr:
		if v.input != nil && usesPosition(v.input) {
			return true
		}
		for _, s := range v.steps {
			for _, p := range s.preds {
				if usesPosition(p) {
					return true
				}
			}
		}
	}
	return false
}
