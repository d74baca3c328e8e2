package xpath

import "math"

// Planning: lowers a normalized AST into a flat program (ir.go). All
// strategy decisions the legacy interpreter made per evaluation are
// made once here:
//
//   - descendant steps with an unprefixed name test are marked for the
//     frozen-document name index
//   - the forward-axis flag (single-context steps skip the doc-order
//     merge sort) is precomputed per step
//   - constant integer predicates become direct k-th selections
//   - position-free predicates are flagged so the evaluator skips the
//     numeric-position test
//   - id() calls lower to a dedicated id-map lookup opcode, and
//     current() to one that pushes the current node unboxed
//
// Boolean operators compile to conditional jumps so short-circuiting
// matches the reference interpreter exactly, including which errors are
// never observed.

type emitter struct {
	p *program
	// cur tracks the operand-stack depth at the current pc so the
	// program records its maximum need (maxStack) at compile time; the
	// evaluator uses it to run small programs on an inline stack.
	cur int
}

func compileProgram(e Expr) *program {
	em := &emitter{p: &program{}}
	em.compile(e)
	return em.p
}

// shift applies an instruction's net stack effect.
func (em *emitter) shift(delta int) {
	em.cur += delta
	if em.cur > em.p.maxStack {
		em.p.maxStack = em.cur
	}
}

// note records transient depth above the current one: the operand
// stacks of predicate sub-programs, which run on the same frame during
// opPath/opFilter.
func (em *emitter) note(extra int) {
	if d := em.cur + extra; d > em.p.maxStack {
		em.p.maxStack = d
	}
}

// emit appends an instruction and returns its pc for backpatching.
func (em *emitter) emit(op opcode, a int) int {
	em.p.code = append(em.p.code, instr{op: op, a: int32(a)})
	return len(em.p.code) - 1
}

func (em *emitter) patch(pc int) {
	em.p.code[pc].a = int32(len(em.p.code))
}

func (em *emitter) constant(v irval) {
	em.p.consts = append(em.p.consts, v)
	em.emit(opConst, len(em.p.consts)-1)
	em.shift(1)
}

func (em *emitter) compile(e Expr) {
	switch v := e.(type) {
	case literalExpr:
		em.constant(strVal(string(v)))
	case numberExpr:
		em.constant(numVal(float64(v)))
	case boolExpr:
		em.constant(boolVal(bool(v)))
	case varExpr:
		em.p.names = append(em.p.names, string(v))
		em.emit(opVar, len(em.p.names)-1)
		em.shift(1)
	case *negExpr:
		em.compile(v.e)
		em.emit(opNeg, 0)
	case *binaryExpr:
		em.compileBinary(v)
	case *unionExpr:
		for _, part := range v.parts {
			em.compile(part)
		}
		em.emit(opUnion, len(v.parts))
		em.shift(1 - len(v.parts))
	case *callExpr:
		em.compileCall(v)
	case *filterExpr:
		em.compile(v.primary)
		preds := planPreds(v.preds)
		em.p.filters = append(em.p.filters, preds)
		em.note(predsStack(preds))
		em.emit(opFilter, len(em.p.filters)-1)
	case *pathExpr:
		if v.input != nil {
			em.compile(v.input)
		}
		pl := planPath(v)
		em.p.paths = append(em.p.paths, pl)
		extra := 0
		for _, st := range pl.steps {
			if n := predsStack(st.preds); n > extra {
				extra = n
			}
		}
		em.note(extra)
		em.emit(opPath, len(em.p.paths)-1)
		if v.input == nil {
			em.shift(1)
		}
	default:
		// The normalizer only produces the kinds above; reaching here
		// is a compiler bug, surfaced loudly rather than miscompiled.
		panic("xpath: unplannable expression kind")
	}
}

// predsStack returns the operand-stack room the predicate sub-programs
// of one step (or filter) need on the shared frame.
func predsStack(preds []*predPlan) int {
	max := 0
	for _, pr := range preds {
		if pr.prog != nil && pr.prog.maxStack > max {
			max = pr.prog.maxStack
		}
	}
	return max
}

var binaryOps = map[tokKind]opcode{
	tokPlus: opAdd, tokMinus: opSub, tokMultiply: opMul, tokDiv: opDiv,
	tokMod: opMod, tokEq: opEq, tokNeq: opNeq, tokLt: opLt, tokLe: opLe,
	tokGt: opGt, tokGe: opGe,
}

func (em *emitter) compileBinary(v *binaryExpr) {
	switch v.op {
	case tokAnd:
		em.compile(v.l)
		j := em.emit(opJmpFalse, 0)
		em.shift(-1) // fall-through depth; the jump path re-pushes at the target
		em.compile(v.r)
		em.emit(opToBool, 0)
		em.patch(j)
	case tokOr:
		em.compile(v.l)
		j := em.emit(opJmpTrue, 0)
		em.shift(-1)
		em.compile(v.r)
		em.emit(opToBool, 0)
		em.patch(j)
	default:
		em.compile(v.l)
		em.compile(v.r)
		em.emit(binaryOps[v.op], 0)
		em.shift(-1)
	}
}

func (em *emitter) compileCall(v *callExpr) {
	if v.name == "id" && len(v.args) == 1 {
		em.compile(v.args[0])
		em.emit(opID, 0)
		return
	}
	if v.name == "current" && len(v.args) == 0 {
		em.emit(opCurrent, 0)
		em.shift(1)
		return
	}
	for _, a := range v.args {
		em.compile(a)
	}
	em.p.calls = append(em.p.calls, callSite{name: v.name, argc: len(v.args)})
	em.emit(opCall, len(em.p.calls)-1)
	em.shift(1 - len(v.args))
}

func planPath(p *pathExpr) *pathPlan {
	pl := &pathPlan{hasInput: p.input != nil, absolute: p.absolute}
	pl.steps = make([]*planStep, len(p.steps))
	for i, s := range p.steps {
		st := &planStep{
			axis:    s.axis,
			test:    s.test,
			forward: forwardAxis(s.axis),
			indexed: indexableStep(s),
			preds:   planPreds(s.preds),
		}
		pl.steps[i] = st
	}
	return pl
}

// indexableStep reports whether a step can be answered from a frozen
// document's descendant name index. Only the unprefixed name form is
// eligible: an unprefixed test selects no-namespace elements, which the
// evaluator's residual URI filter enforces since the index matches by
// local name alone.
func indexableStep(s *step) bool {
	if s.axis != axisDescendant && s.axis != axisDescendantOrSelf {
		return false
	}
	return s.test.kind == testName && s.test.prefix == ""
}

func planPreds(preds []Expr) []*predPlan {
	if len(preds) == 0 {
		return nil
	}
	out := make([]*predPlan, len(preds))
	for i, p := range preds {
		out[i] = planPred(p)
	}
	return out
}

func planPred(e Expr) *predPlan {
	if n, ok := e.(numberExpr); ok {
		k := float64(n)
		if k == math.Trunc(k) && k >= 1 && k <= 1<<31 {
			return &predPlan{posConst: int(k)}
		}
	}
	return &predPlan{
		prog:    compileProgram(e),
		posFree: staticallyNonNumeric(e) && !usesPosition(e),
	}
}
