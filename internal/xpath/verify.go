package xpath

import "fmt"

// IR verification: an independent abstract interpretation over the
// planned instruction program that proves, before an expression ever
// runs, that
//
//   - every operand index (consts, names, calls, paths, filters) is in
//     bounds,
//   - every jump lands inside the program (or exactly at its end, the
//     short-circuit exit),
//   - the operand stack never underflows, every join point is reached
//     with one consistent height, and the program leaves exactly one
//     result value,
//   - the planner's precomputed maxStack is a true upper bound for the
//     program including every predicate sub-program that runs on the
//     same frame during opPath/opFilter.
//
// The walk re-derives stack effects from opcode semantics alone — it
// shares no code with the emitter in plan.go, so a bookkeeping bug
// there cannot hide itself here.

// VerifyIR statically checks the compiled program and every nested
// predicate program. It returns nil when all invariants hold.
func (c *Compiled) VerifyIR() error {
	if c.prog == nil {
		return fmt.Errorf("xpath: %q: no compiled program", c.src)
	}
	if err := verifyIRProgram(c.prog); err != nil {
		return fmt.Errorf("xpath: %q: %w", c.src, err)
	}
	return nil
}

// verifyIRProgram checks one program body; predicate sub-programs are
// verified recursively with their own maxStack bounds.
func verifyIRProgram(p *program) error {
	n := len(p.code)
	if n == 0 {
		return fmt.Errorf("empty program")
	}
	// expect[pc] is the stack height every jump into pc arrives with;
	// -1 = no jump targets this pc. Index n is the program end (the
	// short-circuit exit jumps there).
	expect := make([]int, n+1)
	for i := range expect {
		expect[i] = -1
	}
	h := 0
	maxSeen := 0
	for pc := 0; pc < n; pc++ {
		if expect[pc] >= 0 && expect[pc] != h {
			return fmt.Errorf("pc %d: join height mismatch: fall-through %d, jump %d", pc, h, expect[pc])
		}
		in := p.code[pc]
		switch in.op {
		case opConst:
			if int(in.a) < 0 || int(in.a) >= len(p.consts) {
				return fmt.Errorf("pc %d: const index %d out of range [0,%d)", pc, in.a, len(p.consts))
			}
			h++
		case opVar:
			if int(in.a) < 0 || int(in.a) >= len(p.names) {
				return fmt.Errorf("pc %d: var index %d out of range [0,%d)", pc, in.a, len(p.names))
			}
			h++
		case opPath:
			if int(in.a) < 0 || int(in.a) >= len(p.paths) {
				return fmt.Errorf("pc %d: path index %d out of range [0,%d)", pc, in.a, len(p.paths))
			}
			pl := p.paths[in.a]
			extra := 0
			for _, st := range pl.steps {
				if err := verifyPreds(st.preds); err != nil {
					return fmt.Errorf("pc %d: path step predicate: %w", pc, err)
				}
				if ps := predsStack(st.preds); ps > extra {
					extra = ps
				}
			}
			if h+extra > p.maxStack {
				return fmt.Errorf("pc %d: path predicates need stack %d, maxStack is %d", pc, h+extra, p.maxStack)
			}
			if pl.hasInput {
				if h < 1 {
					return fmt.Errorf("pc %d: path needs an input node-set on an empty stack", pc)
				}
			} else {
				h++
			}
		case opFilter:
			if int(in.a) < 0 || int(in.a) >= len(p.filters) {
				return fmt.Errorf("pc %d: filter index %d out of range [0,%d)", pc, in.a, len(p.filters))
			}
			if err := verifyPreds(p.filters[in.a]); err != nil {
				return fmt.Errorf("pc %d: filter predicate: %w", pc, err)
			}
			if h < 1 {
				return fmt.Errorf("pc %d: filter on an empty stack", pc)
			}
			if ps := predsStack(p.filters[in.a]); h+ps > p.maxStack {
				return fmt.Errorf("pc %d: filter predicates need stack %d, maxStack is %d", pc, h+ps, p.maxStack)
			}
		case opUnion:
			k := int(in.a)
			if k < 1 {
				return fmt.Errorf("pc %d: union of %d parts", pc, k)
			}
			if h < k {
				return fmt.Errorf("pc %d: union of %d parts with stack height %d", pc, k, h)
			}
			h -= k - 1
		case opNeg, opToBool, opID:
			if h < 1 {
				return fmt.Errorf("pc %d: %s on an empty stack", pc, opcodeNames[in.op])
			}
		case opCurrent:
			h++
		case opAdd, opSub, opMul, opDiv, opMod,
			opEq, opNeq, opLt, opLe, opGt, opGe:
			if h < 2 {
				return fmt.Errorf("pc %d: %s with stack height %d", pc, opcodeNames[in.op], h)
			}
			h--
		case opJmpFalse, opJmpTrue:
			if h < 1 {
				return fmt.Errorf("pc %d: %s on an empty stack", pc, opcodeNames[in.op])
			}
			t := int(in.a)
			if t <= pc || t > n {
				return fmt.Errorf("pc %d: jump target %d outside (%d,%d]", pc, t, pc, n)
			}
			// Taken path: pop then push the short-circuit constant — the
			// target sees the same height. Fall-through: the operand is
			// consumed.
			if expect[t] >= 0 && expect[t] != h {
				return fmt.Errorf("pc %d: jump target %d height mismatch: %d vs %d", pc, t, h, expect[t])
			}
			expect[t] = h
			h--
		case opCall:
			if int(in.a) < 0 || int(in.a) >= len(p.calls) {
				return fmt.Errorf("pc %d: call index %d out of range [0,%d)", pc, in.a, len(p.calls))
			}
			argc := p.calls[in.a].argc
			if h < argc {
				return fmt.Errorf("pc %d: call %s/%d with stack height %d", pc, p.calls[in.a].name, argc, h)
			}
			h -= argc - 1
		default:
			return fmt.Errorf("pc %d: unknown opcode %d", pc, in.op)
		}
		if h > maxSeen {
			maxSeen = h
		}
		if h < 0 {
			return fmt.Errorf("pc %d: stack underflow", pc)
		}
	}
	if expect[n] >= 0 && expect[n] != h {
		return fmt.Errorf("end: join height mismatch: fall-through %d, jump %d", h, expect[n])
	}
	if h != 1 {
		return fmt.Errorf("end: final stack height %d, want 1", h)
	}
	if maxSeen > p.maxStack {
		return fmt.Errorf("stack reaches %d, planner claimed maxStack %d", maxSeen, p.maxStack)
	}
	return nil
}

// verifyPreds checks every compiled predicate sub-program of one step or
// filter.
func verifyPreds(preds []*predPlan) error {
	for _, pr := range preds {
		if pr.prog == nil {
			continue // constant [k] selection: nothing executes
		}
		if err := verifyIRProgram(pr.prog); err != nil {
			return err
		}
	}
	return nil
}
