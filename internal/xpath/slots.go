package xpath

// Slot resolution: a host language that scopes its variables lexically
// (XSLT) resolves every variable reference of a compiled expression to
// a frame slot once, at compile time, so evaluation reads Context.Slots
// by index instead of looking names up in Context.Vars.

// ResolveVars resolves every variable reference of the expression,
// predicates included, to the frame slot resolve maps its name to: a
// local slot is relative to Context.Base, any other is absolute.
// Resolving again replaces the earlier resolution.
func (c *Compiled) ResolveVars(resolve func(name string) (slot int, local bool)) {
	c.prog.resolveVars(resolve)
}

// ResolveVars resolves the variable references of every predicate of
// the pattern.
func (p *Pattern) ResolveVars(resolve func(name string) (slot int, local bool)) {
	for _, alt := range p.alts {
		for _, st := range alt.steps {
			for _, pr := range st.preds {
				pr.ResolveVars(resolve)
			}
		}
	}
}

// SlotExtent reports one past the largest global and local slot the
// expression reads (0 when it reads none), so a verifier can check the
// references against the frame a host allocates.
func (c *Compiled) SlotExtent() (globals, locals int) {
	c.prog.walk(func(p *program) {
		for _, in := range p.code {
			switch in.op {
			case opGlobal:
				globals = max(globals, int(p.slots[in.a])+1)
			case opLocal:
				locals = max(locals, int(p.slots[in.a])+1)
			}
		}
	})
	return globals, locals
}

func (p *program) resolveVars(resolve func(name string) (slot int, local bool)) {
	p.walk(func(p *program) {
		if len(p.names) == 0 {
			return
		}
		p.slots = make([]int32, len(p.names))
		for pc := range p.code {
			in := &p.code[pc]
			switch in.op {
			case opVar, opLocal, opGlobal:
				slot, local := resolve(p.names[in.a])
				p.slots[in.a] = int32(slot)
				in.op = opGlobal
				if local {
					in.op = opLocal
				}
			}
		}
	})
}

// walk calls fn on the program and on every predicate program nested in
// it.
func (p *program) walk(fn func(*program)) {
	fn(p)
	preds := func(ps []*predPlan) {
		for _, pr := range ps {
			if pr.prog != nil {
				pr.prog.walk(fn)
			}
		}
	}
	for _, pl := range p.paths {
		for _, st := range pl.steps {
			preds(st.preds)
		}
	}
	for _, f := range p.filters {
		preds(f)
	}
}
