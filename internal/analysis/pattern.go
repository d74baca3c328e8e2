package analysis

import (
	"sort"
	"strings"

	"goldweb/internal/xpath"
)

// checkPattern verifies each alternative of a match pattern is
// satisfiable under the schema (GW101) and returns the context class the
// pattern can match — the element names, attribute/text/root categories
// a rule with this pattern may fire on.
func (l *ssLint) checkPattern(pat *xpath.Pattern, at pos) ctxSet {
	var out ctxSet
	for i, alt := range pat.Info() {
		c := l.checkPatternAlt(alt, at)
		if i == 0 {
			out = c
		} else {
			out = out.union(c)
		}
	}
	return out
}

// checkPatternAlt propagates a candidate element set forward through the
// alternative's steps, root-side to leaf-side, reusing the child and
// descendant transitions of the expression walker (childElems/descElems)
// for the '/' and '//' links. The set an earlier step survives with
// narrows the sets of every later step, so the returned match context is
// the refined final-step set rather than the raw node-test universe.
func (l *ssLint) checkPatternAlt(alt xpath.PatternAltInfo, at pos) ctxSet {
	g := l.g
	if alt.RootOnly {
		return docCtx()
	}
	if alt.ID != "" && len(alt.Steps) == 0 {
		return elemCtx(g.IDElements())
	}
	if len(alt.Steps) == 0 {
		return unknownCtx()
	}

	// Per-step refined candidate sets; nil once a step the schema cannot
	// model (comment(), processing-instruction(), node()) is crossed.
	last := len(alt.Steps) - 1
	sets := make([]map[string]bool, len(alt.Steps))
	var cur map[string]bool
	for i, st := range alt.Steps {
		cands, resolvable, failed := l.patternStepCandidates(st, at)
		if failed {
			return unknownCtx()
		}
		if !resolvable {
			break
		}
		if i == 0 {
			if alt.Absolute && alt.ID == "" && !st.Anc {
				rootOK := false
				for e := range cands {
					if g.Roots()[e] {
						rootOK = true
						break
					}
				}
				if !rootOK {
					l.flag(at, SevError, CodeBadPattern,
						"pattern can never match: %s is not a global (document root) element", describeSet(cands))
					return unknownCtx()
				}
			}
			cur = cands
			sets[0] = cur
			continue
		}
		// Link to the previous step's refined set: '/' requires a parent
		// in it, '//' an ancestor. Attribute and text() tests sit on
		// their owner element, so the owner links directly (or via
		// ancestors, for '//') instead of through a child edge.
		in := elemCtx(cur)
		var allowed map[string]bool
		linkOpen := false
		switch {
		case st.Attr || st.Test == xpath.TestText:
			allowed = map[string]bool{}
			for e := range cur {
				allowed[e] = true
			}
			if st.Anc {
				desc, open := l.descElems(in, false)
				linkOpen = open
				for e := range desc {
					allowed[e] = true
				}
			}
		case st.Anc:
			allowed, linkOpen = l.descElems(in, false)
		default:
			allowed, _, linkOpen = l.childElems(in)
		}
		next := map[string]bool{}
		for e := range cands {
			if allowed[e] {
				next[e] = true
			}
		}
		if linkOpen {
			// A wildcard on the parent side may admit any candidate:
			// the link can neither refine nor refute the step.
			next = cands
		} else if len(next) == 0 {
			rel := "a parent"
			if st.Anc {
				rel = "an ancestor"
			}
			l.flag(at, SevError, CodeBadPattern,
				"pattern can never match: %s is never %s of %s",
				describeSet(cur), rel, describeSet(cands))
			return unknownCtx()
		}
		cur = next
		sets[i] = cur
	}

	// Walk predicate expressions with each step's refined context.
	for i, st := range alt.Steps {
		if len(st.Preds) == 0 {
			continue
		}
		var c ctxSet
		switch {
		case st.Attr:
			c = ctxSet{attr: true}
		case st.Test == xpath.TestText:
			c = ctxSet{text: true}
		case sets[i] != nil:
			c = elemCtx(sets[i])
		default:
			c = unknownCtx()
		}
		for _, p := range st.Preds {
			l.evalExpr(p, c, c, at)
		}
	}

	// The alternative's match class comes from its final step.
	st := alt.Steps[last]
	switch {
	case st.Attr:
		return ctxSet{attr: true}
	case st.Test == xpath.TestText:
		return ctxSet{text: true}
	case sets[last] != nil:
		return elemCtx(sets[last])
	}
	return unknownCtx()
}

// patternStepCandidates returns the schema-permitted element set for one
// pattern step before linking: the named element, every element, or the
// owner elements of an attribute or text() test. failed reports a
// schema-wide impossibility (already flagged as GW101); resolvable is
// false for node tests the schema says nothing about.
func (l *ssLint) patternStepCandidates(st xpath.PatternStepInfo, at pos) (cands map[string]bool, resolvable, failed bool) {
	g := l.g
	// An open schema makes every whole-schema universe a lower bound
	// (wildcards admit elements the graph never saw), so only exact
	// named-element candidates survive; the rest become unresolvable.
	open := g.OpenSchema()
	switch {
	case st.Attr:
		if open {
			return nil, false, false
		}
		if st.Test != xpath.TestName {
			return l.allElems(), true, false
		}
		owners := map[string]bool{}
		for _, e := range g.ElementNames() {
			if g.HasAttr(e, st.Name) {
				owners[e] = true
			}
		}
		if len(owners) == 0 {
			l.flag(at, SevError, CodeBadPattern,
				"pattern can never match: no element declares attribute '%s'", st.Name)
			return nil, true, true
		}
		return owners, true, false
	case st.Test == xpath.TestName:
		if !g.HasElement(st.Name) {
			if open {
				return nil, false, false // may exist under a wildcard
			}
			l.flag(at, SevError, CodeBadPattern,
				"pattern can never match: no element '%s' is declared in the schema", st.Name)
			return nil, true, true
		}
		return map[string]bool{st.Name: true}, true, false
	case st.Test == xpath.TestAnyName || st.Test == xpath.TestNSWildcard:
		if open {
			return nil, false, false
		}
		return l.allElems(), true, false
	case st.Test == xpath.TestText:
		if open {
			return nil, false, false
		}
		owners := map[string]bool{}
		for _, e := range g.ElementNames() {
			if g.TextAllowed(e) {
				owners[e] = true
			}
		}
		return owners, true, false
	}
	return nil, false, false
}

func (l *ssLint) allElems() map[string]bool {
	out := map[string]bool{}
	for _, e := range l.g.ElementNames() {
		out[e] = true
	}
	return out
}

func describeSet(set map[string]bool) string {
	names := make([]string, 0, len(set))
	for n := range set {
		names = append(names, "'"+n+"'")
	}
	sort.Strings(names)
	return strings.Join(names, " or ")
}
