package xsd

import (
	"maps"
	"strings"

	"goldweb/internal/xmldom"
	"goldweb/internal/xpath"
)

// Validated is the outcome of one validation pass (ValidateAndFreeze): the
// frozen document and every violation found. Identity-constraint errors
// carry their IdentityViolation detail, so a consumer that words them
// (the linter's GW402) or reports them later (a server's /validate)
// reads this result instead of evaluating the constraints again.
type Validated struct {
	// Doc is the validated document, frozen (defaults applied when the
	// options asked for them).
	Doc *xmldom.Node
	// Errors lists every violation in the order Validate reports them
	// (nil means the document is valid).
	Errors []ValidationError
}

// StructuralErrors returns Errors without the identity-constraint
// (key/unique/keyref) violations: the list Validate reports with
// SkipIdentityConstraints set.
func (r *Validated) StructuralErrors() []ValidationError {
	n := 0
	for _, e := range r.Errors {
		if e.Identity == nil {
			n++
		}
	}
	if n == len(r.Errors) {
		return r.Errors
	}
	out := make([]ValidationError, 0, n)
	for _, e := range r.Errors {
		if e.Identity == nil {
			out = append(out, e)
		}
	}
	return out
}

// scope is one element instance together with the declaration the
// validator applied to it; the declaration's key, unique and keyref
// constraints are evaluated below that element.
type scope struct {
	elem *xmldom.Node
	decl *ElementDecl
}

// tupleSet is one constraint's evaluation within the current scope,
// computed once however many keyrefs refer to it.
type tupleSet struct {
	done   bool
	tuples []string
	nodes  []*xmldom.Node
	// errs are the evaluation failures the collection reported; every use
	// of the set reports them again, as a fresh evaluation would.
	errs []ValidationError
	keys map[string]bool // non-empty tuples, built on first keyref use
	// keysBuilt marks keys as filled for the current scope.
	keysBuilt bool
}

// identityState is the validator's scratch for identity constraints.
type identityState struct {
	errs  []ValidationError // identity errors of every scope, in order
	sets  []tupleSet        // per constraint of the current scope
	seen  map[string]*xmldom.Node
	parts []string
}

// begin prepares the per-constraint sets for a scope with n constraints.
func (id *identityState) begin(n int) {
	for i := range id.sets {
		s := &id.sets[i]
		s.done, s.keysBuilt, s.nodes = false, false, nil
	}
	for len(id.sets) < n {
		id.sets = append(id.sets, tupleSet{})
	}
}

// reset drops every reference into the last validated document.
func (id *identityState) reset() {
	id.begin(0)
	for i := range id.sets {
		s := &id.sets[i]
		clear(s.tuples[:cap(s.tuples)])
		clear(s.keys)
		clear(s.errs[:cap(s.errs)])
		s.errs = s.errs[:0]
	}
	clear(id.seen)
	clear(id.parts[:cap(id.parts)])
	clear(id.errs[:cap(id.errs)])
	id.errs = id.errs[:0]
}

// identf reports an identity-constraint error at id.Node.
func (v *validator) identf(id *IdentityViolation, format string, args ...interface{}) {
	e := newError(id.Node, format, args...)
	e.Identity = id
	v.ident.errs = append(v.ident.errs, e)
}

// checkScopes evaluates the identity constraints of every scope the walk
// recorded and splices each scope's errors into the structural list at
// the point the scope completed — the order a walk checking constraints
// in place reports.
func (v *validator) checkScopes() {
	structural := v.errs
	var merged []ValidationError
	next := 0
	for i := range v.scopes {
		sc := &v.scopes[i]
		start := len(v.ident.errs)
		v.checkScope(sc)
		found := v.ident.errs[start:]
		if len(found) == 0 {
			continue
		}
		merged = append(merged, structural[next:v.marks[i]]...)
		merged = append(merged, found...)
		next = v.marks[i]
	}
	if merged != nil {
		v.errs = append(merged, structural[next:]...)
	}
}

// checkScope evaluates the key/unique/keyref constraints declared on the
// scope's declaration against the subtree rooted at its element. Keyrefs
// are resolved against keys declared on the same element, matching how
// the paper's schema declares them all on the root.
func (v *validator) checkScope(sc *scope) {
	elem, ics := sc.elem, sc.decl.Constraints
	v.ident.begin(len(ics))
	for i, ic := range ics {
		set := v.tupleSet(elem, ics, i)
		switch ic.Kind {
		case KeyConstraint, UniqueConstraint:
			if v.ident.seen == nil {
				v.ident.seen = map[string]*xmldom.Node{}
			}
			seen := v.ident.seen
			clear(seen)
			for j, tup := range set.tuples {
				if tup == "" {
					if ic.Kind == KeyConstraint {
						v.identf(&IdentityViolation{Constraint: ic, Scope: elem, Node: set.nodes[j]},
							"key %s: a selected node is missing a field value", ic.Name)
					}
					continue
				}
				if prev, dup := seen[tup]; dup {
					v.identf(&IdentityViolation{Constraint: ic, Scope: elem, Node: set.nodes[j], Tuple: tup, First: prev},
						"%s %s: duplicate value (%s) also selected at %s", ic.Kind, ic.Name, tup, prev.Path())
					continue
				}
				seen[tup] = set.nodes[j]
			}
		case KeyrefConstraint:
			target := -1
			for k, other := range ics {
				if other.Name == ic.Refer && (other.Kind == KeyConstraint || other.Kind == UniqueConstraint) {
					target = k
					break
				}
			}
			if target < 0 {
				v.identf(&IdentityViolation{Constraint: ic, Scope: elem, Node: elem},
					"keyref %s refers to unknown key %s", ic.Name, ic.Refer)
				continue
			}
			keys := v.keySet(elem, ics, target)
			// keys is pooled scratch the next scope reuses: this keyref's
			// errors share one copy of it.
			var keyVals map[string]bool
			for j, tup := range set.tuples {
				if tup != "" && !keys[tup] {
					if keyVals == nil {
						keyVals = maps.Clone(keys)
					}
					v.identf(&IdentityViolation{Constraint: ic, Scope: elem, Node: set.nodes[j], Tuple: tup, Key: ics[target], Keys: keyVals},
						"keyref %s: value (%s) does not match any %s value", ic.Name, tup, ic.Refer)
				}
			}
		}
	}
}

// tupleSet returns constraint i's tuples in the current scope, collecting
// them on first use and re-reporting their evaluation failures on reuse.
func (v *validator) tupleSet(elem *xmldom.Node, ics []*IdentityConstraint, i int) *tupleSet {
	set := &v.ident.sets[i]
	if set.done {
		v.ident.errs = append(v.ident.errs, set.errs...)
		return set
	}
	start := len(v.ident.errs)
	set.tuples, set.nodes = ics[i].collect(elem, set.tuples, v)
	set.errs = append(set.errs[:0], v.ident.errs[start:]...)
	set.done = true
	return set
}

// keySet returns the non-empty tuples of key constraint i as a set, built
// once per scope.
func (v *validator) keySet(elem *xmldom.Node, ics []*IdentityConstraint, i int) map[string]bool {
	set := v.tupleSet(elem, ics, i)
	if !set.keysBuilt {
		if set.keys == nil {
			set.keys = map[string]bool{}
		}
		clear(set.keys)
		for _, tup := range set.tuples {
			if tup != "" {
				set.keys[tup] = true
			}
		}
		set.keysBuilt = true
	}
	return set.keys
}

// collect evaluates the constraint below elem, reusing the tuples
// buffer: the selected nodes and one encoded field tuple per node, fields
// joined by U+001F ("" when a field is absent). A failing selector selects
// nothing and a failing field counts as absent; v receives both failures
// as identity errors.
func (ic *IdentityConstraint) collect(elem *xmldom.Node, tuples []string, v *validator) ([]string, []*xmldom.Node) {
	tuples = tuples[:0]
	ctx := xpath.GetContext()
	defer xpath.PutContext(ctx)
	ctx.Node, ctx.Position, ctx.Size = elem, 1, 1
	selected, err := ic.Selector.EvalNodes(ctx)
	if err != nil {
		v.identf(&IdentityViolation{Constraint: ic, Scope: elem, Node: elem},
			"%s %s: selector %q failed: %v", ic.Kind, ic.Name, ic.selectorSrc, err)
		return tuples, nil
	}
	// One context and one field-part buffer serve every selected node:
	// field expressions do not retain the context past Eval.
	parts := v.ident.parts
	for _, n := range selected {
		parts = parts[:0]
		complete := true
		for i, f := range ic.Fields {
			if name := ic.fieldAttrs[i]; name != "" {
				// A bare "@name" field is the element's no-namespace
				// attribute of that name: read it without the VM.
				a := n.GetAttr(name)
				if a == nil {
					complete = false
					break
				}
				parts = append(parts, a.Data)
				continue
			}
			ctx.Node = n
			fv, err := f.Eval(ctx)
			if err != nil {
				v.identf(&IdentityViolation{Constraint: ic, Scope: elem, Node: n},
					"%s %s: field failed: %v", ic.Kind, ic.Name, err)
				complete = false
				break
			}
			if ns, isNS := fv.(xpath.NodeSet); isNS && len(ns) == 0 {
				complete = false
				break
			}
			parts = append(parts, xpath.ToString(fv))
		}
		tup := ""
		if complete {
			// Encode with an unlikely separator so multi-field tuples
			// cannot collide.
			tup = strings.Join(parts, "\x1f")
		}
		tuples = append(tuples, tup)
	}
	v.ident.parts = parts[:0]
	return tuples, selected
}

// attrField returns name when an identity-constraint field is the bare
// attribute step "@name" (no prefix, predicate or wildcard), which the
// validator reads directly instead of running the XPath VM.
func attrField(src string) string {
	s := strings.TrimSpace(src)
	if len(s) < 2 || s[0] != '@' || !isNCName(s[1:]) {
		return ""
	}
	return s[1:]
}
