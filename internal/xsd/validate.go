package xsd

import (
	"fmt"
	"math/bits"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"goldweb/internal/xmldom"
)

// ValidateOptions tune instance validation.
type ValidateOptions struct {
	// ApplyDefaults writes schema-supplied attribute defaults into the
	// instance (the infoset contribution a validating parser makes).
	// Because it mutates the document it must not be used on a frozen
	// (xmldom.Freeze) tree — validate an Editable() copy instead.
	ApplyDefaults bool
	// SkipIdentityConstraints disables key/keyref/unique checking, leaving
	// only DTD-style ID/IDREF integrity — the ablation of the paper's §3.1
	// claim that keyrefs improve on their earlier DTD proposal.
	SkipIdentityConstraints bool
}

// Validate checks an instance document against the schema and returns all
// violations found (nil means the document is valid). It is
// ValidateAndFreeze returning only the errors, so it freezes doc in place:
// pass an Editable() copy if the tree must stay mutable afterwards.
func (s *Schema) Validate(doc *xmldom.Node, opts ValidateOptions) []ValidationError {
	return s.ValidateAndFreeze(doc, opts).Errors
}

// ValidateString parses and validates an instance from XML text; parse
// errors are reported as a single ValidationError.
func (s *Schema) ValidateString(src string, opts ValidateOptions) []ValidationError {
	doc, err := xmldom.ParseString(src)
	if err != nil {
		return []ValidationError{{Path: "/", Msg: err.Error()}}
	}
	return s.Validate(doc, opts)
}

// walks counts validation walks process-wide (see ValidationWalks).
var walks atomic.Uint64

// ValidationWalks reports how many validation walks this process has run:
// every Validate, ValidateString and ValidateAndFreeze call makes one.
// Callers diff it around an operation to count the walks it made.
func ValidationWalks() uint64 { return walks.Load() }

// ValidateAndFreeze validates doc in one pass and freezes it: the
// structural walk (applying defaults when opts ask for it), then
// xmldom.Freeze, then the identity constraints evaluated on the frozen
// tree, where the name indexes and document-order stamps serve the
// selectors. It is the one walker behind every entry point, and the only
// place identity constraints are evaluated. The structural walk records
// each element whose declaration carries identity constraints as a
// scope, with the number of errors reported by the time its subtree is
// done; each scope's errors are spliced in at that count, where a walk
// checking them in place would report them.
func (s *Schema) ValidateAndFreeze(doc *xmldom.Node, opts ValidateOptions) *Validated {
	walks.Add(1)
	v := validatorPool.Get().(*validator)
	defer v.release()
	v.schema, v.opts = s, opts
	if root := doc.DocumentElement(); root == nil {
		v.errf(doc, "document has no root element")
	} else if decl, ok := s.Elements[root.Name]; !ok {
		v.errf(root, "no global declaration for root element %s", root.FullName())
	} else {
		v.validateElement(root, decl)
		v.checkIDRefs()
	}
	xmldom.Freeze(doc)
	v.checkScopes()
	return &Validated{Doc: doc, Errors: v.errs}
}

type idref struct {
	node  *xmldom.Node
	value string
}

// childSlot is one element child under content-model matching: the node
// and the declaration or wildcard that admitted it.
type childSlot struct {
	node *xmldom.Node
	decl *ElementDecl
	wild *Wildcard
}

type validator struct {
	schema *Schema
	opts   ValidateOptions
	errs   []ValidationError
	ids    map[string]*xmldom.Node
	idrefs []idref

	// slots is a stack of child slots: each complex element pushes its
	// element children, matches them, validates them and pops them again.
	slots []childSlot
	match contentMatcher

	// Deferred identity constraints: scopes in walk order, marks[i] the
	// structural error count when scope i completed.
	scopes []scope
	marks  []int
	ident  identityState
}

var validatorPool = sync.Pool{New: func() any {
	return &validator{ids: map[string]*xmldom.Node{}}
}}

// release clears every reference into the validated document and returns
// the validator to the pool. The error slice belongs to the caller's
// Validated and is dropped, not reused.
func (v *validator) release() {
	v.schema, v.errs = nil, nil
	clear(v.ids)
	clear(v.idrefs)
	v.idrefs = v.idrefs[:0]
	clear(v.slots[:cap(v.slots)])
	v.slots = v.slots[:0]
	clear(v.scopes)
	v.scopes = v.scopes[:0]
	v.marks = v.marks[:0]
	v.match.reset(nil, nil)
	v.ident.reset()
	validatorPool.Put(v)
}

func (v *validator) errf(n *xmldom.Node, format string, args ...interface{}) {
	v.errs = append(v.errs, newError(n, format, args...))
}

func newError(n *xmldom.Node, format string, args ...interface{}) ValidationError {
	e := ValidationError{Msg: fmt.Sprintf(format, args...)}
	if n != nil {
		e.Path = n.Path()
		e.Line = n.Line
	}
	return e
}

func (v *validator) validateElement(elem *xmldom.Node, decl *ElementDecl) {
	if decl.Abstract {
		v.errf(elem, "element %s is declared abstract and cannot appear in instances", elem.FullName())
		return
	}
	switch {
	case decl.Simple != nil:
		v.validateSimpleElement(elem, decl)
	case decl.Complex != nil:
		v.validateComplexElement(elem, decl.Complex)
	}
	if !v.opts.SkipIdentityConstraints && len(decl.Constraints) > 0 {
		v.scopes = append(v.scopes, scope{elem: elem, decl: decl})
		v.marks = append(v.marks, len(v.errs))
	}
}

func (v *validator) validateSimpleElement(elem *xmldom.Node, decl *ElementDecl) {
	for _, c := range elem.Children {
		if c.Type == xmldom.ElementNode {
			v.errf(c, "element %s has simple type %s and cannot contain child elements",
				elem.FullName(), typeLabel(decl.Simple))
			return
		}
	}
	if len(elem.Attr) > 0 {
		v.errf(elem.Attr[0], "element %s with simple content cannot carry attributes", elem.FullName())
	}
	val := elem.StringValue()
	if decl.HasFixed && decl.Simple.normalize(val) != decl.Simple.normalize(decl.Fixed) {
		v.errf(elem, "element %s must have the fixed value %q", elem.FullName(), decl.Fixed)
		return
	}
	if err := checkSimpleValue(decl.Simple, val); err != nil {
		v.errf(elem, "element %s: %v", elem.FullName(), err)
	}
	v.trackIDs(elem, decl.Simple, val)
}

func (v *validator) validateComplexElement(elem *xmldom.Node, ct *ComplexType) {
	v.validateAttributes(elem, ct)

	// Character content.
	if !ct.Mixed {
		for _, c := range elem.Children {
			if c.Type == xmldom.TextNode && strings.TrimSpace(c.Data) != "" {
				v.errf(c, "element %s does not allow character content (%q)",
					elem.FullName(), strings.TrimSpace(c.Data))
				break
			}
		}
	}

	base := len(v.slots)
	for _, c := range elem.Children {
		if c.Type == xmldom.ElementNode {
			v.slots = append(v.slots, childSlot{node: c})
		}
	}
	// kids stays valid while children push their own slots: a regrown
	// stack copies, and this element only reads its slots from here on.
	kids := v.slots[base:len(v.slots):len(v.slots)]
	defer func() { v.slots = v.slots[:base] }()
	if ct.Content == nil {
		if len(kids) > 0 {
			v.errf(kids[0].node, "element %s must be empty but contains <%s>", elem.FullName(), kids[0].node.FullName())
		}
		return
	}
	m := &v.match
	m.reset(v.schema, kids)
	start := m.single(0)
	end := m.reach(ct.Content, start)
	complete := end.has(len(kids))
	m.release(start)
	m.release(end)
	if !complete {
		culprit := m.maxPos
		if culprit < len(kids) {
			v.errf(kids[culprit].node, "element <%s> is not allowed here in %s (content model %s)",
				kids[culprit].node.FullName(), elem.FullName(), particleLabel(ct.Content))
		} else {
			v.errf(elem, "element %s is missing required content (model %s)",
				elem.FullName(), particleLabel(ct.Content))
		}
		// Continue into children best-effort so nested errors surface;
		// unmatched children of an invalid model are skipped silently.
	}
	for _, k := range kids {
		if k.decl != nil {
			v.validateElement(k.node, k.decl)
		} else if k.wild != nil {
			v.validateWildcard(k.node, k.wild)
		}
	}
}

// validateWildcard applies the processContents mode to an element matched
// by an xs:any particle: skip validates nothing, lax validates against a
// global declaration when one exists, strict requires one.
func (v *validator) validateWildcard(elem *xmldom.Node, w *Wildcard) {
	if w.Process == "skip" {
		return
	}
	var decl *ElementDecl
	if elem.URI == "" {
		decl = v.schema.Elements[elem.Name]
	}
	if decl == nil {
		if w.Process == "strict" {
			v.errf(elem, "wildcard with processContents strict requires a global declaration for <%s>", elem.FullName())
		}
		return
	}
	v.validateElement(elem, decl)
}

// posSet is a set of child positions 0..len(kids), one bit per position.
type posSet []uint64

func (s posSet) has(p int) bool { return s[p>>6]&(1<<uint(p&63)) != 0 }
func (s posSet) add(p int)      { s[p>>6] |= 1 << uint(p&63) }

func (s posSet) empty() bool {
	for _, w := range s {
		if w != 0 {
			return false
		}
	}
	return true
}

// union adds every position of o to s.
func (s posSet) union(o posSet) {
	for i, w := range o {
		s[i] |= w
	}
}

func (s posSet) subsetOf(o posSet) bool {
	for i, w := range s {
		if w&^o[i] != 0 {
			return false
		}
	}
	return true
}

// each calls f for every position in s, in ascending order.
func (s posSet) each(f func(pos int)) {
	for i, w := range s {
		for w != 0 {
			f(i<<6 + bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
}

// contentMatcher matches element children against a particle using
// position-set (Thompson-style) reachability, which is polynomial and
// handles nested occurrence bounds without backtracking blowups. The
// matched declaration (or admitting wildcard) of each child is recorded
// in its slot.
type contentMatcher struct {
	schema *Schema
	kids   []childSlot
	maxPos int
	// words is the set width for the current children; free holds
	// released sets of that width for reuse.
	words int
	free  []posSet
}

// reset prepares the matcher for a new child list.
func (m *contentMatcher) reset(s *Schema, kids []childSlot) {
	m.schema, m.kids, m.maxPos = s, kids, 0
	if w := len(kids)/64 + 1; w != m.words {
		m.words, m.free = w, m.free[:0]
	}
}

// newSet returns an empty position set.
func (m *contentMatcher) newSet() posSet {
	if n := len(m.free); n > 0 {
		s := m.free[n-1]
		m.free = m.free[:n-1]
		clear(s)
		return s
	}
	return make(posSet, m.words)
}

// single returns a new set containing only p.
func (m *contentMatcher) single(p int) posSet {
	s := m.newSet()
	s.add(p)
	return s
}

// release hands a set the caller owns back for reuse.
func (m *contentMatcher) release(s posSet) { m.free = append(m.free, s) }

// matchDecl returns the declaration an element particle assigns to child
// k: the particle's own declaration on a name match, or a substitution-
// group member for ref particles (heads dispatch only when referenced,
// per the XML Schema rules; abstract members never match by name here —
// the abstract error surfaces during element validation instead).
func (m *contentMatcher) matchDecl(p *Particle, k *xmldom.Node) *ElementDecl {
	if k.URI != "" {
		return nil
	}
	if k.Name == p.Elem.Name {
		return p.Elem
	}
	if p.Ref != "" && m.schema != nil {
		for _, mem := range m.schema.substMembers[p.Ref] {
			if !mem.Abstract && k.Name == mem.Name {
				return mem
			}
		}
	}
	return nil
}

// reach returns the set of positions reachable after matching p starting
// from every position in starts. starts stays owned by the caller; the
// result is a new set the caller owns.
func (m *contentMatcher) reach(p *Particle, starts posSet) posSet {
	out := m.newSet()
	if starts.empty() {
		return out
	}
	cur, owned := starts, false
	count := 0
	for {
		if count >= p.Min {
			out.union(cur)
		}
		if p.Max != Unbounded && count >= p.Max {
			break
		}
		next := m.reachOnce(p, cur)
		// Detect fixpoint (also guards min>0 groups that can match empty).
		if next.empty() || next.subsetOf(out) && count >= p.Min {
			out.union(next)
			m.release(next)
			break
		}
		if owned {
			m.release(cur)
		}
		cur, owned = next, true
		count++
		if count > len(m.kids)+1 {
			// A group matched without consuming input; accept and stop.
			out.union(cur)
			break
		}
	}
	if owned {
		m.release(cur)
	}
	return out
}

// reachOnce matches exactly one occurrence of the particle body, returning
// a new set the caller owns.
func (m *contentMatcher) reachOnce(p *Particle, starts posSet) posSet {
	switch p.Kind {
	case PElement:
		out := m.newSet()
		starts.each(func(pos int) {
			if pos >= len(m.kids) {
				return
			}
			if d := m.matchDecl(p, m.kids[pos].node); d != nil {
				m.kids[pos].decl = d
				out.add(pos + 1)
				m.maxPos = max(m.maxPos, pos+1)
			}
		})
		return out
	case PAny:
		out := m.newSet()
		starts.each(func(pos int) {
			if pos < len(m.kids) && p.Wildcard.Admits(m.kids[pos].node.URI) {
				if m.kids[pos].decl == nil {
					m.kids[pos].wild = p.Wildcard
				}
				out.add(pos + 1)
				m.maxPos = max(m.maxPos, pos+1)
			}
		})
		return out
	case PSequence:
		cur, owned := starts, false
		for _, c := range p.Children {
			next := m.reach(c, cur)
			if owned {
				m.release(cur)
			}
			cur, owned = next, true
			if cur.empty() {
				break
			}
		}
		if !owned {
			out := m.newSet()
			out.union(cur)
			return out
		}
		return cur
	case PChoice:
		out := m.newSet()
		for _, c := range p.Children {
			r := m.reach(c, starts)
			out.union(r)
			m.release(r)
		}
		return out
	case PAll:
		// xsd:all: every child element particle at most per its bounds, in
		// any order. Match greedily by consuming children that match any
		// unused particle.
		out := m.newSet()
		starts.each(func(pos int) {
			if end, ok := m.matchAll(p, pos); ok {
				out.add(end)
			}
		})
		return out
	}
	return m.newSet()
}

// matchAll matches an xsd:all group starting at pos.
func (m *contentMatcher) matchAll(p *Particle, pos int) (int, bool) {
	used := make([]bool, len(p.Children))
	for pos < len(m.kids) {
		matched := false
		for i, c := range p.Children {
			if c.Kind != PElement || used[i] {
				continue
			}
			if d := m.matchDecl(c, m.kids[pos].node); d != nil {
				m.kids[pos].decl = d
				used[i] = true
				pos++
				m.maxPos = max(m.maxPos, pos)
				matched = true
				break
			}
		}
		if !matched {
			break
		}
	}
	for i, c := range p.Children {
		if c.Min > 0 && !used[i] {
			return 0, false
		}
	}
	return pos, true
}

func (v *validator) validateAttributes(elem *xmldom.Node, ct *ComplexType) {
	for _, a := range elem.Attr {
		if a.URI == xmldom.XMLNSNamespace || a.URI == xmldom.XMLNamespace {
			continue // namespace declarations and xml: attributes pass
		}
		var ad *AttributeDecl
		if a.URI == "" {
			ad = ct.attrs[a.Name]
		}
		if ad == nil {
			// An anyAttribute wildcard admits undeclared attributes in
			// matching namespaces; strict still demands a declaration,
			// which this schema subset has no global form of.
			if ct.AnyAttr != nil && ct.AnyAttr.Admits(a.URI) && ct.AnyAttr.Process != "strict" {
				continue
			}
			if a.URI != "" {
				v.errf(a, "namespaced attribute %s is not declared", a.FullName())
			} else {
				v.errf(a, "attribute %s is not declared on element %s", a.Name, elem.FullName())
			}
			continue
		}
		if ad.Use == "prohibited" {
			v.errf(a, "attribute %s is prohibited on element %s", a.Name, elem.FullName())
			continue
		}
		if ad.HasFixed && ad.Type.normalize(a.Data) != ad.Type.normalize(ad.Fixed) {
			v.errf(a, "attribute %s must have the fixed value %q", a.Name, ad.Fixed)
			continue
		}
		if err := checkSimpleValue(ad.Type, a.Data); err != nil {
			v.errf(a, "attribute %s: %v", a.Name, err)
			continue
		}
		v.trackIDs(a, ad.Type, a.Data)
	}
	for _, ad := range ct.Attributes {
		if elem.GetAttr(ad.Name) != nil {
			continue
		}
		if ad.Use == "required" {
			v.errf(elem, "element %s is missing required attribute %s", elem.FullName(), ad.Name)
			continue
		}
		if ad.HasDefault && v.opts.ApplyDefaults {
			elem.SetAttr(ad.Name, ad.Default)
		}
		if ad.HasFixed && v.opts.ApplyDefaults {
			elem.SetAttr(ad.Name, ad.Fixed)
		}
	}
}

// trackIDs records ID definitions and IDREF uses for the document-wide
// integrity check.
func (v *validator) trackIDs(n *xmldom.Node, st *SimpleType, val string) {
	switch st.rootKind() {
	case btID:
		id := st.normalize(val)
		if prev, dup := v.ids[id]; dup {
			v.errf(n, "duplicate ID %q (first defined at %s)", id, prev.Path())
		} else {
			v.ids[id] = n
		}
	case btIDREF:
		v.idrefs = append(v.idrefs, idref{node: n, value: st.normalize(val)})
	case btIDREFS:
		for _, tok := range strings.Fields(val) {
			v.idrefs = append(v.idrefs, idref{node: n, value: tok})
		}
	}
}

func (v *validator) checkIDRefs() {
	for _, r := range v.idrefs {
		if _, ok := v.ids[r.value]; !ok {
			v.errf(r.node, "IDREF %q does not match any ID in the document", r.value)
		}
	}
}

// ---- simple value validation ----

func typeLabel(st *SimpleType) string {
	if st.Name != "" {
		return st.Name
	}
	return "anonymous type"
}

// checkSimpleValue validates a lexical value against a simple type,
// walking the restriction chain so every level's facets apply. When the
// chain reaches a list variety, each whitespace-separated token is
// checked against the item type; a union accepts the value as soon as
// any member does.
func checkSimpleValue(st *SimpleType, raw string) error {
	v := st.normalize(raw)
	isList := st.isList()
	for cur := st; cur != nil; cur = cur.base {
		switch {
		case cur.builtin != btNone:
			return checkBuiltin(cur.builtin, v)
		case cur.Item != nil:
			for _, tok := range strings.Fields(v) {
				if err := checkSimpleValue(cur.Item, tok); err != nil {
					return fmt.Errorf("list item %q: %v", tok, err)
				}
			}
			return nil
		case len(cur.Members) > 0:
			for _, mem := range cur.Members {
				if checkSimpleValue(mem, v) == nil {
					return nil
				}
			}
			return fmt.Errorf("%q does not match any member type of union %s", v, typeLabel(cur))
		}
		if err := checkFacets(cur, v, isList); err != nil {
			return err
		}
	}
	return nil
}

// isList reports whether the type's derivation chain bottoms out in a
// list variety, which switches length facets to counting items.
func (st *SimpleType) isList() bool {
	for cur := st; cur != nil; cur = cur.base {
		if cur.Item != nil {
			return true
		}
		if cur.builtin != btNone || len(cur.Members) > 0 {
			return false
		}
	}
	return false
}

// hasMembers reports whether the chain bottoms out in a union variety.
func (st *SimpleType) hasMembers() bool {
	for cur := st; cur != nil; cur = cur.base {
		if len(cur.Members) > 0 {
			return true
		}
		if cur.builtin != btNone || cur.Item != nil {
			return false
		}
	}
	return false
}

func checkFacets(st *SimpleType, v string, isList bool) error {
	if len(st.Enum) > 0 {
		ok := false
		for _, e := range st.Enum {
			if v == e {
				ok = true
				break
			}
		}
		if !ok {
			return fmt.Errorf("%q is not one of the allowed values (%s) of type %s",
				v, strings.Join(st.Enum, ", "), typeLabel(st))
		}
	}
	for i, re := range st.Patterns {
		if !re.MatchString(v) {
			return fmt.Errorf("%q does not match pattern %q of type %s", v, st.patternSrcs[i], typeLabel(st))
		}
	}
	// Length facets count characters, or items for list varieties.
	n := len([]rune(v))
	unit := "length"
	if isList {
		n = len(strings.Fields(v))
		unit = "item count"
	}
	if st.Length != nil && n != *st.Length {
		return fmt.Errorf("%q has %s %d, want exactly %d", v, unit, n, *st.Length)
	}
	if st.MinLength != nil && n < *st.MinLength {
		return fmt.Errorf("%q has %s %d, want at least %d", v, unit, n, *st.MinLength)
	}
	if st.MaxLength != nil && n > *st.MaxLength {
		return fmt.Errorf("%q has %s %d, want at most %d", v, unit, n, *st.MaxLength)
	}
	if st.TotalDigits != nil || st.FractionDigits != nil {
		total, frac, ok := digitCounts(v)
		if !ok {
			return fmt.Errorf("%q is not a decimal but type %s has digit facets", v, typeLabel(st))
		}
		if st.TotalDigits != nil && total > *st.TotalDigits {
			return fmt.Errorf("%q has %d significant digits, totalDigits allows %d", v, total, *st.TotalDigits)
		}
		if st.FractionDigits != nil && frac > *st.FractionDigits {
			return fmt.Errorf("%q has %d fraction digits, fractionDigits allows %d", v, frac, *st.FractionDigits)
		}
	}
	if st.MinInclusive != nil || st.MaxInclusive != nil || st.MinExclusive != nil || st.MaxExclusive != nil {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return fmt.Errorf("%q is not numeric but type %s has range facets", v, typeLabel(st))
		}
		if st.MinInclusive != nil && f < *st.MinInclusive {
			return fmt.Errorf("%v is below minInclusive %v", f, *st.MinInclusive)
		}
		if st.MaxInclusive != nil && f > *st.MaxInclusive {
			return fmt.Errorf("%v is above maxInclusive %v", f, *st.MaxInclusive)
		}
		if st.MinExclusive != nil && f <= *st.MinExclusive {
			return fmt.Errorf("%v is not above minExclusive %v", f, *st.MinExclusive)
		}
		if st.MaxExclusive != nil && f >= *st.MaxExclusive {
			return fmt.Errorf("%v is not below maxExclusive %v", f, *st.MaxExclusive)
		}
	}
	return nil
}

// digitCounts parses a decimal lexical value and counts its significant
// digits: leading zeros of the integer part and trailing zeros of the
// fraction part do not count (per the XSD totalDigits/fractionDigits
// value space definition).
func digitCounts(v string) (total, frac int, ok bool) {
	s := strings.TrimLeft(v, "+-")
	if s == "" {
		return 0, 0, false
	}
	intPart, fracPart := s, ""
	if i := strings.IndexByte(s, '.'); i >= 0 {
		intPart, fracPart = s[:i], s[i+1:]
	}
	for _, r := range intPart + fracPart {
		if r < '0' || r > '9' {
			return 0, 0, false
		}
	}
	if intPart == "" && fracPart == "" {
		return 0, 0, false
	}
	intPart = strings.TrimLeft(intPart, "0")
	fracPart = strings.TrimRight(fracPart, "0")
	return len(intPart) + len(fracPart), len(fracPart), true
}

func particleLabel(p *Particle) string {
	switch p.Kind {
	case PElement:
		return elementCard(p)
	case PAny:
		return "any" + cardSuffix(p)
	case PSequence, PChoice, PAll:
		sep := ", "
		if p.Kind == PChoice {
			sep = " | "
		}
		parts := make([]string, len(p.Children))
		for i, c := range p.Children {
			parts[i] = particleLabel(c)
		}
		return "(" + strings.Join(parts, sep) + ")" + cardSuffix(p)
	}
	return "?"
}

func elementCard(p *Particle) string {
	return p.Elem.Name + cardSuffix(p)
}

func cardSuffix(p *Particle) string {
	switch {
	case p.Min == 1 && p.Max == 1:
		return ""
	case p.Min == 0 && p.Max == 1:
		return "?"
	case p.Min == 0 && p.Max == Unbounded:
		return "*"
	case p.Min == 1 && p.Max == Unbounded:
		return "+"
	case p.Max == Unbounded:
		return fmt.Sprintf("{%d,}", p.Min)
	default:
		return fmt.Sprintf("{%d,%d}", p.Min, p.Max)
	}
}
