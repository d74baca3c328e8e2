package xpath

// Read-only AST introspection for static analysis. The compiled Expr and
// Pattern types stay opaque; these views let tools such as
// internal/analysis walk location paths, calls and pattern alternatives
// without being able to mutate the compiled form.

// Axis identifies a location-path axis in an introspected step.
type Axis uint8

// Introspected axes, mirroring the XPath 1.0 axis set.
const (
	AxisChild Axis = iota
	AxisDescendant
	AxisParent
	AxisAncestor
	AxisFollowingSibling
	AxisPrecedingSibling
	AxisFollowing
	AxisPreceding
	AxisAttribute
	AxisSelf
	AxisDescendantOrSelf
	AxisAncestorOrSelf
)

// String returns the XPath spelling of the axis.
func (a Axis) String() string { return axisType(a).String() }

// NodeTestKind identifies the node test of an introspected step.
type NodeTestKind uint8

// Introspected node tests.
const (
	TestName       NodeTestKind = iota // name or prefix:name
	TestAnyName                        // *
	TestNSWildcard                     // prefix:*
	TestText                           // text()
	TestComment                        // comment()
	TestPI                             // processing-instruction()
	TestNode                           // node()
)

// StepInfo is the read-only view of one location step.
type StepInfo struct {
	Axis     Axis
	Test     NodeTestKind
	Prefix   string // namespace prefix of TestName / TestNSWildcard
	Name     string // local name for TestName
	PITarget string // literal target for TestPI, if any
	Preds    []Expr
}

// String renders the step in XPath syntax.
func (s StepInfo) String() string {
	t := nodeTest{kind: testKind(s.Test), prefix: s.Prefix, name: s.Name, piTarget: s.PITarget}
	st := step{axis: axisType(s.Axis), test: t}
	return st.String()
}

func stepInfo(s *step) StepInfo {
	return StepInfo{
		Axis:     Axis(s.axis),
		Test:     NodeTestKind(s.test.kind),
		Prefix:   s.test.prefix,
		Name:     s.test.name,
		PITarget: s.test.piTarget,
		Preds:    s.preds,
	}
}

// unwrap exposes the normalized AST behind a fully compiled expression,
// so analysis tools see the same canonical form the planner consumed
// (fused descendant steps, folded constants) rather than the raw parse.
func unwrap(e Expr) Expr {
	if c, ok := e.(*Compiled); ok {
		return c.norm
	}
	return e
}

// PathInfo reports whether e is a location path and, if so, returns its
// optional input expression (the filter a relative path hangs off, e.g.
// id('x')/a), whether it is absolute, and its steps.
func PathInfo(e Expr) (input Expr, absolute bool, steps []StepInfo, ok bool) {
	p, isPath := unwrap(e).(*pathExpr)
	if !isPath {
		return nil, false, nil, false
	}
	out := make([]StepInfo, len(p.steps))
	for i, s := range p.steps {
		out[i] = stepInfo(s)
	}
	return p.input, p.absolute, out, true
}

// FilterInfo reports whether e is a predicated primary expression
// (PrimaryExpr Predicate+) and returns its parts.
func FilterInfo(e Expr) (primary Expr, preds []Expr, ok bool) {
	f, isFilter := unwrap(e).(*filterExpr)
	if !isFilter {
		return nil, nil, false
	}
	return f.primary, f.preds, true
}

// CallInfo reports whether e is a function call and returns its name and
// argument expressions.
func CallInfo(e Expr) (name string, args []Expr, ok bool) {
	c, isCall := unwrap(e).(*callExpr)
	if !isCall {
		return "", nil, false
	}
	return c.name, c.args, true
}

// LiteralValue reports whether e is a string literal and returns it.
func LiteralValue(e Expr) (string, bool) {
	l, isLit := unwrap(e).(literalExpr)
	if !isLit {
		return "", false
	}
	return string(l), true
}

// Subexprs returns the direct sub-expressions of e that are not exposed
// through PathInfo/FilterInfo/CallInfo: union branches, binary operands
// and the operand of unary minus. It returns nil for leaves and for the
// kinds covered by the dedicated accessors.
func Subexprs(e Expr) []Expr {
	switch v := unwrap(e).(type) {
	case *unionExpr:
		return v.parts
	case *binaryExpr:
		return []Expr{v.l, v.r}
	case *negExpr:
		return []Expr{v.e}
	}
	return nil
}

// PatternStepInfo is the read-only view of one match-pattern step.
type PatternStepInfo struct {
	Attr     bool // attribute axis
	Test     NodeTestKind
	Prefix   string
	Name     string
	PITarget string
	// Anc is true when the step is separated from the previous
	// (ancestor-side) step by '//' rather than '/'.
	Anc   bool
	Preds []Expr
}

// PatternAltInfo is the read-only view of one pattern alternative.
type PatternAltInfo struct {
	Absolute bool
	RootOnly bool   // the pattern "/"
	ID       string // non-empty for id('...')-rooted patterns
	IDPath   bool   // id('...')/further/steps
	Priority float64
	Steps    []PatternStepInfo
	// Class is the compile-time node classification of this alternative,
	// shared by template dispatch and the static analyzer.
	Class MatchClass
}

// Info returns the read-only alternatives of a compiled pattern.
func (p *Pattern) Info() []PatternAltInfo {
	out := make([]PatternAltInfo, len(p.alts))
	for i, a := range p.alts {
		ai := PatternAltInfo{
			Absolute: a.absolute,
			RootOnly: a.rootOnly,
			ID:       a.idValue,
			IDPath:   a.idHasPath,
			Priority: a.priority,
			Class:    a.cls,
		}
		for _, s := range a.steps {
			ai.Steps = append(ai.Steps, PatternStepInfo{
				Attr:     s.attr,
				Test:     NodeTestKind(s.test.kind),
				Prefix:   s.test.prefix,
				Name:     s.test.name,
				PITarget: s.test.piTarget,
				Anc:      s.anc,
				Preds:    exprs(s.preds),
			})
		}
		out[i] = ai
	}
	return out
}

// exprs returns compiled pattern predicates as the Expr view.
func exprs(preds []*Compiled) []Expr {
	if len(preds) == 0 {
		return nil
	}
	out := make([]Expr, len(preds))
	for i, p := range preds {
		out[i] = p
	}
	return out
}
