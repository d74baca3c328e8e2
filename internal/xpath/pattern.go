package xpath

import (
	"fmt"
	"strings"

	"goldweb/internal/xmldom"
)

// Pattern is a compiled XSLT match pattern: one or more alternatives
// separated by '|'. Patterns use the restricted XPath grammar of XSLT 1.0
// §5.2 — only the child and attribute axes plus the '//' abbreviation.
type Pattern struct {
	src  string
	alts []*patternAlt
}

// patternAlt is a single location-path pattern.
type patternAlt struct {
	absolute  bool // leading '/'
	rootOnly  bool // the pattern "/" (matches the document node)
	steps     []*patStep
	priority  float64
	idValue   string // non-empty for id('...') patterns
	idHasPath bool
	cls       MatchClass // computed once at compile time
}

// patStep is one step; sep describes how it connects to the previous
// (ancestor-side) step: '/' for parent, '#' (descendant) for '//'.
type patStep struct {
	attr  bool // attribute axis
	test  nodeTest
	preds []*Compiled
	anc   bool // true when separated from the previous step by '//'
}

// CompilePattern compiles an XSLT match pattern.
func CompilePattern(src string) (*Pattern, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &exprParser{src: src, toks: toks}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if p.peek().kind != tokEOF {
		return nil, p.errf("unexpected %s in pattern", p.peek())
	}
	pat := &Pattern{src: src}
	var exprs []Expr
	if u, ok := e.(*unionExpr); ok {
		exprs = u.parts
	} else {
		exprs = []Expr{e}
	}
	for _, ex := range exprs {
		alt, err := exprToPatternAlt(src, ex)
		if err != nil {
			return nil, err
		}
		alt.cls = alt.class()
		pat.alts = append(pat.alts, alt)
	}
	return pat, nil
}

// compiledPreds runs pattern predicates through the full compilation
// pipeline so that matching evaluates planned IR, not raw AST.
func compiledPreds(preds []Expr) []*Compiled {
	if len(preds) == 0 {
		return nil
	}
	out := make([]*Compiled, len(preds))
	for i, p := range preds {
		out[i] = finishCompile(p.String(), p)
	}
	return out
}

// MustCompilePattern is CompilePattern but panics on error.
func MustCompilePattern(src string) *Pattern {
	p, err := CompilePattern(src)
	if err != nil {
		panic(err)
	}
	return p
}

func (p *Pattern) String() string { return p.src }

// exprToPatternAlt converts a parsed path expression to a pattern
// alternative, enforcing the pattern grammar restrictions.
func exprToPatternAlt(src string, e Expr) (*patternAlt, error) {
	if call, ok := e.(*callExpr); ok {
		// A bare id('...') pattern.
		if call.name == "id" && len(call.args) == 1 {
			if lit, ok := call.args[0].(literalExpr); ok {
				return &patternAlt{idValue: string(lit), priority: 0.5}, nil
			}
		}
		return nil, fmt.Errorf("xpath: %q is not a valid match pattern", src)
	}
	pe, ok := e.(*pathExpr)
	if !ok {
		return nil, fmt.Errorf("xpath: %q is not a valid match pattern", src)
	}
	alt := &patternAlt{absolute: pe.absolute}
	if pe.input != nil {
		// id('x') or key(...) rooted patterns: support id with a literal.
		call, ok := pe.input.(*callExpr)
		if !ok || call.name != "id" || len(call.args) != 1 {
			return nil, fmt.Errorf("xpath: pattern %q may only be rooted at id()", src)
		}
		lit, ok := call.args[0].(literalExpr)
		if !ok {
			return nil, fmt.Errorf("xpath: id() in pattern %q requires a literal", src)
		}
		alt.idValue = string(lit)
		alt.idHasPath = len(pe.steps) > 0
	}
	if pe.absolute && len(pe.steps) == 0 {
		alt.rootOnly = true
		alt.priority = 0.5
		return alt, nil
	}
	nextAnc := false
	for _, s := range pe.steps {
		switch s.axis {
		case axisDescendantOrSelf:
			if s.test.kind != testNode || len(s.preds) != 0 {
				return nil, fmt.Errorf("xpath: descendant-or-self in pattern %q must be '//'", src)
			}
			nextAnc = true
			continue
		case axisDescendant:
			// A pre-fused descendant::name step (the normalize pass fuses
			// '//name' pairs); in the pattern grammar that is a child step
			// behind a '//' gap. The raw parse AST used here keeps the
			// descendant-or-self pairs, so this branch only fires for
			// explicitly spelled descendant axes.
			alt.steps = append(alt.steps, &patStep{test: s.test, preds: compiledPreds(s.preds), anc: true})
			nextAnc = false
		case axisChild, axisAttribute:
			ps := &patStep{attr: s.axis == axisAttribute, test: s.test, preds: compiledPreds(s.preds), anc: nextAnc}
			nextAnc = false
			alt.steps = append(alt.steps, ps)
		default:
			return nil, fmt.Errorf("xpath: axis %s not allowed in pattern %q", s.axis, src)
		}
	}
	if nextAnc || len(alt.steps) == 0 {
		return nil, fmt.Errorf("xpath: malformed pattern %q", src)
	}
	alt.priority = defaultPriority(alt)
	return alt, nil
}

// defaultPriority implements XSLT 1.0 §5.5.
func defaultPriority(alt *patternAlt) float64 {
	if len(alt.steps) > 1 || alt.absolute || alt.idValue != "" {
		return 0.5
	}
	s := alt.steps[0]
	if len(s.preds) > 0 {
		return 0.5
	}
	switch s.test.kind {
	case testName:
		return 0
	case testPI:
		if s.test.piTarget != "" {
			return 0
		}
		return -0.5
	case testNSWildcard:
		return -0.25
	default: // *, node(), text(), comment()
		return -0.5
	}
}

// Alternatives returns per-alternative (sub)patterns with their default
// priorities, for building separate template rules as the XSLT spec
// requires for union patterns.
func (p *Pattern) Alternatives() []*Pattern {
	out := make([]*Pattern, len(p.alts))
	for i, a := range p.alts {
		out[i] = &Pattern{src: p.src, alts: []*patternAlt{a}}
	}
	return out
}

// DefaultPriority returns the default priority of a single-alternative
// pattern (XSLT 1.0 §5.5). For union patterns it returns the maximum.
func (p *Pattern) DefaultPriority() float64 {
	best := -2.0
	for _, a := range p.alts {
		if a.priority > best {
			best = a.priority
		}
	}
	return best
}

// Matches reports whether node matches the pattern. The context supplies
// variable bindings, extension functions and namespace bindings for
// predicates.
func (p *Pattern) Matches(ctx *Context, node *xmldom.Node) (bool, error) {
	for _, alt := range p.alts {
		ok, err := alt.matches(ctx, node)
		if err != nil {
			return false, err
		}
		if ok {
			return true, nil
		}
	}
	return false, nil
}

func (alt *patternAlt) matches(ctx *Context, node *xmldom.Node) (bool, error) {
	if alt.rootOnly {
		return node.Type == xmldom.DocumentNode, nil
	}
	if alt.idValue != "" && !alt.idHasPath {
		return node.Type == xmldom.ElementNode &&
			node.HasAttr("id") && idContains(alt.idValue, node.AttrValue("id")), nil
	}
	cur := node
	for i := len(alt.steps) - 1; i >= 0; i-- {
		s := alt.steps[i]
		ok, err := s.matchesNode(ctx, cur)
		if err != nil {
			return false, err
		}
		if !ok {
			// For a '//' separated step the *descendant* side is fixed:
			// only the ancestor side may float, which is handled below
			// when stepping upwards. The node itself must match the last
			// step exactly.
			return false, nil
		}
		parent := cur.Parent
		if i == 0 {
			// Leftmost step: check anchoring.
			if alt.idValue != "" {
				return ancestorWithID(parent, alt.idValue, s.anc), nil
			}
			if alt.absolute {
				if s.anc {
					// '//step...' — any document ancestry is fine, but the
					// node must be in a tree rooted at a document node.
					return cur.Root().Type == xmldom.DocumentNode, nil
				}
				return parent != nil && parent.Type == xmldom.DocumentNode, nil
			}
			return true, nil
		}
		// Move to the ancestor side for the previous step.
		if parent == nil {
			return false, nil
		}
		if !alt.steps[i].anc {
			cur = parent
			continue
		}
		// '//' gap: try every ancestor for the remaining pattern prefix.
		prefix := &patternAlt{absolute: alt.absolute, steps: alt.steps[:i],
			idValue: alt.idValue, idHasPath: alt.idHasPath}
		// The prefix's last step keeps its own anc flag; we must append a
		// virtual "match here" by testing each ancestor directly.
		for a := parent; a != nil; a = a.Parent {
			ok, err := prefix.matchesSuffixAt(ctx, a)
			if err != nil {
				return false, err
			}
			if ok {
				return true, nil
			}
		}
		return false, nil
	}
	return true, nil
}

// matchesSuffixAt reports whether the pattern (treated as ending at its
// final step) matches the given node.
func (alt *patternAlt) matchesSuffixAt(ctx *Context, node *xmldom.Node) (bool, error) {
	return alt.matches(ctx, node)
}

func idContains(idList, id string) bool {
	if id == "" {
		return false
	}
	for _, tok := range strings.Fields(idList) {
		if tok == id {
			return true
		}
	}
	return false
}

func ancestorWithID(start *xmldom.Node, idList string, anyDepth bool) bool {
	if start == nil {
		return false
	}
	if !anyDepth {
		return start.Type == xmldom.ElementNode && idContains(idList, start.AttrValue("id"))
	}
	for a := start; a != nil; a = a.Parent {
		if a.Type == xmldom.ElementNode && idContains(idList, a.AttrValue("id")) {
			return true
		}
	}
	return false
}

// matchesNode checks the node test and predicates of a single step against
// a candidate node.
func (s *patStep) matchesNode(ctx *Context, n *xmldom.Node) (bool, error) {
	axis := axisChild
	if s.attr {
		axis = axisAttribute
	}
	if s.attr != (n.Type == xmldom.AttrNode) {
		return false, nil
	}
	ok, err := matchTest(ctx, n, axis, s.test)
	if err != nil || !ok {
		return ok, err
	}
	if len(s.preds) == 0 {
		return true, nil
	}
	// Predicate context: the candidate's position among its matching
	// siblings along the step's axis (from the parent).
	parent := n.Parent
	var siblings []*xmldom.Node
	if parent != nil {
		for _, c := range axisNodes(parent, axis) {
			match, err := matchTest(ctx, c, axis, s.test)
			if err != nil {
				return false, err
			}
			if match {
				siblings = append(siblings, c)
			}
		}
	} else {
		siblings = []*xmldom.Node{n}
	}
	for _, pred := range s.preds {
		var err error
		siblings, err = applyPredicate(ctx, siblings, pred)
		if err != nil {
			return false, err
		}
	}
	for _, c := range siblings {
		if c == n {
			return true, nil
		}
	}
	return false, nil
}

// MatchClass describes the node categories a pattern could possibly match,
// derived from its terminal steps. It is a conservative prefilter for
// template dispatch: a node outside every listed category can never match,
// while listed categories still require a full Matches check.
type MatchClass struct {
	Elements bool
	// ElemName, when non-empty, means only elements with this local name
	// can match (namespace URIs are still checked by Matches). Empty with
	// Elements=true means any element name. AttrName is the same for
	// attributes.
	ElemName string
	Attrs    bool
	AttrName string
	Text     bool
	Comment  bool
	PI       bool
	Document bool
}

// Class merges the classification of every alternative of p. The
// per-alternative classes are computed once at compile time.
func (p *Pattern) Class() MatchClass {
	var c MatchClass
	for _, alt := range p.alts {
		ac := alt.cls
		if ac.Elements {
			if !c.Elements {
				c.Elements, c.ElemName = true, ac.ElemName
			} else if c.ElemName != ac.ElemName {
				c.ElemName = ""
			}
		}
		if ac.Attrs {
			if !c.Attrs {
				c.Attrs, c.AttrName = true, ac.AttrName
			} else if c.AttrName != ac.AttrName {
				c.AttrName = ""
			}
		}
		c.Text = c.Text || ac.Text
		c.Comment = c.Comment || ac.Comment
		c.PI = c.PI || ac.PI
		c.Document = c.Document || ac.Document
	}
	return c
}

func (alt *patternAlt) class() MatchClass {
	if alt.rootOnly {
		return MatchClass{Document: true}
	}
	if len(alt.steps) == 0 {
		// Bare id('...'): matches elements carrying an id attribute.
		return MatchClass{Elements: true}
	}
	s := alt.steps[len(alt.steps)-1]
	if s.attr {
		switch s.test.kind {
		case testName:
			return MatchClass{Attrs: true, AttrName: s.test.name}
		case testAnyName, testNSWildcard, testNode:
			return MatchClass{Attrs: true}
		default:
			// text()/comment()/pi() on the attribute axis match nothing.
			return MatchClass{}
		}
	}
	switch s.test.kind {
	case testName:
		return MatchClass{Elements: true, ElemName: s.test.name}
	case testAnyName, testNSWildcard:
		return MatchClass{Elements: true}
	case testText:
		return MatchClass{Text: true}
	case testComment:
		return MatchClass{Comment: true}
	case testPI:
		return MatchClass{PI: true}
	case testNode:
		// node() matches every principal-axis candidate, including the
		// document node in this implementation's matcher.
		return MatchClass{Elements: true, Text: true, Comment: true, PI: true, Document: true}
	}
	// Unknown test kind: be maximally conservative.
	return MatchClass{Elements: true, Attrs: true, Text: true, Comment: true, PI: true, Document: true}
}
