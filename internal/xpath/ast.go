package xpath

import (
	"fmt"
	"strings"

	"goldweb/internal/xmldom"
)

// Expr is a compiled XPath expression.
type Expr interface {
	// Eval evaluates the expression in the given context.
	Eval(ctx *Context) (Value, error)
	// String returns a parseable rendering of the expression.
	String() string
}

// Function is an extension or core function implementation. Arguments are
// already evaluated.
type Function func(ctx *Context, args []Value) (Value, error)

// Context carries the evaluation state of an expression: the context node,
// position and size, variable bindings, namespace bindings for prefixes
// appearing inside the expression, and extension functions.
type Context struct {
	Node     *xmldom.Node
	Position int
	Size     int
	Vars     map[string]Value
	Funcs    map[string]Function
	NS       map[string]string
	// Current is the XSLT current node, which the core current()
	// function returns; nil outside XSLT, where current() is empty.
	Current *xmldom.Node
}

// NewContext returns a context positioned at node 1 of 1.
func NewContext(node *xmldom.Node) *Context {
	return &Context{Node: node, Position: 1, Size: 1}
}

// sub returns a copy of ctx focused on a different node/position/size,
// sharing variable and function bindings.
func (ctx *Context) sub(node *xmldom.Node, pos, size int) *Context {
	c := *ctx
	c.Node = node
	c.Position = pos
	c.Size = size
	return &c
}

// lookupVar resolves a variable reference.
func (ctx *Context) lookupVar(name string) (Value, error) {
	if ctx.Vars != nil {
		if v, ok := ctx.Vars[name]; ok {
			return v, nil
		}
	}
	return nil, fmt.Errorf("xpath: variable $%s not bound", name)
}

// resolvePrefix maps an expression prefix to a namespace URI.
func (ctx *Context) resolvePrefix(prefix string) (string, error) {
	if prefix == "" {
		return "", nil
	}
	if prefix == "xml" {
		return xmldom.XMLNamespace, nil
	}
	if ctx.NS != nil {
		if uri, ok := ctx.NS[prefix]; ok {
			return uri, nil
		}
	}
	return "", fmt.Errorf("xpath: undeclared prefix %q in expression", prefix)
}

// ---- AST node kinds ----

type axisType uint8

const (
	axisChild axisType = iota
	axisDescendant
	axisParent
	axisAncestor
	axisFollowingSibling
	axisPrecedingSibling
	axisFollowing
	axisPreceding
	axisAttribute
	axisSelf
	axisDescendantOrSelf
	axisAncestorOrSelf
)

var axisNames = map[string]axisType{
	"child":              axisChild,
	"descendant":         axisDescendant,
	"parent":             axisParent,
	"ancestor":           axisAncestor,
	"following-sibling":  axisFollowingSibling,
	"preceding-sibling":  axisPrecedingSibling,
	"following":          axisFollowing,
	"preceding":          axisPreceding,
	"attribute":          axisAttribute,
	"self":               axisSelf,
	"descendant-or-self": axisDescendantOrSelf,
	"ancestor-or-self":   axisAncestorOrSelf,
}

func (a axisType) String() string {
	for name, ax := range axisNames {
		if ax == a {
			return name
		}
	}
	return "?"
}

type testKind uint8

const (
	testName       testKind = iota // name or prefix:name
	testAnyName                    // *
	testNSWildcard                 // prefix:*
	testText
	testComment
	testPI
	testNode
)

type nodeTest struct {
	kind     testKind
	prefix   string
	name     string
	piTarget string
}

func (t nodeTest) String() string {
	switch t.kind {
	case testName:
		if t.prefix != "" {
			return t.prefix + ":" + t.name
		}
		return t.name
	case testAnyName:
		return "*"
	case testNSWildcard:
		return t.prefix + ":*"
	case testText:
		return "text()"
	case testComment:
		return "comment()"
	case testPI:
		if t.piTarget != "" {
			return fmt.Sprintf("processing-instruction(%q)", t.piTarget)
		}
		return "processing-instruction()"
	case testNode:
		return "node()"
	}
	return "?"
}

type step struct {
	axis  axisType
	test  nodeTest
	preds []Expr
}

func (s *step) String() string {
	var b strings.Builder
	switch {
	case s.axis == axisAttribute:
		b.WriteString("@")
	case s.axis == axisChild:
		// default axis, no prefix
	default:
		b.WriteString(s.axis.String())
		b.WriteString("::")
	}
	b.WriteString(s.test.String())
	for _, p := range s.preds {
		fmt.Fprintf(&b, "[%s]", p)
	}
	return b.String()
}

// pathExpr is a location path, optionally rooted at a filter expression
// (e.g. id('x')/child::a) or at the document root (absolute).
type pathExpr struct {
	input    Expr // nil means: start from the context node (or root when absolute)
	absolute bool
	steps    []*step
}

func (p *pathExpr) String() string {
	var b strings.Builder
	if p.input != nil {
		b.WriteString(p.input.String())
		if len(p.steps) > 0 {
			b.WriteString("/")
		}
	} else if p.absolute {
		b.WriteString("/")
	}
	for i, s := range p.steps {
		if i > 0 {
			b.WriteString("/")
		}
		b.WriteString(s.String())
	}
	return b.String()
}

// filterExpr is PrimaryExpr Predicate+.
type filterExpr struct {
	primary Expr
	preds   []Expr
}

func (f *filterExpr) String() string {
	var b strings.Builder
	b.WriteString(f.primary.String())
	for _, p := range f.preds {
		fmt.Fprintf(&b, "[%s]", p)
	}
	return b.String()
}

type binaryExpr struct {
	op   tokKind
	l, r Expr
}

var opNames = map[tokKind]string{
	tokOr: "or", tokAnd: "and", tokEq: "=", tokNeq: "!=",
	tokLt: "<", tokLe: "<=", tokGt: ">", tokGe: ">=",
	tokPlus: "+", tokMinus: "-", tokMultiply: "*", tokDiv: "div", tokMod: "mod",
}

func (e *binaryExpr) String() string {
	return fmt.Sprintf("(%s %s %s)", e.l, opNames[e.op], e.r)
}

type negExpr struct{ e Expr }

func (e *negExpr) String() string { return "-" + e.e.String() }

type unionExpr struct{ parts []Expr }

func (e *unionExpr) String() string {
	strs := make([]string, len(e.parts))
	for i, p := range e.parts {
		strs[i] = p.String()
	}
	return strings.Join(strs, " | ")
}

type literalExpr string

func (e literalExpr) String() string { return fmt.Sprintf("%q", string(e)) }

type numberExpr float64

func (e numberExpr) String() string { return FormatNumber(float64(e)) }

type varExpr string

func (e varExpr) String() string { return "$" + string(e) }

type callExpr struct {
	name string
	args []Expr
}

func (e *callExpr) String() string {
	strs := make([]string, len(e.args))
	for i, a := range e.args {
		strs[i] = a.String()
	}
	return e.name + "(" + strings.Join(strs, ", ") + ")"
}
