package xpath

import (
	"fmt"
	"strings"
)

// The instruction IR: the final stage of the compilation pipeline. A
// normalized expression lowers to a flat program for a small stack
// evaluator (vm.go) whose operands are unboxed tagged values, so scalar
// arithmetic, comparisons and boolean logic never allocate Value
// interfaces. Location paths stay structured — a pathPlan per path, with
// the access strategy (name index, forward-axis ordering, direct k-th
// selection) chosen here at compile time instead of being re-detected
// on every evaluation as the legacy interpreter did.

type opcode uint8

const (
	opConst  opcode = iota // push consts[a]
	opVar                  // push value of variable names[a]
	opPath                 // execute paths[a] (pops input node-set when the plan has one)
	opFilter               // apply predicate set filters[a] to the node-set on top
	opUnion                // pop a node-sets, push their document-order merge
	opNeg                  // arithmetic negation
	opAdd
	opSub
	opMul
	opDiv
	opMod
	opEq
	opNeq
	opLt
	opLe
	opGt
	opGe
	opJmpFalse // pop; if false push false and jump to a (short-circuit and)
	opJmpTrue  // pop; if true push true and jump to a (short-circuit or)
	opToBool   // coerce top of stack to boolean
	opCall     // call calls[a], popping its arguments
	opID       // id() with one evaluated argument on the stack (id-map lookup)
	opCurrent  // current(): push the XSLT current node
)

var opcodeNames = [...]string{
	opConst: "const", opVar: "var", opPath: "path", opFilter: "filter",
	opUnion: "union", opNeg: "neg", opAdd: "add", opSub: "sub", opMul: "mul",
	opDiv: "div", opMod: "mod", opEq: "eq", opNeq: "neq", opLt: "lt",
	opLe: "le", opGt: "gt", opGe: "ge", opJmpFalse: "jmp-false",
	opJmpTrue: "jmp-true", opToBool: "to-bool", opCall: "call", opID: "id-lookup",
	opCurrent: "current",
}

type instr struct {
	op opcode
	a  int32
}

// callSite is a function call resolved at runtime through the context's
// function bindings first, then the core library — the same order the
// reference interpreter uses.
type callSite struct {
	name string
	argc int
}

// program is one compiled expression body. Predicates compile to nested
// programs executed on the shared operand stack.
type program struct {
	code    []instr
	consts  []irval
	names   []string
	calls   []callSite
	paths   []*pathPlan
	filters [][]*predPlan
	// maxStack is the operand-stack depth the program needs, including
	// the predicate sub-programs that run on the same frame. Computed by
	// the emitter; lets the evaluator run small programs (the common
	// case) on an inline stack without touching the frame pool.
	maxStack int
}

// pathPlan is the planned form of a location path.
type pathPlan struct {
	hasInput bool // pops its start node-set from the stack
	absolute bool
	steps    []*planStep
}

// planStep is one location step with its access strategy fixed at
// compile time.
type planStep struct {
	axis axisType
	test nodeTest
	// indexed marks descendant/descendant-or-self steps with an
	// unprefixed name test: the evaluator answers them from the
	// document's name index (with a residual URI filter), which every
	// tree it sees has, because evaluation runs on frozen trees only.
	indexed bool
	// forward marks axes whose step results for a single context node
	// are already in document order and duplicate-free, so the merge
	// sort is skipped.
	forward bool
	preds   []*predPlan
}

// predPlan is one compiled predicate.
type predPlan struct {
	prog *program
	// posConst, when > 0, is a constant integer predicate [k]: the
	// evaluator selects the k-th matched node directly instead of
	// evaluating anything per node.
	posConst int
	// posFree records that the predicate can never observe the context
	// position (no position()/last(), statically non-numeric). Such
	// predicates are what step fusion relies on; the evaluator also
	// skips the numeric-result position test for them.
	posFree bool
}

// Compiled is a fully compiled XPath expression: the original parse
// tree (the reference interpreter's input), its normalized form (what
// introspection exposes), the planned instruction program, and the
// statically inferred result type.
type Compiled struct {
	src  string
	ref  Expr
	norm Expr
	prog *program
	typ  StaticType
}

// String returns the original expression source, which is parseable.
func (c *Compiled) String() string { return c.src }

// Type returns the statically inferred result type of the expression.
func (c *Compiled) Type() StaticType { return c.typ }

// EvalReference evaluates the expression with the legacy AST
// interpreter over the unnormalized parse tree. It is the semantic
// oracle the IR evaluator is differentially tested against; production
// paths use Eval. Unlike Eval it does not freeze the context tree, which
// must already be frozen.
func (c *Compiled) EvalReference(ctx *Context) (Value, error) {
	return c.ref.Eval(ctx)
}

// finishCompile runs the post-parse pipeline stages on an AST.
func finishCompile(src string, ast Expr) *Compiled {
	norm := normalizeExpr(ast)
	return &Compiled{
		src:  src,
		ref:  ast,
		norm: norm,
		prog: compileProgram(norm),
		typ:  inferType(norm),
	}
}

// Plan returns a deterministic, human-readable rendering of the
// compiled program — the planner's chosen strategies included — used by
// the golden plan tests and for debugging.
func (c *Compiled) Plan() string {
	var b strings.Builder
	fmt.Fprintf(&b, "type %s\n", c.typ)
	writeProgram(&b, c.prog, 0)
	return b.String()
}

func indentln(b *strings.Builder, depth int, format string, args ...interface{}) {
	for i := 0; i < depth; i++ {
		b.WriteString("  ")
	}
	fmt.Fprintf(b, format, args...)
	b.WriteByte('\n')
}

func writeProgram(b *strings.Builder, p *program, depth int) {
	for pc, in := range p.code {
		switch in.op {
		case opConst:
			indentln(b, depth, "const %s", p.consts[in.a].planString())
		case opVar:
			indentln(b, depth, "var $%s", p.names[in.a])
		case opCall:
			cs := p.calls[in.a]
			indentln(b, depth, "call %s/%d", cs.name, cs.argc)
		case opID:
			indentln(b, depth, "id-lookup [id-map]")
		case opUnion:
			indentln(b, depth, "union %d", in.a)
		case opJmpFalse:
			indentln(b, depth, "jmp-false → %d", in.a)
		case opJmpTrue:
			indentln(b, depth, "jmp-true → %d", in.a)
		case opPath:
			writePathPlan(b, p.paths[in.a], depth)
		case opFilter:
			indentln(b, depth, "filter")
			writePreds(b, p.filters[in.a], depth+1)
		default:
			indentln(b, depth, "%s", opcodeNames[in.op])
		}
		_ = pc
	}
}

func writePathPlan(b *strings.Builder, pl *pathPlan, depth int) {
	head := "path"
	switch {
	case pl.hasInput:
		head += " from-input"
	case pl.absolute:
		head += " abs"
	}
	indentln(b, depth, "%s", head)
	for _, st := range pl.steps {
		flags := ""
		if st.indexed {
			flags += " [name-index]"
		}
		if st.forward {
			flags += " [forward]"
		}
		indentln(b, depth+1, "step %s::%s%s", st.axis, st.test, flags)
		writePreds(b, st.preds, depth+2)
	}
}

func writePreds(b *strings.Builder, preds []*predPlan, depth int) {
	for _, pr := range preds {
		switch {
		case pr.posConst > 0:
			indentln(b, depth, "pred [select #%d]", pr.posConst)
		case pr.posFree:
			indentln(b, depth, "pred [pos-free]")
		default:
			indentln(b, depth, "pred")
		}
		if pr.prog != nil {
			writeProgram(b, pr.prog, depth+1)
		}
	}
}

// planString renders a constant operand for Plan output.
func (v irval) planString() string {
	switch v.kind {
	case vBool:
		if v.b {
			return "true"
		}
		return "false"
	case vNum:
		return FormatNumber(v.num)
	case vStr:
		return fmt.Sprintf("%q", v.str)
	}
	return fmt.Sprintf("node-set(%d)", len(v.nodes))
}

// Interface checks: Compiled is a drop-in Expr, and the AST nodes the
// reference interpreter evaluates all satisfy Expr too.
var (
	_ Expr = (*Compiled)(nil)
	_ Expr = boolExpr(false)
)
