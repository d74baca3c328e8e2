package xpath

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
	opLocal    // push frame slot slots[a] of variable names[a], relative to Context.Base
	opGlobal   // push frame slot slots[a] of variable names[a], absolute
)

var opcodeNames = [...]string{
	opConst: "const", opVar: "var", opPath: "path", opFilter: "filter",
	opUnion: "union", opNeg: "neg", opAdd: "add", opSub: "sub", opMul: "mul",
	opDiv: "div", opMod: "mod", opEq: "eq", opNeq: "neq", opLt: "lt",
	opLe: "le", opGt: "gt", opGe: "ge", opJmpFalse: "jmp-false",
	opJmpTrue: "jmp-true", opToBool: "to-bool", opCall: "call", opID: "id-lookup",
	opCurrent: "current", opLocal: "local", opGlobal: "global",
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
	code   []instr
	consts []irval
	names  []string
	// slots holds, for each names entry a slot-resolved reference
	// (opLocal, opGlobal) reads, its frame slot; nil until ResolveVars.
	slots   []int32
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

// Compiled is a fully compiled XPath expression: its source, its
// normalized form (what introspection exposes), the planned instruction
// program, and the statically inferred result type. The raw parse tree
// is not kept.
type Compiled struct {
	src  string
	norm Expr
	prog *program
	typ  StaticType
}

// String returns the original expression source, which is parseable.
func (c *Compiled) String() string { return c.src }

// finishCompile runs the post-parse pipeline stages on an AST.
func finishCompile(src string, ast Expr) *Compiled {
	norm := normalizeExpr(ast)
	return &Compiled{
		src:  src,
		norm: norm,
		prog: compileProgram(norm),
		typ:  inferType(norm),
	}
}

// Interface check: the introspection API reads a Compiled as an Expr.
var _ Expr = (*Compiled)(nil)
