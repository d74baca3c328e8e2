package xpath

import (
	"fmt"
	"strings"
)

// The plan listing of a compiled expression. It lives in test code: only
// the golden plan test and the fuzz and differential failure reports
// read it.

// Plan returns a deterministic, human-readable rendering of the
// compiled program — the planner's chosen strategies included — the
// format of testdata/plans.want.
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
	for _, in := range p.code {
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
