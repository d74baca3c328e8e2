package xpath

import (
	"math"
	"reflect"
	"testing"

	"goldweb/internal/xmldom"
)

// TestEvalOnMatchesEval pins the shared-frame entry points to the pooled
// Eval across value kinds, including re-entrant evaluation on one frame:
// each coercing …On form must agree with the matching coercion of Eval's
// result.
func TestEvalOnMatchesEval(t *testing.T) {
	doc := xmldom.MustParseString(`<r><a id="1">x</a><a id="2">y</a><b>z</b></r>`)
	f := GetFrame()
	defer PutFrame(f)
	for _, src := range []string{
		"//a",
		"count(//a) + 1",
		"concat(name(/*), '-', string(//b))",
		"//a[@id='2']",
		"boolean(//missing)",
		"(//a | //b)[last()]",
	} {
		c := MustCompile(src)
		ctx := &Context{Node: doc, Position: 1, Size: 1}
		want, err1 := c.Eval(ctx)
		got, err2 := c.EvalOn(ctx, f)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("%s: error divergence: %v vs %v", src, err1, err2)
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("%s: Eval=%v EvalOn=%v", src, want, got)
		}
		if err1 != nil {
			continue
		}
		if b, err := c.EvalBoolOn(ctx, f); err != nil || b != ToBool(want) {
			t.Errorf("%s: EvalBoolOn=%v (%v), ToBool(Eval)=%v", src, b, err, ToBool(want))
		}
		if s, err := c.EvalStringOn(ctx, f); err != nil || s != ToString(want) {
			t.Errorf("%s: EvalStringOn=%q (%v), ToString(Eval)=%q", src, s, err, ToString(want))
		}
		wn := ToNumber(want)
		if n, err := c.EvalNumberOn(ctx, f); err != nil || (n != wn && !(math.IsNaN(n) && math.IsNaN(wn))) {
			t.Errorf("%s: EvalNumberOn=%v (%v), ToNumber(Eval)=%v", src, n, err, wn)
		}
	}
	if len(f.ops.stack) != 0 {
		t.Fatalf("operand stack not restored: %d residual slots", len(f.ops.stack))
	}
}

func TestFrameCtlStack(t *testing.T) {
	f := GetFrame()
	n := xmldom.MustParseString(`<x/>`)
	f.PushCtl(CtlFrame{Kind: 1, Node: n, List: n.Children})
	f.PushCtl(CtlFrame{Kind: 2, Ret: 7})
	if f.Depth() != 2 || f.TopCtl().Kind != 2 {
		t.Fatalf("unexpected ctl stack state: depth=%d", f.Depth())
	}
	f.PopCtl()
	if f.TopCtl().Kind != 1 {
		t.Fatalf("pop did not expose outer frame")
	}
	PutFrame(f)
	g := GetFrame()
	defer PutFrame(g)
	if g.Depth() != 0 {
		t.Fatalf("pooled frame not cleared: depth=%d", g.Depth())
	}
	// The backing array must have been scrubbed on Put.
	for i := range g.Ctl[:cap(g.Ctl)] {
		if cf := &g.Ctl[:cap(g.Ctl)][i]; cf.Node != nil || cf.List != nil {
			t.Fatalf("pooled ctl slot %d retains references", i)
		}
	}
}
