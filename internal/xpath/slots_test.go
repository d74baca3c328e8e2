package xpath

import (
	"testing"

	"goldweb/internal/xmldom"
)

// TestResolveVarsReadsSlots: a resolved expression reads its variables
// from Context.Slots, a local one relative to Base and a global one
// absolute, predicates included; a nil slot is an unbound variable, and
// SlotExtent bounds what it reads.
func TestResolveVarsReadsSlots(t *testing.T) {
	doc := xmldom.MustParseString(`<r><a n="1"/><a n="2"/><a n="3"/></r>`)
	xmldom.Freeze(doc)
	c := MustCompile(`count(//a[@n > $min]) + $add`)
	c.ResolveVars(func(name string) (int, bool) {
		if name == "min" {
			return 1, false // global slot 1
		}
		return 0, true // local slot 0
	})
	if g, l := c.SlotExtent(); g != 2 || l != 1 {
		t.Fatalf("SlotExtent = (%d, %d), want (2, 1)", g, l)
	}
	if err := c.VerifyIR(); err != nil {
		t.Fatal(err)
	}
	ctx := NewContext(doc)
	ctx.Slots = []Value{nil, Number(1), nil, Number(10)}
	ctx.Base = 3
	f := GetFrame()
	defer PutFrame(f)
	if got, err := c.EvalNumberOn(ctx, f); err != nil || got != 12 {
		t.Fatalf("eval = %v, %v; want 12", got, err)
	}
	ctx.Base = 2 // the local slot is now unbound
	if _, err := c.Eval(ctx); err == nil || err.Error() != "xpath: variable $add not bound" {
		t.Fatalf("unbound local slot: error %v", err)
	}
}
