package xpath

import (
	"testing"

	"goldweb/internal/xmldom"
)

// indexDoc is shaped to exercise the frozen fast paths: repeated element
// names at several depths, namespaced homonyms, id attributes and text.
const indexDoc = `<r xmlns:x="urn:x">
  <a id="a1"><b id="b1"/><b/><x:b/></a>
  <a id="a2"><c><b id="b2"/></c></a>
  <c><a><b/></a></c>
</r>`

// queryBoth evaluates src on the frozen indexDoc with the IR (Eval) and
// with the walking reference interpreter (EvalReference), and fails
// unless the two results select the same nodes in the same order. It
// returns the IR's node-set, nil for a scalar result.
func queryBoth(t *testing.T, src string) NodeSet {
	t.Helper()
	doc := xmldom.MustParseString(indexDoc)
	xmldom.Freeze(doc)
	c, err := Compile(src)
	if err != nil {
		t.Fatalf("%s: %v", src, err)
	}
	fv, err := c.Eval(NewContext(doc))
	if err != nil {
		t.Fatalf("%s (IR): %v", src, err)
	}
	rv, err := c.EvalReference(NewContext(doc))
	if err != nil {
		t.Fatalf("%s (reference): %v", src, err)
	}
	fns, ok := fv.(NodeSet)
	if !ok {
		if ToString(fv) != ToString(rv) {
			t.Fatalf("%s: IR %v, reference %v", src, fv, rv)
		}
		return nil
	}
	rns := rv.(NodeSet)
	if len(fns) != len(rns) {
		t.Fatalf("%s: IR %d nodes, reference %d", src, len(fns), len(rns))
	}
	for i := range fns {
		if fns[i] != rns[i] {
			t.Fatalf("%s: node %d differs: IR %s, reference %s", src, i, fns[i].Path(), rns[i].Path())
		}
	}
	return fns
}

// TestFrozenMatchesUnfrozen: the IR's fast paths (the descendant name
// index, step fusion, the single-token id lookup) must be invisible — the
// IR selects the same nodes in the same order as the reference
// interpreter, which walks the tree for every step.
func TestFrozenMatchesUnfrozen(t *testing.T) {
	exprs := []string{
		"//b", "//a", "//a//b", "//c/b", "/r//b", "//a/b | //c",
		"//b[../@id]", "//a[@id='a2']//b", "descendant::b",
		"//b[1]", "//a[last()]", "//a[2]/c//b", "count(//b) = 5",
		"id('a1')", "id('b2')", "id('a1 b2')", "id('nope')",
		"//*",
	}
	for _, src := range exprs {
		queryBoth(t, src)
	}
}

// TestFrozenNodeSetInvariant: frozen evaluation upholds the NodeSet
// contract — document order, duplicate-free — for unions and paths.
func TestFrozenNodeSetInvariant(t *testing.T) {
	for _, src := range []string{
		"//b", "//a | //b", "//b | //a//b | //c", "//b/ancestor::*", "//a//b",
	} {
		fns := queryBoth(t, src)
		for i := 1; i < len(fns); i++ {
			if fns[i-1] == fns[i] {
				t.Errorf("%s: duplicate at %d", src, i)
			}
			if xmldom.CompareOrder(fns[i-1], fns[i]) >= 0 {
				t.Errorf("%s: out of document order at %d", src, i)
			}
		}
	}
}

// TestFusionPositionalSafety: //name[pred] with positional predicates
// must NOT be fused into descendant::name[pred] — //b[1] selects the
// first b child of each parent, not the first b in the document.
func TestFusionPositionalSafety(t *testing.T) {
	doc := xmldom.MustParseString(`<r><a><b v="1"/><b v="2"/></a><a><b v="3"/></a></r>`)
	xmldom.Freeze(doc)
	ns, err := QueryNodes(doc, "//b[1]")
	if err != nil {
		t.Fatal(err)
	}
	if len(ns) != 2 {
		t.Fatalf("//b[1] selected %d nodes, want 2 (one per parent)", len(ns))
	}
	if got := ns[0].AttrValue("v") + ns[1].AttrValue("v"); got != "13" {
		t.Errorf("//b[1] selected v=%q, want first b of each parent", got)
	}
	// descendant::b[1] is the genuinely fused form: first among all.
	ns, err = QueryNodes(doc, "/r/descendant::b[1]")
	if err != nil {
		t.Fatal(err)
	}
	if len(ns) != 1 || ns[0].AttrValue("v") != "1" {
		t.Errorf("descendant::b[1] = %d nodes", len(ns))
	}
}

// appendSink keeps the appends below observable to the compiler.
var appendSink NodeSet

// TestFrozenResultsAreCapped: results that are windows into a frozen
// document's storage (its name index, Children or Attr) are capped, so
// appending to one reallocates instead of overwriting the document.
func TestFrozenResultsAreCapped(t *testing.T) {
	doc := xmldom.MustParseString(`<r><a x="1" y="2"><b/><b/><b/></a><b/></r>`)
	ix := xmldom.Freeze(doc)
	r := doc.Children[0]
	a := r.Children[0]
	byName := append([]*xmldom.Node(nil), ix.ElementsByName("b")...)
	children := append([]*xmldom.Node(nil), a.Children...)
	attrs := append([]*xmldom.Node(nil), a.Attr...)
	for _, src := range []string{
		"//b[1]", "a/b[1]", "a/b[2]", "a/b", "descendant::b[1]", "a/@x",
		"a/b[1]/..", "a/@y/..", ".",
	} {
		ns, err := QueryNodes(r, src)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		if len(ns) == 0 {
			t.Fatalf("%s: empty result", src)
		}
		appendSink = append(ns, doc)
		for name, pair := range map[string][2][]*xmldom.Node{
			"ElementsByName(b)": {byName, ix.ElementsByName("b")},
			"a.Children":        {children, a.Children},
			"a.Attr":            {attrs, a.Attr},
		} {
			want, got := pair[0], pair[1]
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s: appending to the result overwrote %s[%d]", src, name, i)
				}
			}
		}
	}
}
