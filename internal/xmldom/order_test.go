package xmldom

import (
	"strings"
	"testing"
)

// orderFixture builds and freezes a small document:
//
//	<r a="1" b="2"><c1><g/></c1><c2/></r>
//
// returning the interesting nodes by name.
func orderFixture(t *testing.T) map[string]*Node {
	t.Helper()
	doc := NewDocument()
	r := doc.AppendChild(NewElement("r"))
	a := r.SetAttr("a", "1")
	b := r.SetAttr("b", "2")
	c1 := r.AppendChild(NewElement("c1"))
	g := c1.AppendChild(NewElement("g"))
	c2 := r.AppendChild(NewElement("c2"))
	Freeze(doc)
	return map[string]*Node{
		"doc": doc, "r": r, "a": a, "b": b, "c1": c1, "g": g, "c2": c2,
	}
}

// TestDocOrderAttrsBetweenElementAndChildren pins the XPath 1.0 rule that
// stamps must encode: an element precedes its attributes, and its
// attributes precede all of its children.
func TestDocOrderAttrsBetweenElementAndChildren(t *testing.T) {
	n := orderFixture(t)
	// The full expected document order of the fixture.
	want := []*Node{n["doc"], n["r"], n["a"], n["b"], n["c1"], n["g"], n["c2"]}
	for i := range want {
		for j := range want {
			got := CompareOrder(want[i], want[j])
			exp := 0
			if i < j {
				exp = -1
			} else if i > j {
				exp = 1
			}
			if got != exp {
				t.Errorf("CompareOrder(#%d, #%d) = %d, want %d", i, j, got, exp)
			}
		}
	}
	// And the stamps agree with the comparison.
	for i := 1; i < len(want); i++ {
		if want[i-1].DocOrder() >= want[i].DocOrder() {
			t.Errorf("stamp #%d (%d) not below stamp #%d (%d)",
				i-1, want[i-1].DocOrder(), i, want[i].DocOrder())
		}
	}
}

// TestDocOrderAncestorBeforeDescendant: every ancestor precedes every
// node in its subtree, and the subtree-end stamp brackets exactly the
// descendants.
func TestDocOrderAncestorBeforeDescendant(t *testing.T) {
	n := orderFixture(t)
	if CompareOrder(n["r"], n["g"]) != -1 {
		t.Error("ancestor r must precede descendant g")
	}
	if CompareOrder(n["g"], n["c2"]) != -1 {
		t.Error("g (inside c1) must precede following sibling c2 of c1")
	}
	// Subtree window: c1's (ord, end] must contain g and nothing after c2.
	c1, g, c2 := n["c1"], n["g"], n["c2"]
	if !(g.DocOrder() > c1.DocOrder() && g.DocOrder() <= c1.end) {
		t.Errorf("g stamp %d outside c1 window (%d, %d]", g.DocOrder(), c1.DocOrder(), c1.end)
	}
	if c2.DocOrder() <= c1.end {
		t.Errorf("c2 stamp %d inside c1 window ending %d", c2.DocOrder(), c1.end)
	}
}

// TestDocOrderCrossDocument: nodes of different documents compare by
// document identity — a total, deterministic order (creation order), not
// allocator addresses — and SortDocOrder groups documents accordingly.
func TestDocOrderCrossDocument(t *testing.T) {
	d1 := NewDocument()
	e1 := d1.AppendChild(NewElement("x"))
	d2 := NewDocument()
	e2 := d2.AppendChild(NewElement("y"))
	Freeze(d1)
	Freeze(d2)
	if CompareOrder(e1, e2) != -1 || CompareOrder(e2, e1) != 1 {
		t.Fatal("earlier-created document must order before later one")
	}
	sorted := SortDocOrder([]*Node{e2, d2, e1, d1, e2})
	wantNames := []string{"", "x", "", "y"} // d1, e1, d2, e2 — duplicate e2 removed
	if len(sorted) != 4 {
		t.Fatalf("got %d nodes after sort+dedup, want 4", len(sorted))
	}
	for i, s := range sorted {
		if s.Name != wantNames[i] {
			t.Errorf("sorted[%d] = %q, want %q", i, s.Name, wantNames[i])
		}
	}
	if sorted[0] != d1 || sorted[2] != d2 {
		t.Error("documents not grouped in creation order")
	}
}

// TestDocOrderPanicsOnUnfrozen: document order exists only on frozen
// trees. An unfrozen document carries an identity from NewDocument but
// every stamp is 0, so without the check its nodes would compare equal
// and SortDocOrder would return them unsorted.
func TestDocOrderPanicsOnUnfrozen(t *testing.T) {
	doc := NewDocument()
	r := doc.AppendChild(NewElement("r"))
	k := r.AppendChild(NewElement("k"))
	frozen := orderFixture(t)["r"]
	for name, f := range map[string]func(){
		"CompareOrder":       func() { CompareOrder(k, r) },
		"CompareOrder mixed": func() { CompareOrder(frozen, r) },
		"SortDocOrder":       func() { SortDocOrder([]*Node{k, r}) },
		"SortDocOrder mixed": func() { SortDocOrder([]*Node{frozen, r}) },
		"IndexedDescendants": func() { r.IndexedDescendants("k", false) },
	} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.HasPrefix(msg, "xmldom: ") || !strings.Contains(msg, "unfrozen") {
					t.Errorf("%s on an unfrozen tree: recovered %q, want an xmldom: unfrozen panic", name, msg)
				}
			}()
			f()
		}()
	}
	// A single node has nothing to order, so SortDocOrder passes it through.
	if got := SortDocOrder([]*Node{r}); len(got) != 1 || got[0] != r {
		t.Errorf("SortDocOrder of one unfrozen node = %v", got)
	}
}

// TestEditableLeavesStampsIntact: Editable is copy-on-write — the copy is
// unfrozen and mutable, and the original's stamps and indexes are
// untouched by mutations of the copy.
func TestEditableLeavesStampsIntact(t *testing.T) {
	n := orderFixture(t)
	doc := n["doc"]
	before := make(map[*Node]uint64)
	for _, node := range n {
		before[node] = node.DocOrder()
	}
	copyDoc := doc.Editable()
	if copyDoc.Frozen() {
		t.Fatal("Editable copy must not be frozen")
	}
	if copyDoc.DocOrder() != 0 {
		t.Errorf("Editable copy carries stale stamp %d", copyDoc.DocOrder())
	}
	// Mutate the copy heavily.
	root := copyDoc.Children[0]
	root.SetAttr("extra", "yes")
	root.AppendChild(NewElement("new"))
	root.RemoveChild(root.Children[0])
	// Original stamps, index and frozen state are unchanged.
	if !doc.Frozen() {
		t.Fatal("original lost frozen state")
	}
	for _, node := range n {
		if node.DocOrder() != before[node] {
			t.Errorf("stamp of %s changed: %d -> %d", node.Name, before[node], node.DocOrder())
		}
	}
	if got := doc.Index().ElementsByName("c1"); len(got) != 1 || got[0] != n["c1"] {
		t.Error("original name index changed after mutating the Editable copy")
	}
	// Re-freezing the copy gives it fresh, self-consistent stamps.
	Freeze(copyDoc)
	if copyDoc.Index().ID() == doc.Index().ID() {
		t.Error("Editable copy must get its own document identity")
	}
}

// TestFrozenMutatorsPanic: every exported mutator fails loudly on a
// frozen tree, pointing at Editable.
func TestFrozenMutatorsPanic(t *testing.T) {
	n := orderFixture(t)
	r := n["r"]
	cases := map[string]func(){
		"AppendChild":       func() { r.AppendChild(NewElement("z")) },
		"InsertBefore":      func() { r.InsertBefore(NewElement("z"), nil) },
		"RemoveChild":       func() { r.RemoveChild(n["c1"]) },
		"SetAttr":           func() { r.SetAttr("q", "v") },
		"RemoveAttr":        func() { r.RemoveAttr("a") },
		"AppendFrozenChild": func() { NewElement("z").AppendChild(n["c2"]) },
	}
	for name, fn := range cases {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if msg == "" {
					t.Errorf("%s on frozen tree did not panic", name)
				} else if !strings.Contains(msg, "Editable") {
					t.Errorf("%s panic %q does not mention Editable", name, msg)
				}
			}()
			fn()
		}()
	}
}

// TestFreezeRequiresRoot: freezing mid-tree is a programming error.
func TestFreezeRequiresRoot(t *testing.T) {
	n := orderFixture(t)
	defer func() {
		if recover() == nil {
			t.Error("Freeze of a non-root node did not panic")
		}
	}()
	// n["c1"] is frozen already; build a fresh tree to get past the
	// idempotence fast path.
	d := NewDocument()
	e := d.AppendChild(NewElement("e"))
	_ = n
	Freeze(e)
}

// TestFreezeIdempotent: refreezing returns the same index and keeps the
// stamps stable.
func TestFreezeIdempotent(t *testing.T) {
	n := orderFixture(t)
	doc := n["doc"]
	ix := doc.Index()
	ordBefore := n["g"].DocOrder()
	if Freeze(doc) != ix {
		t.Error("refreeze returned a different index")
	}
	if n["g"].DocOrder() != ordBefore {
		t.Error("refreeze changed stamps")
	}
}

// TestIndexLookups: the byID and byName indexes answer the XPath id() and
// descendant-name questions that the query layer leans on.
func TestIndexLookups(t *testing.T) {
	doc := NewDocument()
	r := doc.AppendChild(NewElement("r"))
	k1 := r.AppendChild(NewElement("k"))
	k1.SetAttr("id", "one")
	sub := r.AppendChild(NewElement("sub"))
	k2 := sub.AppendChild(NewElement("k"))
	k2.SetAttr("id", "two")
	ix := Freeze(doc)
	if ix.ByID("one") != k1 || ix.ByID("two") != k2 {
		t.Error("ByID lookup wrong")
	}
	if ix.ByID("absent") != nil {
		t.Error("ByID of unknown id must be nil")
	}
	all := ix.ElementsByName("k")
	if len(all) != 2 || all[0] != k1 || all[1] != k2 {
		t.Errorf("ElementsByName(k) = %v", all)
	}
	// Subtree-scoped descendant lookup under sub sees only k2.
	got := sub.IndexedDescendants("k", false)
	if len(got) != 1 || got[0] != k2 {
		t.Errorf("IndexedDescendants under sub = %v", got)
	}
	// Under the root both, in document order.
	got = r.IndexedDescendants("k", false)
	if len(got) != 2 || got[0] != k1 || got[1] != k2 {
		t.Errorf("IndexedDescendants under r = %v", got)
	}
}

// TestSingleton checks that on a frozen tree Singleton returns a capped
// one-node window into the tree's own storage without allocating, and a
// fresh slice otherwise.
func TestSingleton(t *testing.T) {
	doc, err := Parse([]byte(`<r a="1" b="2"><k x="1"/> text <k y="2"><!--c--><k/></k></r>`))
	if err != nil {
		t.Fatal(err)
	}
	var nodes []*Node
	var walk func(n *Node)
	walk = func(n *Node) {
		nodes = append(nodes, n)
		nodes = append(nodes, n.Attr...)
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(doc)
	check := func(n *Node) []*Node {
		s := n.Singleton()
		if len(s) != 1 || cap(s) != 1 || s[0] != n {
			t.Fatalf("%s: Singleton = %v (len %d, cap %d)", n.Path(), s, len(s), cap(s))
		}
		return s
	}
	for _, n := range nodes {
		check(n) // unfrozen: fresh
	}
	Freeze(doc)
	for _, n := range nodes {
		s := check(n)
		if n.Type == DocumentNode {
			continue
		}
		var storage []*Node
		switch n.Type {
		case ElementNode:
			storage = doc.Index().ElementsByName(n.Name)
		case AttrNode:
			storage = n.Parent.Attr
		default:
			storage = n.Parent.Children
		}
		shared := false
		for i := range storage {
			if &storage[i] == &s[0] {
				shared = true
			}
		}
		if !shared {
			t.Errorf("%s: frozen Singleton does not share the tree's storage", n.Path())
		}
		if raceEnabled {
			continue
		}
		if allocs := testing.AllocsPerRun(10, func() { n.Singleton() }); allocs != 0 {
			t.Errorf("%s: frozen Singleton made %.0f allocations", n.Path(), allocs)
		}
	}
}
