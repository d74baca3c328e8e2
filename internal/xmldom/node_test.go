package xmldom

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestTreeConstruction(t *testing.T) {
	doc := NewDocument()
	root := doc.AddElement("goldmodel")
	root.SetAttr("id", "m1")
	facts := root.AddElement("factclasses")
	f := facts.AddElement("factclass")
	f.SetAttr("id", "f1")
	f.AddText("x")

	if f.Root() != doc {
		t.Error("Root() did not reach document")
	}
	if got := doc.xml(); got != `<goldmodel id="m1"><factclasses><factclass id="f1">x</factclass></factclasses></goldmodel>` {
		t.Errorf("xml = %s", got)
	}
}

func TestSetAttrOverwrites(t *testing.T) {
	e := NewElement("e")
	e.SetAttr("a", "1")
	e.SetAttr("a", "2")
	if len(e.Attr) != 1 || e.AttrValue("a") != "2" {
		t.Fatalf("attrs = %+v", e.Attr)
	}
}

func TestRemoveAttr(t *testing.T) {
	e := NewElement("e")
	e.SetAttr("a", "1")
	e.RemoveAttr("a")
	if e.HasAttr("a") {
		t.Error("attribute not removed")
	}
}

func TestInsertBefore(t *testing.T) {
	e := NewElement("e")
	b := e.AddElement("b")
	a := NewElement("a")
	e.InsertBefore(a, b)
	if e.Children[0] != a || e.Children[1] != b {
		t.Fatalf("order = %v, %v", e.Children[0].Name, e.Children[1].Name)
	}
	c := NewElement("c")
	e.InsertBefore(c, nil) // append
	if e.Children[2] != c {
		t.Fatal("nil ref should append")
	}
}

func TestCloneIsDeepAndDetached(t *testing.T) {
	doc := MustParseString(`<a x="1"><b>t</b></a>`)
	orig := doc.DocumentElement()
	cl := orig.Clone()
	if cl.Parent != nil {
		t.Error("clone should be detached")
	}
	cl.SetAttr("x", "2")
	cl.FirstElement("b").Children[0].Data = "changed"
	if orig.AttrValue("x") != "1" || orig.StringValue() != "t" {
		t.Error("mutating clone affected original")
	}
	if cl.FirstElement("b").Parent != cl {
		t.Error("clone children not reparented")
	}
}

func TestStringValue(t *testing.T) {
	doc := MustParseString(`<a>one<b>two<!--not me--></b><?pi nor me?>three</a>`)
	if got := doc.StringValue(); got != "onetwothree" {
		t.Errorf("string-value = %q", got)
	}
	attr := &Node{Type: AttrNode, Name: "a", Data: "val"}
	if attr.StringValue() != "val" {
		t.Error("attribute string-value")
	}
}

func TestPath(t *testing.T) {
	doc := MustParseString(`<m><fs><f id="1"/><f id="2"/></fs></m>`)
	f2 := doc.DocumentElement().FirstElement("fs").Elements()[1]
	if got := f2.Path(); got != "/m/fs/f[2]" {
		t.Errorf("path = %q", got)
	}
	if got := f2.GetAttr("id").Path(); got != "/m/fs/f[2]/@id" {
		t.Errorf("attr path = %q", got)
	}
	if got := doc.Path(); got != "/" {
		t.Errorf("doc path = %q", got)
	}
}

func TestCompareOrder(t *testing.T) {
	doc := MustParseString(`<a p="1"><b/><c><d/></c></a>`)
	Freeze(doc)
	a := doc.DocumentElement()
	b := a.FirstElement("b")
	c := a.FirstElement("c")
	d := c.FirstElement("d")
	p := a.GetAttr("p")

	cases := []struct {
		x, y *Node
		want int
		name string
	}{
		{a, b, -1, "parent before child"},
		{b, c, -1, "sibling order"},
		{b, d, -1, "b before d"},
		{d, c, 1, "descendant after ancestor"},
		{p, b, -1, "attr before children"},
		{a, p, -1, "element before its attrs"},
		{d, d, 0, "identity"},
	}
	for _, tc := range cases {
		if got := compareOrder(tc.x, tc.y); got != tc.want {
			t.Errorf("%s: got %d want %d", tc.name, got, tc.want)
		}
	}
}

func TestSortDocOrderDedupes(t *testing.T) {
	doc := MustParseString(`<a><b/><c/><d/></a>`)
	Freeze(doc)
	a := doc.DocumentElement()
	b, c, d := a.Children[0], a.Children[1], a.Children[2]
	sorted := SortDocOrder([]*Node{d, b, c, b, d, a})
	want := []*Node{a, b, c, d}
	if len(sorted) != len(want) {
		t.Fatalf("len = %d want %d", len(sorted), len(want))
	}
	for i := range want {
		if sorted[i] != want[i] {
			t.Errorf("pos %d: got %s", i, sorted[i].Name)
		}
	}
}

func TestDescendantElements(t *testing.T) {
	doc := MustParseString(`<a><x/><b><x/><y/></b></a>`)
	if got := len(doc.DescendantElements("x")); got != 2 {
		t.Errorf("x count = %d", got)
	}
	if got := len(doc.DescendantElements("")); got != 5 {
		t.Errorf("all count = %d", got)
	}
}

// TestRoundTripProperty: any tree serialized and reparsed has the same
// structure (names, attributes, merged text).
func TestRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		doc := randomTree(seed)
		out := SerializeToString(doc, WriteOptions{})
		doc2, err := ParseString(out)
		if err != nil {
			t.Logf("reparse failed for %q: %v", out, err)
			return false
		}
		return equalTrees(doc, doc2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// randomTree builds a small deterministic pseudo-random document.
func randomTree(seed int64) *Node {
	state := uint64(seed)*2654435761 + 12345
	next := func(n int) int {
		state = state*6364136223846793005 + 1442695040888963407
		return int(state>>33) % n
	}
	names := []string{"alpha", "beta", "gamma", "delta"}
	texts := []string{"plain", "with & amp", "a<b", `quote"here`, "tab\there"}
	doc := NewDocument()
	var build func(parent *Node, depth int)
	build = func(parent *Node, depth int) {
		e := parent.AddElement(names[next(len(names))])
		for i := 0; i < next(3); i++ {
			e.SetAttr(names[next(len(names))]+"a", texts[next(len(texts))])
		}
		if depth < 3 {
			for i := 0; i < next(3); i++ {
				build(e, depth+1)
			}
		}
		if next(2) == 0 {
			e.AddText(texts[next(len(texts))])
		}
	}
	build(doc, 0)
	return doc
}

// equalTrees compares structure, ignoring text node boundaries by merging
// adjacent text.
func equalTrees(a, b *Node) bool {
	if a.Type != b.Type || a.Name != b.Name || a.URI != b.URI {
		return false
	}
	if a.Type == TextNode || a.Type == AttrNode || a.Type == CommentNode {
		if a.Data != b.Data {
			return false
		}
	}
	if len(a.Attr) != len(b.Attr) {
		return false
	}
	for i := range a.Attr {
		if !equalTrees(a.Attr[i], b.Attr[i]) {
			return false
		}
	}
	ac, bc := mergeText(a.Children), mergeText(b.Children)
	if len(ac) != len(bc) {
		return false
	}
	for i := range ac {
		if tn, ok := ac[i].(string); ok {
			if tn2, ok2 := bc[i].(string); !ok2 || tn != tn2 {
				return false
			}
			continue
		}
		n1 := ac[i].(*Node)
		n2, ok := bc[i].(*Node)
		if !ok || !equalTrees(n1, n2) {
			return false
		}
	}
	return true
}

func mergeText(children []*Node) []interface{} {
	var out []interface{}
	var buf strings.Builder
	flush := func() {
		if buf.Len() > 0 {
			out = append(out, buf.String())
			buf.Reset()
		}
	}
	for _, c := range children {
		if c.Type == TextNode {
			buf.WriteString(c.Data)
		} else {
			flush()
			out = append(out, c)
		}
	}
	flush()
	return out
}
