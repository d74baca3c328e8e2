package xmldom

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestDeepNesting(t *testing.T) {
	const depth = 2000
	src := strings.Repeat("<d>", depth) + "x" + strings.Repeat("</d>", depth)
	doc, err := ParseString(src)
	if err != nil {
		t.Fatalf("deep parse: %v", err)
	}
	n := doc.DocumentElement()
	count := 1
	for len(n.Elements()) > 0 {
		n = n.Elements()[0]
		count++
	}
	if count != depth {
		t.Errorf("depth = %d", count)
	}
	if doc.StringValue() != "x" {
		t.Errorf("leaf text lost")
	}
	// Serialization survives the same depth.
	out := doc.XML()
	if !strings.HasSuffix(out, strings.Repeat("</d>", 4)) {
		t.Error("serialization truncated")
	}
}

func TestManySiblings(t *testing.T) {
	const n = 5000
	var b strings.Builder
	b.WriteString("<r>")
	for i := 0; i < n; i++ {
		b.WriteString("<c/>")
	}
	b.WriteString("</r>")
	doc, err := ParseString(b.String())
	if err != nil {
		t.Fatal(err)
	}
	if got := len(doc.DocumentElement().Children); got != n {
		t.Errorf("children = %d", got)
	}
}

func TestLargeAttributeValue(t *testing.T) {
	payload := strings.Repeat("ab&amp;", 10_000)
	doc, err := ParseString(`<e v="` + payload + `"/>`)
	if err != nil {
		t.Fatal(err)
	}
	v := doc.DocumentElement().AttrValue("v")
	if len(v) != 10_000*3 {
		t.Errorf("attr length = %d", len(v))
	}
	if !strings.HasPrefix(v, "ab&ab&") {
		t.Errorf("entity expansion wrong: %.12s", v)
	}
}

// TestCompareOrderIsStrictTotalOrder: over the nodes of a random tree,
// CompareOrder behaves like a strict total order consistent with a
// pre-order walk.
func TestCompareOrderIsStrictTotalOrder(t *testing.T) {
	f := func(seed int64) bool {
		doc := randomTree(seed)
		Freeze(doc)
		// Pre-order enumeration (elements and text).
		var walkOrder []*Node
		var walk func(n *Node)
		walk = func(n *Node) {
			walkOrder = append(walkOrder, n)
			for _, a := range n.Attr {
				walkOrder = append(walkOrder, a)
			}
			for _, c := range n.Children {
				walk(c)
			}
		}
		walk(doc)
		for i := range walkOrder {
			for j := range walkOrder {
				got := CompareOrder(walkOrder[i], walkOrder[j])
				switch {
				case i == j && got != 0:
					return false
				case i < j && got != -1:
					return false
				case i > j && got != 1:
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestEscapeRoundTripProperty: any text survives appendEscText → parse,
// and any attribute value survives appendEscAttr → parse.
func TestEscapeRoundTripProperty(t *testing.T) {
	sanitize := func(s string) string {
		// Strip control characters the XML spec forbids entirely.
		return strings.Map(func(r rune) rune {
			if r < 0x20 && r != '\t' && r != '\n' && r != '\r' {
				return -1
			}
			return r
		}, s)
	}
	f := func(raw string) bool {
		s := sanitize(raw)
		doc, err := ParseString("<e a=\"" + string(appendEscAttr(nil, s)) + "\">" + string(appendEscText(nil, s)) + "</e>")
		if err != nil {
			t.Logf("parse failed for %q: %v", s, err)
			return false
		}
		e := doc.DocumentElement()
		// Text round-trips except for \r\n normalization which we do not
		// apply on input; compare with CR folded.
		want := s
		if e.AttrValue("a") != strings.Map(func(r rune) rune {
			// attribute-value normalization turns tab/newline into space
			// unless character-referenced; appendEscAttr references them, so
			// the exact value must survive.
			return r
		}, want) {
			t.Logf("attr %q != %q", e.AttrValue("a"), want)
			return false
		}
		if e.StringValue() != want {
			t.Logf("text %q != %q", e.StringValue(), want)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestPrettyIsStable(t *testing.T) {
	// Pretty-printing an already-pretty document yields the same text.
	src := `<a><b><c>x</c></b><d/></a>`
	doc := MustParseString(src)
	once := Pretty(doc)
	doc2 := MustParseString(once)
	twice := Pretty(doc2)
	if once != twice {
		t.Errorf("pretty not idempotent:\n%s\nvs\n%s", once, twice)
	}
}
