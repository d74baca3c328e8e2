package xmldom

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// FuzzParseWithLimits feeds arbitrary bytes to the parser under arbitrary
// limits (0 lifts one). It must never panic; an error must be a
// ParseError positioned inside the input; a document must respect every
// limit; and serializing a parsed document, compact or with Pretty,
// parsing the result and serializing again must reproduce the first
// serialization.
func FuzzParseWithLimits(f *testing.F) {
	files, err := filepath.Glob(filepath.Join("..", "..", "examples", "models", "*.xml"))
	if err != nil || len(files) == 0 {
		f.Fatalf("no example models: %v", err)
	}
	for _, file := range files {
		src, err := os.ReadFile(file)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(src, uint8(0), uint8(0), uint16(0))
		f.Add(src, uint8(8), uint8(4), uint16(4096))
	}
	for _, c := range errCases {
		if c.lim != nil && c.lim.Cancel != nil {
			continue
		}
		lim := c.limits()
		f.Add([]byte(c.src), uint8(min(lim.MaxDepth, 255)), uint8(min(lim.MaxAttrs, 255)), uint16(min(lim.MaxInput, 65535)))
	}
	f.Fuzz(func(t *testing.T, src []byte, maxDepth, maxAttrs uint8, maxInput uint16) {
		lim := Limits{MaxDepth: int(maxDepth), MaxAttrs: int(maxAttrs), MaxInput: int(maxInput)}
		doc, err := ParseWithLimits(src, lim)
		if err != nil {
			var pe *ParseError
			if !errors.As(err, &pe) {
				t.Fatalf("got %T (%v), want *ParseError", err, err)
			}
			checkErrorPosition(t, src, pe)
			return
		}
		if lim.MaxInput > 0 && len(src) > lim.MaxInput {
			t.Fatalf("%d-byte input accepted under MaxInput %d", len(src), lim.MaxInput)
		}
		checkTreeLimits(t, doc, 0, lim)

		first := SerializeToString(doc, WriteOptions{})
		again, err := ParseStringWithLimits(first, Limits{})
		if err != nil {
			t.Fatalf("serialization does not parse: %v\n%q", err, first)
		}
		if second := SerializeToString(again, WriteOptions{}); second != first {
			t.Fatalf("serialization not stable:\nfirst:  %q\nsecond: %q", first, second)
		}

		pretty := Pretty(doc)
		again, err = ParseStringWithLimits(pretty, Limits{})
		if err != nil {
			t.Fatalf("Pretty output does not parse: %v\n%q", err, pretty)
		}
		if second := Pretty(again); second != pretty {
			t.Fatalf("Pretty not stable:\nfirst:  %q\nsecond: %q", pretty, second)
		}
	})
}

// checkErrorPosition requires pe to point at a line of the input and at
// most one column past that line's end. Lines are counted after XML
// end-of-line handling, as the parser counts them.
func checkErrorPosition(t *testing.T, src []byte, pe *ParseError) {
	t.Helper()
	lines := strings.Split(strings.NewReplacer("\r\n", "\n", "\r", "\n").Replace(string(src)), "\n")
	if pe.Line < 1 || pe.Line > len(lines) {
		t.Fatalf("error %v: line outside the input's %d lines", pe, len(lines))
	}
	if n := len(lines[pe.Line-1]); pe.Col < 1 || pe.Col > n+1 {
		t.Fatalf("error %v: column outside line %d of %d bytes", pe, pe.Line, n)
	}
}

// checkTreeLimits requires every element under n to respect the depth
// and attribute limits.
func checkTreeLimits(t *testing.T, n *Node, depth int, lim Limits) {
	t.Helper()
	if n.Type == ElementNode {
		depth++
		if lim.MaxDepth > 0 && depth > lim.MaxDepth {
			t.Fatalf("element <%s> at depth %d, limit %d", n.FullName(), depth, lim.MaxDepth)
		}
		if lim.MaxAttrs > 0 && len(n.Attr) > lim.MaxAttrs {
			t.Fatalf("element <%s> has %d attributes, limit %d", n.FullName(), len(n.Attr), lim.MaxAttrs)
		}
	}
	for _, c := range n.Children {
		checkTreeLimits(t, c, depth, lim)
	}
}
