package xpath_test

import (
	"testing"

	"goldweb/internal/xmldom"
	"goldweb/internal/xpath"
)

var fuzzSeeds = []string{
	"a/b/c", "//dimclass[@id='d1']", "*[position() = last()]",
	"count(//*) + 1", "concat('a', 'b', $v)", "@* | node()",
	"self::node()/..", "(//*)[2]", "id('k')/child::*",
	"string-length(normalize-space(.))", "1 div 0", "-(-1)",
	"a[b[c[d]]]", "x | y | z", "not(true()) or false()",
	"10 mod 3 = 1", "substring('hello', 2, 3)", "ancestor-or-self::*[1]",
	"'unterminated", "a[", "1 +", "((((", "$", "a::b", "/@/",
}

// FuzzParse checks the compiler front end never panics, reports
// syntax errors with offsets inside the expression, and produces a
// printable plan for everything it accepts.
func FuzzParse(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		c, err := xpath.Compile(src)
		if err != nil {
			if se, ok := err.(*xpath.SyntaxError); ok {
				if se.Pos < 0 || se.Pos > len(src) {
					t.Fatalf("syntax error offset %d outside %q", se.Pos, src)
				}
			}
			return
		}
		if c.Plan() == "" {
			t.Fatalf("compiled %q has an empty plan", src)
		}
		if c.String() != src {
			t.Fatalf("String() = %q, want %q", c.String(), src)
		}
	})
}

// fuzzDoc has whitespace text between siblings, so a step's matches
// are not one contiguous run of the axis; elements with several
// attributes; and @ref attributes naming ids for id().
const fuzzDoc = `<root id="r" x="v" y="w">
  <a id="a1" x="v" ref="a2" name="first"><b x="v">one</b> <b id="b2" name="second">two</b>
    <b y="w" ref="b2">x</b></a>
  <a id="a2" ref="a1 b2"><c x="w" name="third">three</c></a>
  <d ref="r"/>
</root>`

// fuzzContexts returns the context nodes FuzzIRvsReference evaluates
// from: the root, its element, a nested element and an attribute.
func fuzzContexts(doc *xmldom.Node) []*xmldom.Node {
	root := doc.Children[0]
	a := root.Children[1]
	return []*xmldom.Node{doc, root, a.Children[0], a.Attr[0]}
}

// FuzzIRvsReference cross-checks the IR evaluator against the legacy AST
// interpreter on arbitrary expressions over a small fixed document,
// frozen so the IR's fast paths (name index, windows into frozen
// storage, id map) are live.
func FuzzIRvsReference(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s)
	}
	for _, s := range []string{"@x = 'v'", "id(@ref)/@name", "../@id", "b[1]", "a/b[@x]"} {
		f.Add(s)
	}
	doc := xmldom.MustParseString(fuzzDoc)
	xmldom.Freeze(doc)
	contexts := fuzzContexts(doc)
	vars := map[string]xpath.Value{"v": xpath.String("3")}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 512 {
			return
		}
		c, err := xpath.Compile(src)
		if err != nil {
			return
		}
		for _, n := range contexts {
			ref := &xpath.Context{Node: n, Position: 1, Size: 1, Vars: vars, Current: n}
			want, wantErr := c.EvalReference(ref)
			got, gotErr := c.Eval(&xpath.Context{Node: n, Position: 1, Size: 1, Vars: vars, Current: n})
			if (gotErr != nil) != (wantErr != nil) {
				t.Fatalf("%q from %s: IR err=%v, reference err=%v", src, n.Path(), gotErr, wantErr)
			}
			if gotErr == nil && !sameValue(got, want) {
				t.Fatalf("%q from %s:\n  IR: %#v\n  reference: %#v\n  plan:\n%s", src, n.Path(), got, want, c.Plan())
			}
		}
	})
}
