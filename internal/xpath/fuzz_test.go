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

// mirror maps every node of a frozen copy to its counterpart in the
// unfrozen tree it was parsed alongside.
func mirror(frozen, plain *xmldom.Node, m map[*xmldom.Node]*xmldom.Node) {
	m[frozen] = plain
	for i, a := range frozen.Attr {
		m[a] = plain.Attr[i]
	}
	for i, c := range frozen.Children {
		mirror(c, plain.Children[i], m)
	}
}

// FuzzIRvsReference cross-checks the IR evaluator against the legacy AST
// interpreter on arbitrary expressions over a small fixed document. The
// IR also runs on a frozen copy of the document, where its fast paths
// (name index, windows into frozen storage, id map) are live; its result
// is mapped back to the unfrozen tree and must equal the reference's.
func FuzzIRvsReference(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s)
	}
	for _, s := range []string{"@x = 'v'", "id(@ref)/@name", "../@id", "b[1]", "a/b[@x]"} {
		f.Add(s)
	}
	doc := xmldom.MustParseString(fuzzDoc)
	frozen := xmldom.MustParseString(fuzzDoc)
	xmldom.Freeze(frozen)
	toPlain := map[*xmldom.Node]*xmldom.Node{}
	mirror(frozen, doc, toPlain)
	plainCtx, frozenCtx := fuzzContexts(doc), fuzzContexts(frozen)
	vars := map[string]xpath.Value{"v": xpath.String("3")}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 512 {
			return
		}
		c, err := xpath.Compile(src)
		if err != nil {
			return
		}
		for i, n := range plainCtx {
			ref := &xpath.Context{Node: n, Position: 1, Size: 1, Vars: vars, Current: n}
			want, wantErr := c.EvalReference(ref)
			fn := frozenCtx[i]
			for _, run := range []struct {
				label string
				ctx   *xpath.Context
			}{
				{"IR", &xpath.Context{Node: n, Position: 1, Size: 1, Vars: vars, Current: n}},
				{"frozen IR", &xpath.Context{Node: fn, Position: 1, Size: 1, Vars: vars, Current: fn}},
			} {
				got, gotErr := c.Eval(run.ctx)
				if (gotErr != nil) != (wantErr != nil) {
					t.Fatalf("%q from %s: %s err=%v, reference err=%v", src, n.Path(), run.label, gotErr, wantErr)
				}
				if ns, ok := got.(xpath.NodeSet); ok && run.ctx.Node == fn {
					plain := make(xpath.NodeSet, len(ns))
					for j, m := range ns {
						plain[j] = toPlain[m]
					}
					got = plain
				}
				if gotErr == nil && !sameValue(got, want) {
					t.Fatalf("%q from %s:\n  %s: %#v\n  reference: %#v\n  plan:\n%s", src, n.Path(), run.label, got, want, c.Plan())
				}
			}
		}
	})
}
