package xslt

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"goldweb/internal/xmldom"
	"goldweb/internal/xpath"
)

// The dispatch index is an optimisation over the linear template scan; it
// must be invisible. This file drives randomized stylesheets (wildcards,
// attribute rules, unions, predicates, //, explicit priorities, modes and
// imports) against randomized documents and checks that the VM's indexed
// dispatch picks exactly the template a linear scan of the mode's
// precedence-ordered rules picks, for every node, every mode and every
// import-precedence ceiling.

var dispatchElems = []string{"a", "b", "c", "d", "zig", "zag"}
var dispatchAttrs = []string{"id", "x", "y"}

// randPattern returns a random match pattern over the shared name pool.
func randPattern(rng *rand.Rand) string {
	e := func() string { return dispatchElems[rng.Intn(len(dispatchElems))] }
	a := func() string { return dispatchAttrs[rng.Intn(len(dispatchAttrs))] }
	switch rng.Intn(14) {
	case 0:
		return e()
	case 1:
		return "*"
	case 2:
		return "@" + a()
	case 3:
		return "@*"
	case 4:
		return "text()"
	case 5:
		return "comment()"
	case 6:
		return "node()"
	case 7:
		return "/"
	case 8:
		return e() + "/" + e()
	case 9:
		return "//" + e()
	case 10:
		return fmt.Sprintf("%s[%d]", e(), 1+rng.Intn(3))
	case 11:
		return e() + "[@" + a() + "]"
	case 12:
		return "processing-instruction()"
	default:
		return e() + "|@" + a() + "|text()"
	}
}

// randStylesheet builds a stylesheet with n random template rules. Roughly
// half the rules get an explicit priority so ties and overrides both occur.
func randStylesheet(rng *rand.Rand, n int, importHref string) string {
	var b strings.Builder
	b.WriteString(`<xsl:stylesheet version="1.0" xmlns:xsl="http://www.w3.org/1999/XSL/Transform">` + "\n")
	if importHref != "" {
		fmt.Fprintf(&b, "<xsl:import href=%q/>\n", importHref)
	}
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "<xsl:template match=%q", randPattern(rng))
		if m := rng.Intn(3); m > 0 {
			fmt.Fprintf(&b, " mode=\"m%d\"", m)
		}
		if rng.Intn(2) == 0 {
			fmt.Fprintf(&b, " priority=\"%d\"", rng.Intn(7)-3)
		}
		fmt.Fprintf(&b, "><t n=\"%d\"/></xsl:template>\n", i)
	}
	b.WriteString("</xsl:stylesheet>")
	return b.String()
}

// randDoc builds a random document over the name pool plus names outside
// it (exercising the any-name fallback buckets), with attributes, text,
// comments and processing instructions mixed in.
func randDoc(rng *rand.Rand) *xmldom.Node {
	names := append(append([]string{}, dispatchElems...), "other", "q")
	var build func(parent *xmldom.Node, depth int)
	build = func(parent *xmldom.Node, depth int) {
		kids := 1 + rng.Intn(4)
		for i := 0; i < kids; i++ {
			switch rng.Intn(6) {
			case 0:
				parent.AddText("t" + names[rng.Intn(len(names))])
			case 1:
				parent.AppendChild(&xmldom.Node{Type: xmldom.CommentNode, Data: "c"})
			case 2:
				parent.AppendChild(&xmldom.Node{Type: xmldom.PINode, Name: "pi", Data: "d"})
			default:
				el := parent.AppendChild(&xmldom.Node{Type: xmldom.ElementNode, Name: names[rng.Intn(len(names))]})
				for _, at := range dispatchAttrs {
					if rng.Intn(3) == 0 {
						el.SetAttr(at, "v")
					}
				}
				if depth < 3 {
					build(el, depth+1)
				}
			}
		}
	}
	doc := xmldom.NewDocument()
	root := doc.AppendChild(&xmldom.Node{Type: xmldom.ElementNode, Name: "a"})
	build(root, 0)
	xmldom.Freeze(doc)
	return doc
}

// allNodes collects the document and every descendant node including
// attributes.
func allNodes(n *xmldom.Node, out []*xmldom.Node) []*xmldom.Node {
	out = append(out, n)
	out = append(out, n.Attr...)
	for _, c := range n.Children {
		out = allNodes(c, out)
	}
	return out
}

func TestDispatchIndexMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for round := 0; round < 60; round++ {
		imported := randStylesheet(rng, 3+rng.Intn(6), "")
		loader := func(href string) (*xmldom.Node, error) { return xmldom.ParseString(imported) }
		src := randStylesheet(rng, 5+rng.Intn(12), "imp.xsl")
		sheet, err := CompileStylesheetString(src, CompileOptions{Loader: loader})
		if err != nil {
			t.Fatalf("round %d: compile: %v\n%s", round, err, src)
		}
		source := randDoc(rng)
		f := xpath.GetFrame()
		r := sheet.prog.newRun(newEngine(sheet), f)
		vars := map[string]xpath.Value{}
		for _, n := range allNodes(source, nil) {
			for _, mode := range []string{"", "m1", "m2"} {
				for _, maxPrec := range []int{maxInt, 2, 1} {
					want, errL := linearScan(sheet.templates[mode], n, &xpath.Context{
						Node: n, Position: 1, Size: 1, Vars: vars, Current: n, Funcs: r.e.funcs,
					}, maxPrec)
					got, errI := r.dispatch(sheet.index[mode], n, vars, n, 1, 1, maxPrec)
					if (errL == nil) != (errI == nil) {
						t.Fatalf("round %d: error mismatch linear=%v indexed=%v", round, errL, errI)
					}
					if want != got {
						t.Fatalf("round %d: node %v(%s) mode=%q maxPrec=%d: linear picked %v, index picked %v\nstylesheet:\n%s",
							round, n.Type, n.Name, mode, maxPrec, tmplID(want), tmplID(got), src)
					}
				}
			}
		}
		xpath.PutFrame(f)
	}
}

// linearScan returns the first rule of a mode's precedence-ordered list
// whose import precedence is below maxPrec and whose pattern matches n.
func linearScan(rules []*Template, n *xmldom.Node, ctx *xpath.Context, maxPrec int) (*Template, error) {
	for _, t := range rules {
		if t.importPrec >= maxPrec {
			continue
		}
		ok, err := t.Match.Matches(ctx, n)
		if err != nil {
			return nil, err
		}
		if ok {
			return t, nil
		}
	}
	return nil, nil
}

func tmplID(t *Template) string {
	if t == nil {
		return "<nil>"
	}
	return fmt.Sprintf("{match=%v mode=%q prec=%d order=%d}", t.Match, t.Mode, t.importPrec, t.order)
}
