package xpath_test

import (
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"goldweb/internal/core"
	"goldweb/internal/xmldom"
	"goldweb/internal/xpath"
)

// The IR evaluator must agree with the legacy AST interpreter
// (EvalReference) on every expression the builtin stylesheets use and on
// a hand-written corpus covering the rest of the grammar, across every
// example model document, frozen under the document index as every tree
// the evaluators see is, so the planner's indexed fast paths are
// exercised.

// harvestExprs pulls every XPath expression out of a stylesheet source:
// whole-attribute expressions (select, test, use, count, value) and the
// {expr} parts of attribute value templates.
func harvestExprs(t *testing.T, src string) []string {
	t.Helper()
	doc, err := xmldom.ParseString(src)
	if err != nil {
		t.Fatalf("parse stylesheet: %v", err)
	}
	const xslNS = "http://www.w3.org/1999/XSL/Transform"
	exprAttrs := map[string]bool{"select": true, "test": true, "use": true, "count": true, "value": true}
	var out []string
	var walk func(n *xmldom.Node)
	walk = func(n *xmldom.Node) {
		for _, a := range n.Attr {
			if n.URI == xslNS && exprAttrs[a.Name] {
				out = append(out, a.Data)
				continue
			}
			// AVT parts in literal result attributes.
			v := a.Data
			for {
				i := strings.IndexByte(v, '{')
				if i < 0 || i+1 < len(v) && v[i+1] == '{' {
					break
				}
				j := strings.IndexByte(v[i:], '}')
				if j < 0 {
					break
				}
				out = append(out, v[i+1:i+j])
				v = v[i+j+1:]
			}
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(doc)
	return out
}

// handExprs covers grammar corners the stylesheets do not reach.
var handExprs = []string{
	"1 + 2 * 3", "10 mod 3", "10 div 4", "-count(*)", "2 > 1", "2 >= 2",
	"1 < 2 or 3 < 2", "1 = 1 and 2 = 3", "'a' = 'a'", "'a' != 'b'",
	". = ..", "@* | *", "* | text()", "(*)[1]", "(* | @*)[last()]",
	"*[position() = 2]", "*[2]", "*[last()]", "*[position() != last()]",
	"*[not(position() = 1)]", "*[name() != 'x']", "*[@id]", "*[.//text()]",
	"child::node()", "self::node()", "ancestor::*", "ancestor-or-self::*",
	"following-sibling::*", "preceding-sibling::*[1]", "descendant::*[3]",
	"descendant-or-self::*", "parent::*", "..//*", ".//*", "//*[@id][1]",
	"//*", "/", "/*", "/*/*", "string(.)", "string(@id)", "string-length(name())",
	"normalize-space(' a  b ')", "translate(name(), 'abc', 'ABC')",
	"concat(name(), '-', count(*))", "substring(name(), 2)", "substring(name(), 2, 3)",
	"substring-before('a-b', '-')", "substring-after('a-b', '-')",
	"starts-with(name(), 'g')", "contains(name(), 'o')",
	"count(//*)", "sum(//*[false()])", "number('12.5')", "number('x')",
	"floor(1.5)", "ceiling(1.5)", "round(2.5)", "round(-2.5)",
	"boolean(*)", "not(*)", "true()", "false()", "lang('en')",
	"local-name()", "local-name(..)", "name(@*)", "namespace-uri()",
	"id('nosuch')", "id(@id)", "id('a b')", "position() + last()",
	"$v", "$v + 1", "concat($v, 'x')", "*[$v]", "string($v)",
	"current()", "generate-id()", "generate-id(.) = generate-id(current())",
	"key('nosuch', 'x')", "document('')", "system-property('xsl:version')",
	"element-available('xsl:comment')", "function-available('count')",
	"format-number(42, '#')", "unknown-fn()", "count()", "*[1.5]", "*[0]",
	"*[-1]", "'abc' + 1", "(//*)[2]", "(.)", "((*))[1]", "@id", "@nosuch",
	"text()", "comment()", "processing-instruction()", "node()",
	"0 < .//@rolea", "2 > .//@rolea", ".//@rolea >= 1", "'0' <= .//@roleb",
	"1 = .//@rolea", "'d1' != .//@dimclass", "true() = .//@nosuch",
}

// stubFuncs supplies deterministic implementations of the XSLT extension
// functions so harvested expressions evaluate identically under both
// evaluators.
func stubFuncs() map[string]xpath.Function {
	return map[string]xpath.Function{
		"current": func(ctx *xpath.Context, args []xpath.Value) (xpath.Value, error) {
			n := ctx.Current
			if n == nil {
				n = ctx.Node
			}
			return xpath.NodeSet{n}, nil
		},
		"key": func(ctx *xpath.Context, args []xpath.Value) (xpath.Value, error) {
			return xpath.NodeSet{}, nil
		},
		"document": func(ctx *xpath.Context, args []xpath.Value) (xpath.Value, error) {
			return xpath.NodeSet{}, nil
		},
		"generate-id": func(ctx *xpath.Context, args []xpath.Value) (xpath.Value, error) {
			if len(args) == 1 {
				if ns, ok := args[0].(xpath.NodeSet); ok && len(ns) > 0 {
					return xpath.String(ns[0].Name), nil
				}
				return xpath.String(""), nil
			}
			return xpath.String(ctx.Node.Name), nil
		},
		"format-number": func(ctx *xpath.Context, args []xpath.Value) (xpath.Value, error) {
			if len(args) < 1 {
				return xpath.String(""), nil
			}
			return xpath.String(xpath.ToString(args[0])), nil
		},
		"system-property": func(ctx *xpath.Context, args []xpath.Value) (xpath.Value, error) {
			return xpath.String("1.0"), nil
		},
		"element-available": func(ctx *xpath.Context, args []xpath.Value) (xpath.Value, error) {
			return xpath.Boolean(false), nil
		},
		"function-available": func(ctx *xpath.Context, args []xpath.Value) (xpath.Value, error) {
			return xpath.Boolean(true), nil
		},
		"unparsed-entity-uri": func(ctx *xpath.Context, args []xpath.Value) (xpath.Value, error) {
			return xpath.String(""), nil
		},
	}
}

var varRef = regexp.MustCompile(`\$([A-Za-z_][A-Za-z0-9_.-]*)`)

// bindVars gives every variable an expression references a fixed value.
func bindVars(src string, vars map[string]xpath.Value) {
	for _, m := range varRef.FindAllStringSubmatch(src, -1) {
		if _, ok := vars[m[1]]; !ok {
			vars[m[1]] = xpath.String("3")
		}
	}
}

// sampleNodes picks the document root plus a bounded sample of elements,
// attributes and text nodes.
func sampleNodes(doc *xmldom.Node) []*xmldom.Node {
	nodes := []*xmldom.Node{doc}
	var walk func(n *xmldom.Node)
	count := 0
	var walkAttrs bool = true
	walk = func(n *xmldom.Node) {
		if count >= 40 {
			return
		}
		count++
		nodes = append(nodes, n)
		if walkAttrs && len(n.Attr) > 0 {
			nodes = append(nodes, n.Attr[0])
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	for _, c := range doc.Children {
		walk(c)
	}
	return nodes
}

// sameValue compares results, treating NaN as equal to NaN and an empty
// node-set as equal to a nil one.
func sameValue(a, b xpath.Value) bool {
	an, aok := a.(xpath.Number)
	bn, bok := b.(xpath.Number)
	if aok && bok && math.IsNaN(float64(an)) && math.IsNaN(float64(bn)) {
		return true
	}
	as, aok := a.(xpath.NodeSet)
	bs, bok := b.(xpath.NodeSet)
	if aok && bok && len(as) == 0 && len(bs) == 0 {
		return true
	}
	return reflect.DeepEqual(a, b)
}

func TestIRMatchesReference(t *testing.T) {
	exprs := append([]string{}, handExprs...)
	exprs = append(exprs, harvestExprs(t, core.SingleXSL)...)
	exprs = append(exprs, harvestExprs(t, core.MultiXSL)...)

	models, err := filepath.Glob("../../examples/models/*.xml")
	if err != nil || len(models) == 0 {
		t.Fatalf("no example models found: %v", err)
	}

	type docCase struct {
		name string
		doc  *xmldom.Node
	}
	var docs []docCase
	for _, path := range models {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		doc, err := xmldom.Parse(data)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		doc.Freeze()
		docs = append(docs, docCase{filepath.Base(path), doc})
	}

	funcs := stubFuncs()
	for _, src := range exprs {
		c, err := xpath.Compile(src)
		if err != nil {
			// Deliberately invalid corpus entries fail at compile time for
			// both evaluators by construction.
			continue
		}
		vars := map[string]xpath.Value{}
		bindVars(src, vars)
		for _, dc := range docs {
			for _, n := range sampleNodes(dc.doc) {
				for _, pos := range [][2]int{{1, 1}, {2, 3}} {
					ctx := &xpath.Context{Node: n, Position: pos[0], Size: pos[1], Vars: vars, Funcs: funcs, Current: n}
					got, gotErr := c.Eval(ctx)
					ref := &xpath.Context{Node: n, Position: pos[0], Size: pos[1], Vars: vars, Funcs: funcs, Current: n}
					want, wantErr := c.EvalReference(ref)
					if (gotErr != nil) != (wantErr != nil) {
						t.Fatalf("%q on %s node %s: IR err=%v, reference err=%v", src, dc.name, n.Name, gotErr, wantErr)
					}
					if gotErr == nil && !sameValue(got, want) {
						t.Fatalf("%q on %s node %s pos=%d/%d:\n  IR:        %#v\n  reference: %#v\n  plan:\n%s",
							src, dc.name, n.Name, pos[0], pos[1], got, want, c.Plan())
					}
				}
			}
		}
	}
}
