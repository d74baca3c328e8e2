package htmlgen

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"goldweb/internal/core"
	"goldweb/internal/xmldom"
)

// schemaDefaults lists, by element, the attributes the GOLD schema
// declares with a default value, and that value.
var schemaDefaults = map[string]map[string]string{
	"goldmodel":    {"showatts": "true", "showmethods": "true"},
	"factatt":      {"isoid": "false", "derived": "false", "atomic": "false"},
	"additivity":   {"isnot": "false", "issum": "false", "ismax": "false", "ismin": "false", "isavg": "false"},
	"sharedagg":    {"rolea": "M", "roleb": "1"},
	"dimclass":     {"istime": "false"},
	"dimatt":       {"isoid": "false", "isd": "false"},
	"relationasoc": {"rolea": "1", "roleb": "M"},
}

// booleanAttrs lists every xs:boolean attribute of the GOLD schema,
// defaulted or not.
var booleanAttrs = map[string]bool{
	"showatts": true, "showmethods": true, "isoid": true, "isd": true, "derived": true,
	"atomic": true, "isnot": true, "issum": true, "ismax": true, "ismin": true,
	"isavg": true, "iscount": true, "istime": true, "completeness": true,
}

// describable lists the elements the GOLD schema gives a description.
var describable = map[string]bool{
	"goldmodel": true, "factclass": true, "factatt": true, "sharedagg": true, "method": true,
	"dimclass": true, "asoclevel": true, "catlevel": true, "dimatt": true, "relationasoc": true,
	"cubeclass": true,
}

// sourceMutations rewrite a parsed model document into another valid
// document: each changes what the canonical document (ModelFromXML,
// then ToXML) normalizes away.
var sourceMutations = []struct {
	name string
	fn   func(*xmldom.Node)
}{
	{"as-is", func(*xmldom.Node) {}},
	{"misc-nodes", func(doc *xmldom.Node) {
		for _, e := range elementsOf(doc) {
			for _, c := range slices.Clone(e.Children) {
				e.InsertBefore(&xmldom.Node{Type: xmldom.CommentNode, Data: " c "}, c)
				e.InsertBefore(&xmldom.Node{Type: xmldom.PINode, Name: "pi", Data: "d"}, c)
				e.InsertBefore(xmldom.NewText("\n  \t"), c)
			}
			e.AppendChild(xmldom.NewText("\n"))
		}
		doc.InsertBefore(&xmldom.Node{Type: xmldom.CommentNode, Data: " head "}, doc.DocumentElement())
	}},
	{"reordered-attributes", func(doc *xmldom.Node) {
		for _, e := range elementsOf(doc) {
			slices.Reverse(e.Attr)
		}
	}},
	{"explicit-defaults", func(doc *xmldom.Node) {
		for _, e := range elementsOf(doc) {
			for name, def := range schemaDefaults[e.Name] {
				if !e.HasAttr(name) {
					e.SetAttr(name, def)
				}
			}
		}
	}},
	{"omitted-defaults", func(doc *xmldom.Node) {
		for _, e := range elementsOf(doc) {
			for name, def := range schemaDefaults[e.Name] {
				if e.AttrValue(name) == def {
					e.RemoveAttr(name)
				}
			}
		}
	}},
	{"boolean-digits", func(doc *xmldom.Node) {
		for _, e := range elementsOf(doc) {
			for name, def := range schemaDefaults[e.Name] {
				if booleanAttrs[name] && !e.HasAttr(name) {
					e.SetAttr(name, def)
				}
			}
			for _, a := range e.Attr {
				if digit, ok := map[string]string{"true": "1", "false": "0"}[a.Data]; ok && booleanAttrs[a.Name] {
					a.Data = digit
				}
			}
		}
	}},
	// An empty xs:string reads as an absent one: the model cannot tell
	// them apart, so neither may the pages.
	{"empty-strings", func(doc *xmldom.Node) {
		for _, e := range elementsOf(doc) {
			if describable[e.Name] {
				e.SetAttr("description", "")
			}
			if e.HasAttr("name") && e.Name != "sharedagg" && e.Name != "relationasoc" {
				e.SetAttr("name", "")
			}
		}
		doc.DocumentElement().SetAttr("responsible", "")
	}},
	// xs:boolean collapses whitespace, so " 1" is valid, but
	// ModelFromXML reads only the exact "true" or "1" as true: both
	// documents must read a padded digit as false.
	{"padded-boolean-digits", func(doc *xmldom.Node) {
		for _, e := range elementsOf(doc) {
			for _, a := range e.Attr {
				if a.Data == "true" && booleanAttrs[a.Name] {
					a.Data = " 1"
				}
			}
		}
	}},
}

func elementsOf(doc *xmldom.Node) []*xmldom.Node {
	var out []*xmldom.Node
	for _, n := range doc.Descendants() {
		if n.Type == xmldom.ElementNode {
			out = append(out, n)
		}
	}
	return out
}

// TestInputAndCanonicalDocumentsPublishAlike: a model document that
// validates publishes the same pages as its canonical document, the one
// ModelFromXML and ToXML rebuild from it, in both modes and for every
// focus. It holds for every file of the benchmark corpus and every
// example model, as written and under each source mutation — so a swap
// may publish the document it validated instead of rebuilding one.
func TestInputAndCanonicalDocumentsPublishAlike(t *testing.T) {
	var files []string
	for _, dir := range []string{"bench/testdata/models", "examples/models"} {
		fs, err := filepath.Glob(filepath.Join("..", "..", dir, "*.xml"))
		if err != nil || len(fs) == 0 {
			t.Fatalf("%s: %v (%d files)", dir, err, len(fs))
		}
		files = append(files, fs...)
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, mut := range sourceMutations {
			name := filepath.ToSlash(strings.TrimPrefix(f, filepath.Join("..", "..")+string(filepath.Separator))) + "/" + mut.name
			t.Run(name, func(t *testing.T) {
				doc, err := xmldom.Parse(src)
				if err != nil {
					t.Fatal(err)
				}
				mut.fn(doc)
				text := xmldom.SerializeToString(doc, xmldom.WriteOptions{})
				if mut.name != "as-is" && text == xmldom.SerializeToString(mustParse(t, src), xmldom.WriteOptions{}) {
					t.Fatal("the mutation changed nothing")
				}
				comparePublications(t, []byte(text))
			})
		}
	}
}

func mustParse(t *testing.T, src []byte) *xmldom.Node {
	t.Helper()
	doc, err := xmldom.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

// comparePublications validates src, rebuilds its canonical document and
// checks that both publish byte-identical sites in every mode and focus.
func comparePublications(t *testing.T, src []byte) {
	t.Helper()
	in := core.ValidateAndFreeze(mustParse(t, src))
	if len(in.Errors) > 0 {
		t.Fatalf("input invalid: %v", in.Errors[0])
	}
	m, err := core.ModelFromXML(in.Doc)
	if err != nil {
		t.Fatal(err)
	}
	canon := core.ValidateAndFreeze(m.ToXML())
	if len(canon.Errors) > 0 {
		t.Fatalf("canonical document invalid: %v", canon.Errors[0])
	}
	focuses := append([]string{""}, sortedKeys(FocusTargets(m))...)
	for _, mode := range []Mode{MultiPage, SinglePage} {
		for _, focus := range focuses {
			opts := Options{Mode: mode, Focus: focus, SkipValidation: true}
			want, err := PublishDocument(canon.Doc, opts)
			if err != nil {
				t.Fatal(err)
			}
			got, err := PublishDocument(in.Doc, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got.Order, want.Order) {
				t.Fatalf("%s focus %q: pages %v, canonical %v", mode, focus, got.Order, want.Order)
			}
			for _, page := range want.Order {
				if g, w := got.Pages[page], want.Pages[page]; !bytes.Equal(g, w) {
					t.Errorf("%s focus %q page %s differs from the canonical document's:\n%s", mode, focus, page, firstDiff(g, w))
				}
			}
		}
	}
}

func sortedKeys(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}

// firstDiff shows both texts around their first differing byte.
func firstDiff(a, b []byte) string {
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	lo := max(0, i-60)
	clip := func(s []byte) string { return strings.TrimSpace(string(s[lo:min(len(s), i+60)])) }
	return "got:  " + clip(a) + "\nwant: " + clip(b)
}
