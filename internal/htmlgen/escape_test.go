package htmlgen

import (
	"strings"
	"testing"

	"goldweb/internal/core"
	"goldweb/internal/xmldom"
	"goldweb/internal/xsd"
)

// specialModel builds a model whose names and descriptions are full of
// markup-significant characters; the pipeline must escape them at every
// stage (XML attribute, HTML text, HTML attribute).
func specialModel(t *testing.T) *core.Model {
	t.Helper()
	b := core.NewModel(`R&D <Sales> "2002"`).
		Describe(`Tom & Jerry's <model> with "quotes" and 'apostrophes'`)
	d := b.Dimension("D&D").
		Key("id", "OID").
		Descriptor("name <desc>", "String")
	d.Level("L<1>").
		Key("lid", "OID").
		Descriptor("lname", "String")
	d.Rollup("L<1>")
	f := b.Fact("F&F").Aggregates("D&D")
	f.Measure("q&a", "Integer").Describe(`uses < and > and &`)
	m, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestSpecialCharactersSurviveXMLRoundTrip(t *testing.T) {
	m := specialModel(t)
	back, err := core.ModelFromXMLString(m.XMLString())
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != m.Name || back.Description != m.Description {
		t.Errorf("round trip mangled: %q / %q", back.Name, back.Description)
	}
	if back.Facts[0].Atts[0].Name != "q&a" {
		t.Errorf("measure name: %q", back.Facts[0].Atts[0].Name)
	}
}

func TestSpecialCharactersValidateAgainstSchema(t *testing.T) {
	errs := core.MustSchema().ValidateString(specialModel(t).XMLString(), xsd.ValidateOptions{})
	if len(errs) != 0 {
		t.Errorf("schema rejected special characters: %v", errs)
	}
}

func TestSpecialCharactersEscapedInHTML(t *testing.T) {
	m := specialModel(t)
	for _, mode := range []Mode{SinglePage, MultiPage} {
		site, err := Publish(m, Options{Mode: mode})
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		for name, content := range site.Pages {
			if !strings.HasSuffix(name, ".html") {
				continue
			}
			s := string(content)
			// A raw "R&D" (un-escaped ampersand followed by non-entity)
			// would be invalid markup; the escaped form must be present
			// where the model name is shown.
			if strings.Contains(s, "R&D") && !strings.Contains(s, "R&amp;D") {
				t.Errorf("%s/%s: unescaped ampersand", mode, name)
			}
			if strings.Contains(s, "<Sales>") {
				t.Errorf("%s/%s: unescaped angle brackets from model name", mode, name)
			}
			if !strings.Contains(s, "R&amp;D &lt;Sales&gt;") {
				continue // the name may legitimately not appear on level pages
			}
		}
		index := string(site.Page(IndexName))
		if !strings.Contains(index, "R&amp;D &lt;Sales&gt;") {
			t.Errorf("%s: index does not show the escaped model name:\n%.300s", mode, index)
		}
		if errs := CheckLinks(site); len(errs) != 0 {
			t.Errorf("%s: links broken by escaping: %v", mode, errs)
		}
	}
}

func TestSiteDeterminism(t *testing.T) {
	m := core.SampleSales()
	first, err := Publish(m, Options{Mode: MultiPage})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		again, err := Publish(m, Options{Mode: MultiPage})
		if err != nil {
			t.Fatal(err)
		}
		if len(again.Pages) != len(first.Pages) {
			t.Fatalf("page count changed: %d vs %d", len(again.Pages), len(first.Pages))
		}
		for name, content := range first.Pages {
			if string(again.Pages[name]) != string(content) {
				t.Fatalf("page %s differs between runs", name)
			}
		}
		for j, name := range first.Order {
			if again.Order[j] != name {
				t.Fatalf("page order differs at %d: %s vs %s", j, name, again.Order[j])
			}
		}
	}
}

// TestClientSideBundleEquivalence simulates the browser side of the
// paper's §6 future work: applying the single-page stylesheet to a
// document that carries an xml-stylesheet processing instruction yields
// the same presentation the server would produce.
func TestClientSideBundleEquivalence(t *testing.T) {
	m := core.SampleSales()
	serverSite, err := Publish(m, Options{Mode: SinglePage})
	if err != nil {
		t.Fatal(err)
	}
	doc := m.ToXML()
	pi := &xmldom.Node{Type: xmldom.PINode, Name: "xml-stylesheet",
		Data: `type="text/xsl" href="single.xsl"`}
	doc.InsertBefore(pi, doc.DocumentElement())
	// Validation-applied defaults matter: run the same pipeline.
	clientSite, err := PublishDocument(doc, Options{Mode: SinglePage})
	if err != nil {
		t.Fatal(err)
	}
	if string(clientSite.Page(IndexName)) != string(serverSite.Page(IndexName)) {
		t.Error("client-side rendering differs from server-side")
	}
}
