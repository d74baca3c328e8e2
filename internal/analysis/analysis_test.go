package analysis_test

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"goldweb/internal/analysis"
	"goldweb/internal/core"
	"goldweb/internal/xmldom"
	"goldweb/internal/xsd"
)

// The shipped stylesheets and every sample model must lint completely
// clean — the analyzer's conservative policy means any finding here is
// either a real bug in the assets or a linter false positive, and both
// block the release.
func TestCleanCorpusStylesheets(t *testing.T) {
	schema := core.MustSchema()
	for _, tc := range []struct {
		name, src string
	}{
		{"single.xsl", core.SingleXSL},
		{"multi.xsl", core.MultiXSL},
	} {
		t.Run(tc.name, func(t *testing.T) {
			diags := analysis.LintStylesheet(tc.name, []byte(tc.src), schema)
			for _, d := range diags {
				t.Errorf("unexpected finding: %s", d)
			}
		})
	}
}

func TestCleanCorpusModels(t *testing.T) {
	schema := core.MustSchema()
	for _, tc := range []struct {
		name  string
		model *core.Model
	}{
		{"sales", core.SampleSales()},
		{"hospital", core.SampleHospital()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			src := tc.model.XMLString()
			diags := analysis.LintModelSource(tc.name+".xml", []byte(src), schema)
			for _, d := range diags {
				t.Errorf("unexpected finding: %s", d)
			}
		})
	}
}

// Every committed example model must lint clean too — this is the same
// corpus CI runs `goldweb lint` over.
func TestCleanCorpusExampleModels(t *testing.T) {
	schema := core.MustSchema()
	paths, err := filepath.Glob(filepath.Join("..", "..", "examples", "models", "*.xml"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) < 5 {
		t.Fatalf("expected the five example models, found %d", len(paths))
	}
	for _, p := range paths {
		t.Run(filepath.Base(p), func(t *testing.T) {
			src, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range analysis.LintModelSource(filepath.Base(p), src, schema) {
				t.Errorf("unexpected finding: %s", d)
			}
		})
	}
}

// Corrupting a clean sample model must surface a referential (GW402)
// finding while still passing the DTD-style global ID/IDREF check that
// the paper's §3.1 argues is too weak.
func TestBrokenModel(t *testing.T) {
	schema := core.MustSchema()
	src := core.SampleSales().XMLString()
	// Repoint the first additivity's dimclass IDREF at the goldmodel id
	// itself: the ID exists globally, but the scoped dimClassKey keyref
	// only admits dimclass ids.
	rootID := attrValue(t, src, "<goldmodel", "id")
	broken := strings.Replace(src, `<additivity dimclass="`+attrValue(t, src, "<additivity", "dimclass")+`"`,
		`<additivity dimclass="`+rootID+`"`, 1)
	if broken == src {
		t.Fatal("failed to seed broken reference into sample model")
	}
	diags := analysis.LintModelSource("bad.xml", []byte(broken), schema)
	var gw402 bool
	for _, d := range diags {
		if d.Code == analysis.CodeBrokenKeyref {
			gw402 = true
		} else {
			t.Errorf("unexpected extra finding: %s", d)
		}
	}
	if !gw402 {
		t.Fatalf("seeded dangling keyref not reported; got %v", diags)
	}
}

// attrValue extracts attr="..." from the first occurrence of marker in src.
func attrValue(t *testing.T, src, marker, attr string) string {
	t.Helper()
	i := strings.Index(src, marker)
	if i < 0 {
		t.Fatalf("marker %q not found in sample model", marker)
	}
	seg := src[i:]
	if end := strings.Index(seg, ">"); end >= 0 {
		seg = seg[:end]
	}
	key := attr + `="`
	j := strings.Index(seg, key)
	if j < 0 {
		t.Fatalf("attribute %q not found near %q", attr, marker)
	}
	seg = seg[j+len(key):]
	return seg[:strings.Index(seg, `"`)]
}

// TestLintValidatedKeepsEveryIdentityError: LintValidated reports each
// identity-constraint error of the validation it is given as one GW402,
// also those it has no richer wording for (here a keyref to an unknown
// key and a key field left empty), which carry the validator's message.
func TestLintValidatedKeepsEveryIdentityError(t *testing.T) {
	schema := xsd.MustParseSchemaString(`<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
  <xsd:element name="r">
    <xsd:complexType><xsd:sequence>
      <xsd:element name="item" maxOccurs="unbounded">
        <xsd:complexType><xsd:attribute name="id" type="xsd:string"/></xsd:complexType>
      </xsd:element>
    </xsd:sequence></xsd:complexType>
    <xsd:key name="itemKey"><xsd:selector xpath="item"/><xsd:field xpath="@id"/></xsd:key>
    <xsd:keyref name="lost" refer="nowhere"><xsd:selector xpath="item"/><xsd:field xpath="@id"/></xsd:keyref>
  </xsd:element>
</xsd:schema>`)
	doc, err := xmldom.ParseString(`<r><item id="a"/><item/></r>`)
	if err != nil {
		t.Fatal(err)
	}
	v := schema.ValidateAndFreeze(doc, xsd.ValidateOptions{})
	diags := analysis.LintValidated("r.xml", v)
	if len(v.Errors) != 2 || len(diags) != 2 {
		t.Fatalf("%d validation errors, %d diagnostics, want 2 and 2: %v", len(v.Errors), len(diags), diags)
	}
	for _, want := range []string{
		"r.xml:1:1: error GW402: /r: keyref lost refers to unknown key nowhere",
		"r.xml:1:18: error GW402: /r/item[2]: key itemKey: a selected node is missing a field value",
	} {
		if !slices.ContainsFunc(diags, func(d analysis.Diagnostic) bool { return d.String() == want }) {
			t.Errorf("missing %q in %v", want, diags)
		}
	}
}
