package dtd

import (
	"strings"
	"testing"

	"goldweb/internal/core"
	"goldweb/internal/xmldom"
	"goldweb/internal/xsd"
)

// mustParse is Parse for known-good DTDs.
func mustParse(src string) *DTD {
	d, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return d
}

// validateString parses and validates XML text.
func (d *DTD) validateString(src string) []ValidationError {
	doc, err := xmldom.ParseString(src)
	if err != nil {
		return []ValidationError{{Path: "/", Msg: err.Error()}}
	}
	return d.Validate(doc)
}

func TestParseGoldmodelDTD(t *testing.T) {
	d, err := Parse(core.SchemaDTD)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"goldmodel", "factclass", "dimclass",
		"asoclevel", "sharedagg", "additivity", "cubeclass", "slice"} {
		if d.Elements[name] == nil {
			t.Errorf("element %s not declared", name)
		}
	}
	if got := len(d.Attlists["goldmodel"]); got != 8 {
		t.Errorf("goldmodel attlist = %d", got)
	}
	agg := d.Elements["sharedagg"]
	if agg.Kind != ContentEmpty {
		t.Errorf("sharedagg kind = %v", agg.Kind)
	}
	gm := d.Elements["goldmodel"]
	if gm.Kind != ContentChildren || len(gm.Content.Children) != 3 {
		t.Errorf("goldmodel content: %+v", gm.Content)
	}
}

func TestDTDAcceptsSampleDocuments(t *testing.T) {
	d := mustParse(core.SchemaDTD)
	for _, m := range []interface{ XMLString() string }{core.SampleSales(), core.SampleHospital()} {
		if errs := d.validateString(m.XMLString()); len(errs) != 0 {
			t.Errorf("%v", errs)
		}
	}
}

func TestDTDStructuralRejections(t *testing.T) {
	d := mustParse(core.SchemaDTD)
	base := core.SampleSales().XMLString()
	cases := []struct{ name, from, to string }{
		{"missing required id", ` id="m1"`, ``},
		{"undeclared element", `<factclasses>`, `<factclasses><rogue/>`},
		{"undeclared attribute", `<goldmodel id="m1"`, `<goldmodel hax="1" id="m1"`},
		{"bad enum multiplicity", `rolea="M"`, `rolea="many"`},
		{"dangling IDREF", `dimclass="d1"`, `dimclass="zz"`},
		{"wrong order", `<factclasses>`, `<cubeclasses/><factclasses>`},
	}
	for _, tc := range cases {
		doc := strings.Replace(base, tc.from, tc.to, 1)
		if doc == base {
			t.Fatalf("%s: mutation did not apply", tc.name)
		}
		if errs := d.validateString(doc); len(errs) == 0 {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

// TestDTDVsSchemaAblation is the executable form of §3.1: the DTD (the
// paper's previous proposal) accepts two classes of documents the XML
// Schema rejects — wrong data types (DTDs have no date/boolean/decimal)
// and semantically wrong references (IDREF is not selective).
func TestDTDVsSchemaAblation(t *testing.T) {
	d := mustParse(core.SchemaDTD)
	s := core.MustSchema()
	base := core.SampleSales().XMLString()

	t.Run("data types", func(t *testing.T) {
		doc := strings.Replace(base, `creationdate="2002-03-24"`, `creationdate="not a date"`, 1)
		if errs := d.validateString(doc); len(errs) != 0 {
			t.Errorf("DTD should accept (CDATA): %v", errs)
		}
		if errs := s.ValidateString(doc, xsd.ValidateOptions{}); len(errs) == 0 {
			t.Error("Schema should reject the bad date")
		}
	})
	t.Run("selective references", func(t *testing.T) {
		// Point @dimclass at a fact class id: any ID satisfies IDREF, but
		// the schema's keyref pins it to dimension classes.
		doc := strings.Replace(base, `<additivity dimclass="d1"`, `<additivity dimclass="f1"`, 1)
		if errs := d.validateString(doc); len(errs) != 0 {
			t.Errorf("DTD should accept (IDREF is not selective): %v", errs)
		}
		if errs := s.ValidateString(doc, xsd.ValidateOptions{}); len(errs) == 0 {
			t.Error("Schema should reject the cross-kind reference")
		}
	})
}

func TestContentModels(t *testing.T) {
	d := mustParse(`
		<!ELEMENT r ((a, b?)+, c*)>
		<!ELEMENT a EMPTY>
		<!ELEMENT b EMPTY>
		<!ELEMENT c EMPTY>
	`)
	ok := []string{
		"<r><a/></r>",
		"<r><a/><b/></r>",
		"<r><a/><b/><a/><c/><c/></r>",
		"<r><a/><a/><a/></r>",
	}
	for _, doc := range ok {
		if errs := d.validateString(doc); len(errs) != 0 {
			t.Errorf("%s: %v", doc, errs)
		}
	}
	bad := []string{
		"<r/>",
		"<r><b/></r>",
		"<r><c/><a/></r>",
		"<r><a/><b/><b/></r>",
	}
	for _, doc := range bad {
		if errs := d.validateString(doc); len(errs) == 0 {
			t.Errorf("%s accepted", doc)
		}
	}
}

func TestMixedContent(t *testing.T) {
	d := mustParse(`
		<!ELEMENT p (#PCDATA | b | i)*>
		<!ELEMENT b EMPTY>
		<!ELEMENT i EMPTY>
		<!ELEMENT x EMPTY>
	`)
	if errs := d.validateString("<p>text <b/> more <i/></p>"); len(errs) != 0 {
		t.Errorf("mixed: %v", errs)
	}
	if errs := d.validateString("<p><x/></p>"); len(errs) == 0 {
		t.Error("foreign element in mixed content accepted")
	}
}

func TestEmptyAndAny(t *testing.T) {
	d := mustParse(`
		<!ELEMENT e EMPTY>
		<!ELEMENT any ANY>
		<!ELEMENT r (e, any)>
	`)
	if errs := d.validateString("<r><e/><any><e/>text</any></r>"); len(errs) != 0 {
		t.Errorf("any: %v", errs)
	}
	if errs := d.validateString("<r><e>text</e><any/></r>"); len(errs) == 0 {
		t.Error("EMPTY with text accepted")
	}
}

func TestAttributeChecks(t *testing.T) {
	d := mustParse(`
		<!ELEMENT e EMPTY>
		<!ATTLIST e
			id ID #REQUIRED
			kind (x|y) "x"
			tag NMTOKEN #IMPLIED
			lock CDATA #FIXED "on">
		<!ELEMENT r (e+)>
		<!ATTLIST r ref IDREF #IMPLIED refs IDREFS #IMPLIED>
	`)
	if errs := d.validateString(`<r><e id="a" kind="y" tag="t1" lock="on"/></r>`); len(errs) != 0 {
		t.Errorf("valid: %v", errs)
	}
	for _, tc := range []struct{ name, doc string }{
		{"missing required", `<r><e/></r>`},
		{"bad enum", `<r><e id="a" kind="z"/></r>`},
		{"bad nmtoken", `<r><e id="a" tag="two words"/></r>`},
		{"fixed mismatch", `<r><e id="a" lock="off"/></r>`},
		{"duplicate id", `<r><e id="a"/><e id="a"/></r>`},
		{"dangling ref", `<r ref="nope"><e id="a"/></r>`},
		{"dangling in refs list", `<r refs="a nope"><e id="a"/></r>`},
	} {
		if errs := d.validateString(tc.doc); len(errs) == 0 {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		`<!ELEMENT>`,
		`<!ELEMENT r (a`,
		`<!ELEMENT r (a,b|c)>`, // mixed separators
		`<!ATTLIST e a BOGUS #IMPLIED>`,
		`<!ELEMENT r EMPTY> <!ELEMENT r EMPTY>`,
		`<!ENTITY x "y">`,
		`random garbage`,
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("%q accepted", src)
		}
	}
	// Comments are fine anywhere.
	if _, err := Parse("<!-- c --> <!ELEMENT e EMPTY> <!-- d -->"); err != nil {
		t.Errorf("comments: %v", err)
	}
}
