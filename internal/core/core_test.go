package core

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"goldweb/internal/xsd"
)

func TestSampleModelsAreWellFormed(t *testing.T) {
	for _, m := range []*Model{SampleSales(), SampleHospital()} {
		if errs := m.Validate(); len(errs) != 0 {
			t.Errorf("%s: %v", m.Name, errs)
		}
	}
}

func TestEmbeddedSchemaParsesAndChecksClean(t *testing.T) {
	if _, err := Schema(); err != nil {
		t.Fatalf("embedded schema: %v", err)
	}
	issues := xsd.CheckSchemaString(SchemaXSD)
	for _, i := range issues {
		if i.Severity == "error" {
			t.Errorf("schema checker: %s", i)
		}
	}
}

func TestSampleDocumentsValidateAgainstSchema(t *testing.T) {
	for _, m := range []*Model{SampleSales(), SampleHospital()} {
		if errs := ValidateModel(m); len(errs) != 0 {
			t.Errorf("%s: %v", m.Name, errs)
		}
	}
}

func TestXMLRoundTrip(t *testing.T) {
	for _, orig := range []*Model{SampleSales(), SampleHospital()} {
		doc := orig.ToXML()
		back, err := ModelFromXML(doc)
		if err != nil {
			t.Fatalf("%s: unmarshal: %v", orig.Name, err)
		}
		if !reflect.DeepEqual(orig, back) {
			t.Errorf("%s: round trip changed the model", orig.Name)
			if orig.String() != back.String() {
				t.Logf("synopsis: %s vs %s", orig, back)
			}
		}
	}
}

func TestXMLRoundTripThroughText(t *testing.T) {
	orig := SampleSales()
	back, err := ModelFromXMLString(orig.XMLString())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(orig, back) {
		t.Error("text round trip changed the model")
	}
}

func TestSchemaRejectsMutations(t *testing.T) {
	s := MustSchema()
	base := SampleSales().XMLString()
	mutations := []struct {
		name, from, to string
	}{
		{"drop model id", ` id="m1"`, ``},
		{"bad multiplicity", `rolea="M"`, `rolea="many"`},
		{"bad operator", `operator="EQ"`, `operator="EQUALS"`},
		{"bad date", `creationdate="2002-03-24"`, `creationdate="someday"`},
		{"bad boolean", `istime="true"`, `istime="yep"`},
		{"dangling sharedagg", `<sharedagg dimclass="d1"`, `<sharedagg dimclass="zz"`},
		{"unknown element", `<factclasses>`, `<factclasses><rogue/>`},
		{"unknown attribute", `<goldmodel id="m1"`, `<goldmodel hax="1" id="m1"`},
	}
	for _, mu := range mutations {
		doc := strings.Replace(base, mu.from, mu.to, 1)
		if doc == base {
			t.Fatalf("%s: mutation did not apply", mu.name)
		}
		if errs := s.ValidateString(doc, xsd.ValidateOptions{}); len(errs) == 0 {
			t.Errorf("%s: mutated document accepted", mu.name)
		}
	}
}

func TestSchemaKeyrefPinsReferences(t *testing.T) {
	// Point an additivity rule at a fact class id: IDREF-valid but
	// keyref-invalid (the paper's §3.1 improvement over their DTD).
	s := MustSchema()
	base := SampleSales().XMLString()
	doc := strings.Replace(base, `<additivity dimclass="d1"`, `<additivity dimclass="f1"`, 1)
	if doc == base {
		t.Fatal("mutation did not apply")
	}
	errs := s.ValidateString(doc, xsd.ValidateOptions{})
	found := false
	for _, e := range errs {
		if strings.Contains(e.Msg, "additivityDimClassKey") {
			found = true
		}
		if strings.Contains(e.Msg, "IDREF") {
			t.Errorf("IDREF should accept f1: %v", e)
		}
	}
	if !found {
		t.Errorf("keyref violation not reported: %v", errs)
	}
	if errs := s.ValidateString(doc, xsd.ValidateOptions{SkipIdentityConstraints: true}); len(errs) != 0 {
		t.Errorf("DTD-equivalent mode should accept: %v", errs)
	}
}

func TestValidateDocumentAppliesDefaults(t *testing.T) {
	doc := SampleSales().ToXML()
	if errs := ValidateDocument(doc); len(errs) != 0 {
		t.Fatalf("unexpected: %v", errs)
	}
	agg := doc.DescendantElements("sharedagg")[0]
	if agg.AttrValue("rolea") != "M" || agg.AttrValue("roleb") != "1" {
		t.Errorf("defaults not applied: %v", agg.Attr)
	}
}

func TestSemanticValidation(t *testing.T) {
	mk := func(mutate func(m *Model)) []SemanticError {
		m := SampleSales()
		mutate(m)
		return m.Validate()
	}
	contains := func(errs []SemanticError, sub string) bool {
		for _, e := range errs {
			if strings.Contains(e.Error(), sub) {
				return true
			}
		}
		return false
	}

	t.Run("cycle in hierarchy", func(t *testing.T) {
		errs := mk(func(m *Model) {
			d := m.DimByName("Time")
			year := d.LevelByName("Year")
			month := d.LevelByName("Month")
			year.Associations = append(year.Associations, &Association{Child: month.ID})
		})
		if !contains(errs, "{dag} violated: cycle") {
			t.Errorf("got %v", errs)
		}
	})
	t.Run("unreachable level", func(t *testing.T) {
		errs := mk(func(m *Model) {
			d := m.DimByName("Time")
			d.Associations = d.Associations[:1] // drop root → Week edge
		})
		if !contains(errs, "not reachable from the dimension class") {
			t.Errorf("got %v", errs)
		}
	})
	t.Run("level without OID", func(t *testing.T) {
		errs := mk(func(m *Model) {
			l := m.DimByName("Time").LevelByName("Year")
			l.Atts[0].IsOID = false
		})
		if !contains(errs, "exactly one {OID}") {
			t.Errorf("got %v", errs)
		}
	})
	t.Run("level without descriptor", func(t *testing.T) {
		errs := mk(func(m *Model) {
			l := m.DimByName("Time").LevelByName("Year")
			l.Atts[1].IsD = false
		})
		if !contains(errs, "exactly one {D}") {
			t.Errorf("got %v", errs)
		}
	})
	t.Run("additivity along non-aggregated dimension", func(t *testing.T) {
		errs := mk(func(m *Model) {
			f := m.FactByName("Sales")
			f.SharedAggs = f.SharedAggs[:2] // drop Store
		})
		if !contains(errs, "which the fact class does not aggregate") {
			t.Errorf("got %v", errs)
		}
	})
	t.Run("derived without rule", func(t *testing.T) {
		errs := mk(func(m *Model) {
			m.FactByName("Sales").AttByName("total").DerivationRule = ""
		})
		if !contains(errs, "derived measure without a derivation rule") {
			t.Errorf("got %v", errs)
		}
	})
	t.Run("duplicate ids", func(t *testing.T) {
		errs := mk(func(m *Model) {
			m.Dims[1].ID = m.Dims[0].ID
		})
		if !contains(errs, "duplicate id") {
			t.Errorf("got %v", errs)
		}
	})
	t.Run("shared aggregation of unknown dimension", func(t *testing.T) {
		errs := mk(func(m *Model) {
			m.Facts[0].SharedAggs[0].DimClass = "ghost"
		})
		if !contains(errs, `references unknown dimension class "ghost"`) {
			t.Errorf("got %v", errs)
		}
	})
	t.Run("cube with unknown measure", func(t *testing.T) {
		errs := mk(func(m *Model) {
			m.Cubes[0].Measures = append(m.Cubes[0].Measures, "ghost")
		})
		if !contains(errs, "is not an attribute of fact class") {
			t.Errorf("got %v", errs)
		}
	})
	t.Run("dice on non-aggregated dimension", func(t *testing.T) {
		errs := mk(func(m *Model) {
			m.Cubes[0].Dices[0].DimClass = "zzz"
		})
		if !contains(errs, "is not aggregated by fact class") {
			t.Errorf("got %v", errs)
		}
	})
	t.Run("dates out of order", func(t *testing.T) {
		errs := mk(func(m *Model) {
			m.LastModified = m.CreationDate.AddDate(-1, 0, 0)
		})
		if !contains(errs, "lastModified precedes creationDate") {
			t.Errorf("got %v", errs)
		}
	})
}

func TestBuilderResolutionErrors(t *testing.T) {
	t.Run("unknown dimension", func(t *testing.T) {
		b := NewModel("m")
		b.Dimension("D").Key("k", "OID").Descriptor("d", "D")
		b.Fact("F").Aggregates("Ghost").Measure("x", "Int")
		if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), `unknown dimension "Ghost"`) {
			t.Errorf("err = %v", err)
		}
	})
	t.Run("unknown level", func(t *testing.T) {
		b := NewModel("m")
		d := b.Dimension("D").Key("k", "OID").Descriptor("d", "D")
		d.Rollup("Ghost")
		b.Fact("F").Aggregates("D").Measure("x", "Int")
		if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), `unknown level "Ghost"`) {
			t.Errorf("err = %v", err)
		}
	})
	t.Run("ambiguous slice attribute", func(t *testing.T) {
		b := NewModel("m")
		b.Dimension("D1").Key("code", "OID").Descriptor("name", "D")
		b.Dimension("D2").Key("code", "OID").Descriptor("name2", "D")
		b.Fact("F").Aggregates("D1").Aggregates("D2").Measure("x", "Int")
		b.Cube("C", "F").Measures("x").Slice("code", OpEQ, "1")
		if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "ambiguous") {
			t.Errorf("err = %v", err)
		}
	})
	t.Run("unknown aggregation op", func(t *testing.T) {
		b := NewModel("m")
		b.Dimension("D").Key("k", "OID").Descriptor("d", "D")
		b.Fact("F").Aggregates("D").Measure("x", "Int").Additive("D", "MEDIAN")
		if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "unknown aggregation operator") {
			t.Errorf("err = %v", err)
		}
	})
}

func TestModelLookups(t *testing.T) {
	m := SampleSales()
	sales := m.FactByName("Sales")
	if sales == nil {
		t.Fatal("Sales not found")
	}
	degenerate := 0
	for _, a := range sales.Atts {
		if a.IsOID {
			degenerate++
		}
	}
	if degenerate != 2 {
		t.Errorf("degenerate dims = %d", degenerate)
	}
	timeDim := m.DimByName("Time")
	if !timeDim.IsTime {
		t.Error("Time not flagged istime")
	}
	inv := sales.AttByName("inventory")
	rule := inv.AdditivityFor(timeDim.ID)
	if rule == nil || rule.Allows("SUM") || !rule.Allows("MAX") {
		t.Errorf("inventory additivity along Time wrong: %+v", rule)
	}
	price := sales.AttByName("price")
	if r := price.AdditivityFor(timeDim.ID); r == nil || !r.IsNot || r.Allows("AVG") {
		t.Errorf("price should be non-additive along Time: %+v", r)
	}
	if qty := sales.AttByName("qty"); qty.AdditivityFor(timeDim.ID) != nil {
		t.Error("qty should be fully additive (no rules)")
	}
}

// pathsTo returns every association path (as level-id slices) from the
// dimension root to the named level.
func pathsTo(d *DimClass, levelID string) [][]string {
	var out [][]string
	var walk func(edges []*Association, prefix []string)
	walk = func(edges []*Association, prefix []string) {
		for _, e := range edges {
			next := append(append([]string(nil), prefix...), e.Child)
			if e.Child == levelID {
				out = append(out, next)
			}
			if l := d.Level(e.Child); l != nil && len(prefix) <= len(d.Levels) {
				walk(l.Associations, next)
			}
		}
	}
	walk(d.Associations, nil)
	return out
}

func TestSampleTimeHasAlternativePaths(t *testing.T) {
	m := SampleSales()
	timeDim := m.DimByName("Time")
	year := timeDim.LevelByName("Year")
	paths := pathsTo(timeDim, year.ID)
	if len(paths) != 2 {
		t.Fatalf("paths to Year = %d, want 2 (via Month and via Week)", len(paths))
	}
	names := map[string]bool{}
	for _, p := range paths {
		if len(p) != 2 {
			t.Errorf("path length %d", len(p))
			continue
		}
		names[timeDim.Level(p[0]).Name] = true
	}
	if !names["Month"] || !names["Week"] {
		t.Errorf("intermediate levels = %v", names)
	}
}

func TestManyToManyAndNonStrict(t *testing.T) {
	m := SampleHospital()
	adm := m.FactByName("Admissions")
	diag := m.DimByName("Diagnosis")
	agg := adm.Agg(diag.ID)
	if agg == nil || !agg.ManyToMany() {
		t.Errorf("Diagnosis aggregation should be many-to-many: %+v", agg)
	}
	patient := m.DimByName("Patient")
	assoc := patient.Associations[0]
	if !assoc.NonStrict() || !assoc.Completeness {
		t.Errorf("RiskGroup association should be non-strict and complete: %+v", assoc)
	}
}

func TestDatesSurviveRoundTrip(t *testing.T) {
	m := SampleSales()
	back, err := ModelFromXMLString(m.XMLString())
	if err != nil {
		t.Fatal(err)
	}
	want := time.Date(2002, 3, 24, 0, 0, 0, 0, time.UTC)
	if !back.CreationDate.Equal(want) {
		t.Errorf("creation date = %v", back.CreationDate)
	}
}

func TestPrettyXMLMentionsKeyElements(t *testing.T) {
	out := SampleSales().PrettyXML()
	for _, want := range []string{"<goldmodel", "<factclass", "<dimclass", "<asoclevel",
		"<sharedagg", "<additivity", "<cubeclass", `derivationrule="qty * price"`} {
		if !strings.Contains(out, want) {
			t.Errorf("pretty XML missing %s", want)
		}
	}
}

func TestSemanticValidationCatLevelsAndMultiplicities(t *testing.T) {
	contains := func(errs []SemanticError, sub string) bool {
		for _, e := range errs {
			if strings.Contains(e.Error(), sub) {
				return true
			}
		}
		return false
	}
	t.Run("catlevel attribute both OID and D", func(t *testing.T) {
		m := SampleSales()
		cl := m.DimByName("Product").CatLevels[0]
		cl.Atts[0].IsOID = true
		cl.Atts[0].IsD = true
		if errs := m.Validate(); !contains(errs, "cannot be both {OID} and {D}") {
			t.Errorf("got %v", errs)
		}
	})
	t.Run("invalid sharedagg multiplicity", func(t *testing.T) {
		m := SampleSales()
		m.Facts[0].SharedAggs[0].RoleA = "banana"
		if errs := m.Validate(); !contains(errs, "invalid roleA multiplicity") {
			t.Errorf("got %v", errs)
		}
	})
	t.Run("invalid association multiplicity", func(t *testing.T) {
		m := SampleSales()
		m.DimByName("Time").Associations[0].RoleB = "7"
		if errs := m.Validate(); !contains(errs, "invalid roleB multiplicity") {
			t.Errorf("got %v", errs)
		}
	})
	t.Run("duplicate sharedagg to same dimension", func(t *testing.T) {
		m := SampleSales()
		f := m.Facts[0]
		f.SharedAggs = append(f.SharedAggs, &SharedAgg{DimClass: f.SharedAggs[0].DimClass})
		if errs := m.Validate(); !contains(errs, "duplicate shared aggregation") {
			t.Errorf("got %v", errs)
		}
	})
	t.Run("additivity rule with conflicting flags", func(t *testing.T) {
		m := SampleSales()
		rule := m.Facts[0].AttByName("price").Additivity[0]
		rule.IsNot = true
		rule.IsSUM = true
		if errs := m.Validate(); !contains(errs, "isnot excludes") {
			t.Errorf("got %v", errs)
		}
	})
	t.Run("cube without measures", func(t *testing.T) {
		m := SampleSales()
		m.Cubes[0].Measures = nil
		if errs := m.Validate(); !contains(errs, "declares no measures") {
			t.Errorf("got %v", errs)
		}
	})
	t.Run("slice with invalid operator", func(t *testing.T) {
		m := SampleSales()
		m.Cubes[0].Slices[0].Operator = "ALMOST"
		if errs := m.Validate(); !contains(errs, "invalid operator") {
			t.Errorf("got %v", errs)
		}
	})
	t.Run("slice on unreachable attribute", func(t *testing.T) {
		m := SampleSales()
		m.Cubes[0].Slices[0].Att = "zzz"
		if errs := m.Validate(); !contains(errs, "not reachable from fact class") {
			t.Errorf("got %v", errs)
		}
	})
}

func TestOperatorAndMultiplicityHelpers(t *testing.T) {
	for _, op := range []Operator{OpEQ, OpLT, OpGT, OpLET, OpGET, OpNOTEQ, OpLIKE, OpNOTLIKE, OpIN, OpNOTIN} {
		if !op.Valid() {
			t.Errorf("%s should be valid", op)
		}
	}
	if Operator("XX").Valid() {
		t.Error("XX accepted")
	}
	if !MultM.Many() || !Mult1M.Many() || Mult1.Many() || Mult0.Many() {
		t.Error("Many() wrong")
	}
	if Multiplicity("2").Valid() {
		t.Error("multiplicity 2 accepted")
	}
}

func TestLevelHelpers(t *testing.T) {
	m := SampleSales()
	month := m.DimByName("Time").LevelByName("Month")
	var oid, desc string
	for _, a := range month.Atts {
		if a.IsOID {
			oid = a.Name
		}
		if a.IsD {
			desc = a.Name
		}
	}
	if oid != "month_id" || desc != "month_name" {
		t.Errorf("Month {OID} %q, {D} %q", oid, desc)
	}
	if got := m.DimByName("Time").Roots(); len(got) != 2 {
		t.Errorf("roots = %v", got)
	}
}
