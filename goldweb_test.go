package goldweb

import (
	"strings"
	"testing"

	"goldweb/internal/olap"
)

func TestFacadeEndToEnd(t *testing.T) {
	// Build through the facade.
	b := NewModel("Facade DW")
	d := b.Dimension("When").
		Key("when_id", "OID").
		Descriptor("when_label", "String")
	d.Level("Period").
		Key("period_id", "OID").
		Descriptor("period_label", "String")
	d.Rollup("Period")
	f := b.Fact("Events").Aggregates("When")
	f.Measure("hits", "Integer")
	m, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if problems := Validate(m); len(problems) != 0 {
		t.Fatalf("problems: %v", problems)
	}

	// XML round trip.
	xml := ModelXML(m)
	back, err := ParseModel(xml)
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != "Facade DW" {
		t.Errorf("round trip name = %q", back.Name)
	}
	if errs := ValidateXML(xml); errs != nil {
		t.Errorf("ValidateXML: %v", errs)
	}

	// Publication with link check.
	site, err := Publish(m, PublishOptions{Mode: MultiPage})
	if err != nil {
		t.Fatal(err)
	}
	if errs := CheckLinks(site); len(errs) != 0 {
		t.Errorf("links: %v", errs)
	}
	if len(site.HTMLPages()) < 3 {
		t.Errorf("pages = %d", len(site.HTMLPages()))
	}

	// OLAP through the facade.
	ds := NewDataset(m)
	w := ds.Dim("When")
	w.AddMember("Period", "p1", "AM")
	w.AddMember("", "t1", "9:00")
	w.MustLink("", "t1", "Period", "p1")
	ds.Fact("Events").MustAdd(olap.Row{
		Coords:   olap.Coord("When", "t1"),
		Measures: map[string]float64{"hits": 3},
	})
	res, err := ds.Execute(Query{
		Fact:    "Events",
		Aggs:    []olap.Agg{{Measure: "hits", Op: "SUM"}},
		GroupBy: []olap.GroupBy{{Dim: "When", Level: "Period"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0].Keys[0] != "p1" || res.Rows[0].Values[0] != 3 {
		t.Errorf("rows = %+v", res.Rows)
	}

	// SQL export.
	ddl, err := ExportSQL(m, true)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(ddl, "CREATE TABLE fact_events (") {
		t.Errorf("ddl: %s", ddl)
	}
}

func TestFacadeValidateXMLFindsProblems(t *testing.T) {
	bad := strings.Replace(ModelXML(SampleSales()), `rolea="M"`, `rolea="banana"`, 1)
	if errs := ValidateXML(bad); len(errs) == 0 {
		t.Fatal("invalid XML accepted")
	}
}

func TestFacadeSchemaTree(t *testing.T) {
	tree := SchemaTree(true)
	if !strings.Contains(tree, "goldmodel") || !strings.Contains(tree, "@id : xsd:ID (required)") {
		t.Errorf("tree: %.200s", tree)
	}
}

func TestFacadeSamplesAndServer(t *testing.T) {
	if SampleSales() == nil || SampleHospital() == nil {
		t.Fatal("samples missing")
	}
	if srv, err := NewServer(SampleSales(), ServerConfig{}); err != nil || srv == nil {
		t.Fatalf("server constructor failed: %v", err)
	}
	if _, err := ParseXML("<a><b/></a>"); err != nil {
		t.Fatal(err)
	}
	if PrettyXML(SampleSales()) == "" {
		t.Fatal("pretty empty")
	}
}

func TestFacadeExportCWM(t *testing.T) {
	out := ExportCWM(SampleSales())
	if !strings.Contains(out, "<CWMOLAP:Cube") {
		t.Errorf("cwm: %.120s", out)
	}
}

func TestFacadeLint(t *testing.T) {
	if diags := LintModel("sales.xml", []byte(ModelXML(SampleSales()))); len(diags) != 0 {
		t.Errorf("clean model: %v", diags)
	}
	diags := LintStylesheet("bad.xsl", []byte(`<?xml version="1.0"?>
<xsl:stylesheet xmlns:xsl="http://www.w3.org/1999/XSL/Transform" version="1.0">
  <xsl:template match="widget"/>
</xsl:stylesheet>`))
	if !DiagnosticsHaveErrors(diags) {
		t.Fatalf("expected error-severity findings, got %v", diags)
	}
	if diags[0].Severity != SevError || diags[0].Code != "GW101" {
		t.Errorf("finding: %+v", diags[0])
	}
}
