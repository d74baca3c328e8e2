package olap

import (
	"math"
	"strings"
	"testing"

	"goldweb/internal/core"
)

// cell returns the value for a group identified by keys, with ok=false
// when absent.
func (r *Result) cell(col int, keys ...string) (float64, bool) {
	for _, row := range r.Rows {
		if len(row.Keys) != len(keys) {
			continue
		}
		match := true
		for i := range keys {
			if row.Keys[i] != keys[i] {
				match = false
				break
			}
		}
		if match {
			return row.Values[col], true
		}
	}
	return 0, false
}

// salesData loads a small, hand-checkable dataset for the paper's sales
// model: 2 years, 3 months, 2 products in 2 families, 2 stores in 2
// cities, 6 fact rows.
func salesData(t testing.TB) *Dataset {
	m := core.SampleSales()
	ds := NewDataset(m)

	time := ds.Dim("Time")
	time.AddMember("Year", "2001", "2001")
	time.AddMember("Year", "2002", "2002")
	time.AddMember("Month", "2001-12", "Dec 2001")
	time.AddMember("Month", "2002-01", "Jan 2002")
	time.AddMember("Month", "2002-02", "Feb 2002")
	time.MustLink("Month", "2001-12", "Year", "2001")
	time.MustLink("Month", "2002-01", "Year", "2002")
	time.MustLink("Month", "2002-02", "Year", "2002")
	time.AddMember("Week", "2002-W01", "Week 1/2002")
	time.MustLink("Week", "2002-W01", "Year", "2002")
	days := []struct{ day, month string }{
		{"2001-12-30", "2001-12"},
		{"2002-01-05", "2002-01"},
		{"2002-01-20", "2002-01"},
		{"2002-02-10", "2002-02"},
	}
	for _, d := range days {
		time.AddMember("", d.day, d.day)
		time.MustLink("", d.day, "Month", d.month)
	}
	time.MustLink("", "2002-01-05", "Week", "2002-W01")

	product := ds.Dim("Product")
	product.AddMember("Group", "food", "Food")
	product.AddMember("Group", "tech", "Tech")
	product.AddMember("Family", "dairy", "Dairy")
	product.AddMember("Family", "audio", "Audio")
	product.MustLink("Family", "dairy", "Group", "food")
	product.MustLink("Family", "audio", "Group", "tech")
	product.AddMember("", "p1", "Milk 1L").Set("list_price", "0.90")
	product.AddMember("", "p2", "Headphones").Set("list_price", "25.00")
	product.MustLink("", "p1", "Family", "dairy")
	product.MustLink("", "p2", "Family", "audio")

	store := ds.Dim("Store")
	store.AddMember("Province", "ali", "Alicante")
	store.AddMember("Province", "val", "Valencia")
	store.AddMember("City", "alc", "Alicante City")
	store.AddMember("City", "elx", "Elche")
	store.MustLink("City", "alc", "Province", "ali")
	store.MustLink("City", "elx", "Province", "ali")
	store.AddMember("", "s1", "Downtown").Set("address", "Main St 1")
	store.AddMember("", "s2", "Mall")
	store.MustLink("", "s1", "City", "alc")
	store.MustLink("", "s2", "City", "elx")

	sales := ds.Fact("Sales")
	rows := []struct {
		day, prod, store string
		qty, price, inv  float64
		ticket           string
	}{
		{"2001-12-30", "p1", "s1", 2, 1.0, 50, "T1"},
		{"2002-01-05", "p1", "s1", 3, 1.0, 45, "T2"},
		{"2002-01-05", "p2", "s1", 1, 20.0, 10, "T2"},
		{"2002-01-20", "p1", "s2", 4, 0.9, 40, "T3"},
		{"2002-02-10", "p2", "s2", 2, 22.0, 8, "T4"},
		{"2002-02-10", "p1", "s1", 5, 1.1, 35, "T5"},
	}
	for i, r := range rows {
		sales.MustAdd(Row{
			Coords:     Coord("Time", r.day, "Product", r.prod, "Store", r.store),
			Measures:   map[string]float64{"qty": r.qty, "price": r.price, "inventory": r.inv},
			Degenerate: map[string]string{"num_ticket": r.ticket, "num_line": string(rune('1' + i))},
		})
	}
	return ds
}

func TestBasicAggregation(t *testing.T) {
	ds := salesData(t)
	res, err := ds.Execute(Query{
		Fact:    "Sales",
		Aggs:    []Agg{{Measure: "qty", Op: "SUM"}},
		GroupBy: []GroupBy{{Dim: "Product", Level: "Family"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := res.cell(0, "dairy"); !ok || v != 14 {
		t.Errorf("dairy qty = %v (%v)", v, res)
	}
	if v, ok := res.cell(0, "audio"); !ok || v != 3 {
		t.Errorf("audio qty = %v", v)
	}
}

func TestGroupByMultipleDims(t *testing.T) {
	ds := salesData(t)
	res, err := ds.Execute(Query{
		Fact: "Sales",
		Aggs: []Agg{{Measure: "qty", Op: "SUM"}},
		GroupBy: []GroupBy{
			{Dim: "Time", Level: "Year"},
			{Dim: "Product", Level: "Group"},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	checks := map[[2]string]float64{
		{"2001", "food"}: 2,
		{"2002", "food"}: 12,
		{"2002", "tech"}: 3,
	}
	for k, want := range checks {
		if v, ok := res.cell(0, k[0], k[1]); !ok || v != want {
			t.Errorf("%v = %v, want %v", k, v, want)
		}
	}
	if _, ok := res.cell(0, "2001", "tech"); ok {
		t.Error("empty group should be absent")
	}
}

func TestGroupAtTerminalLevel(t *testing.T) {
	ds := salesData(t)
	res, err := ds.Execute(Query{
		Fact:    "Sales",
		Aggs:    []Agg{{Measure: "qty", Op: "SUM"}},
		GroupBy: []GroupBy{{Dim: "Product"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := res.cell(0, "p1"); v != 14 {
		t.Errorf("p1 = %v", v)
	}
}

func TestAggOperators(t *testing.T) {
	ds := salesData(t)
	res, err := ds.Execute(Query{
		Fact: "Sales",
		Aggs: []Agg{
			{Measure: "qty", Op: "SUM"},
			{Measure: "qty", Op: "MIN"},
			{Measure: "qty", Op: "MAX"},
			{Measure: "qty", Op: "AVG"},
			{Measure: "qty", Op: "COUNT"},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	got := res.Rows[0].Values
	want := []float64{17, 1, 5, 17.0 / 6.0, 6}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Errorf("col %s = %v, want %v", res.ValueCols[i], got[i], want[i])
		}
	}
}

func TestDerivedMeasure(t *testing.T) {
	ds := salesData(t)
	res, err := ds.Execute(Query{
		Fact:    "Sales",
		Aggs:    []Agg{{Measure: "total", Op: "SUM"}},
		GroupBy: []GroupBy{{Dim: "Time", Level: "Year"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	// 2002: 3*1 + 1*20 + 4*0.9 + 2*22 + 5*1.1 = 76.1
	if v, _ := res.cell(0, "2002"); math.Abs(v-76.1) > 1e-9 {
		t.Errorf("2002 total = %v", v)
	}
	if v, _ := res.cell(0, "2001"); v != 2 {
		t.Errorf("2001 total = %v", v)
	}
}

func TestAdditivityEnforcement(t *testing.T) {
	ds := salesData(t)
	// SUM(inventory) collapsing Time is forbidden by the model.
	_, err := ds.Execute(Query{
		Fact:    "Sales",
		Aggs:    []Agg{{Measure: "inventory", Op: "SUM"}},
		GroupBy: []GroupBy{{Dim: "Product", Level: "Family"}},
	})
	var addErr *AdditivityError
	if err == nil {
		t.Fatal("SUM(inventory) along Time accepted")
	}
	if ae, ok := err.(*AdditivityError); ok {
		addErr = ae
	} else {
		t.Fatalf("wrong error type: %v", err)
	}
	if addErr.Dim != "Time" || addErr.Op != "SUM" {
		t.Errorf("error detail: %+v", addErr)
	}
	// MAX(inventory) is allowed along Time.
	if _, err := ds.Execute(Query{
		Fact:    "Sales",
		Aggs:    []Agg{{Measure: "inventory", Op: "MAX"}},
		GroupBy: []GroupBy{{Dim: "Product", Level: "Family"}},
	}); err != nil {
		t.Errorf("MAX(inventory) rejected: %v", err)
	}
	// Grouping Time at the terminal level does not collapse it, so SUM is
	// fine again.
	if _, err := ds.Execute(Query{
		Fact:    "Sales",
		Aggs:    []Agg{{Measure: "inventory", Op: "SUM"}},
		GroupBy: []GroupBy{{Dim: "Time"}, {Dim: "Product"}, {Dim: "Store"}},
	}); err != nil {
		t.Errorf("uncollapsed SUM(inventory) rejected: %v", err)
	}
	// price is flagged not-additive along Time: nothing works when Time
	// collapses.
	if _, err := ds.Execute(Query{
		Fact: "Sales",
		Aggs: []Agg{{Measure: "price", Op: "AVG"}},
	}); err == nil {
		t.Error("AVG(price) collapsing Time accepted despite isnot rule")
	}
}

func TestFilters(t *testing.T) {
	ds := salesData(t)
	run := func(f Filter) float64 {
		t.Helper()
		res, err := ds.Execute(Query{
			Fact:    "Sales",
			Aggs:    []Agg{{Measure: "qty", Op: "SUM"}},
			Filters: []Filter{f},
		})
		if err != nil {
			t.Fatalf("filter %+v: %v", f, err)
		}
		if len(res.Rows) == 0 {
			return 0
		}
		return res.Rows[0].Values[0]
	}
	cases := []struct {
		f    Filter
		want float64
	}{
		{Filter{Att: "product_name", Op: core.OpEQ, Value: "Milk 1L"}, 14},
		{Filter{Att: "product_name", Op: core.OpNOTEQ, Value: "Milk 1L"}, 3},
		{Filter{Att: "family_name", Op: core.OpEQ, Value: "Dairy"}, 14},      // level attribute
		{Filter{Att: "province_name", Op: core.OpEQ, Value: "Alicante"}, 17}, // everything is in Alicante
		{Filter{Att: "qty", Op: core.OpGET, Value: "4"}, 9},
		{Filter{Att: "qty", Op: core.OpLT, Value: "2"}, 1},
		{Filter{Att: "num_ticket", Op: core.OpEQ, Value: "T2"}, 4},
		{Filter{Att: "product_name", Op: core.OpLIKE, Value: "Milk%"}, 14},
		{Filter{Att: "product_name", Op: core.OpLIKE, Value: "%phone%"}, 3},
		{Filter{Att: "product_id", Op: core.OpIN, Value: "p1, p2"}, 17},
		{Filter{Att: "product_id", Op: core.OpNOTIN, Value: "p1"}, 3},
		{Filter{Att: "month_name", Op: core.OpEQ, Value: "Jan 2002"}, 8},
	}
	for _, tc := range cases {
		if got := run(tc.f); got != tc.want {
			t.Errorf("filter %v %s %q: got %v, want %v", tc.f.Att, tc.f.Op, tc.f.Value, got, tc.want)
		}
	}
}

func TestExecuteCubeClass(t *testing.T) {
	ds := salesData(t)
	// The sample cube: qty+total by Family and Month, province Alicante.
	res, err := ds.ExecuteCube("QtyByProductAndMonth")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.GroupCols) != 2 || res.GroupCols[0] != "Product/Family" {
		t.Errorf("group cols = %v", res.GroupCols)
	}
	if v, ok := res.cell(0, "dairy", "2002-01"); !ok || v != 7 {
		t.Errorf("dairy Jan = %v\n%s", v, res)
	}
	// total for tech in Feb: 2 * 22 = 44
	if v, ok := res.cell(1, "audio", "2002-02"); !ok || v != 44 {
		t.Errorf("audio Feb total = %v", v)
	}
}

func TestCubeRollUpDrillDown(t *testing.T) {
	ds := salesData(t)
	c, err := ds.NewCube("Sales", "qty")
	if err != nil {
		t.Fatal(err)
	}
	c.Dice("Time", "Month")
	res, err := c.Result()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("months = %d", len(res.Rows))
	}
	// Roll up Month → Year.
	if err := c.RollUp("Time"); err != nil {
		t.Fatal(err)
	}
	res, err = c.Result()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("years = %d (%v)", len(res.Rows), res)
	}
	if v, _ := res.cell(0, "2002"); v != 15 {
		t.Errorf("2002 qty = %v", v)
	}
	// Drill back down to Month.
	if err := c.DrillDown("Time"); err != nil {
		t.Fatal(err)
	}
	res, _ = c.Result()
	if len(res.Rows) != 3 {
		t.Errorf("after drill-down: %d rows", len(res.Rows))
	}
	// Terminal → ambiguous roll-up (Month and Week are alternatives).
	c2, _ := ds.NewCube("Sales", "qty")
	c2.Dice("Time", "")
	if err := c2.RollUp("Time"); err == nil || !strings.Contains(err.Error(), "ambiguous") {
		t.Errorf("ambiguous roll-up not detected: %v", err)
	}
	if err := c2.RollUpTo("Time", "Week"); err != nil {
		t.Fatal(err)
	}
	res, err = c2.Result()
	if err != nil {
		t.Fatal(err)
	}
	// Only one day is linked to a week; its rows: qty 3 + 1 = 4.
	if v, ok := res.cell(0, "2002-W01"); !ok || v != 4 {
		t.Errorf("week qty = %v (%v)", v, res)
	}
}

func TestCubeSlice(t *testing.T) {
	ds := salesData(t)
	c, _ := ds.NewCube("Sales", "qty")
	c.Dice("Store", "City").Slice("year_number", core.OpEQ, "2002")
	res, err := c.Result()
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := res.cell(0, "alc"); v != 9 {
		t.Errorf("alc qty = %v\n%s", v, res)
	}
	if v, _ := res.cell(0, "elx"); v != 6 {
		t.Errorf("elx qty = %v", v)
	}
}

func TestManyToManyContribution(t *testing.T) {
	m := core.SampleHospital()
	ds := NewDataset(m)
	time := ds.Dim("Time")
	time.AddMember("", "d1", "day 1")
	time.AddMember("Month", "m1", "Jan")
	time.MustLink("", "d1", "Month", "m1")
	patient := ds.Dim("Patient")
	patient.AddMember("", "pat1", "Alice")
	patient.AddMember("RiskGroup", "low", "Low risk")
	patient.AddMember("RiskGroup", "high", "High risk")
	// Non-strict: Alice belongs to both risk groups.
	patient.MustLink("", "pat1", "RiskGroup", "low")
	patient.MustLink("", "pat1", "RiskGroup", "high")
	diag := ds.Dim("Diagnosis")
	diag.AddMember("", "dx1", "Flu")
	diag.AddMember("", "dx2", "Asthma")
	ward := ds.Dim("Ward")
	ward.AddMember("", "w1", "North")

	adm := ds.Fact("Admissions")
	adm.MustAdd(Row{
		Coords: map[string][]string{
			"Time": {"d1"}, "Patient": {"pat1"}, "Ward": {"w1"},
			"Diagnosis": {"dx1", "dx2"}, // many-to-many
		},
		Measures:   map[string]float64{"stay_days": 5, "cost": 1000},
		Degenerate: map[string]string{"admission_id": "A1"},
	})

	// Group by Diagnosis at the terminal level: the admission contributes
	// to both diagnoses.
	res, err := ds.Execute(Query{
		Fact:    "Admissions",
		Aggs:    []Agg{{Measure: "stay_days", Op: "SUM"}},
		GroupBy: []GroupBy{{Dim: "Diagnosis"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("diagnosis groups = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.Values[0] != 5 {
			t.Errorf("%v = %v", row.Keys, row.Values[0])
		}
	}
	// Non-strict roll-up: contributes to both risk groups.
	res, err = ds.Execute(Query{
		Fact:    "Admissions",
		Aggs:    []Agg{{Measure: "cost", Op: "SUM"}},
		GroupBy: []GroupBy{{Dim: "Patient", Level: "RiskGroup"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("risk groups = %d", len(res.Rows))
	}
}

func TestStrictLinkRejected(t *testing.T) {
	ds := salesData(t)
	product := ds.Dim("Product")
	// p1 already rolls up to dairy; Product→Family is strict.
	if err := product.Link("", "p1", "Family", "audio"); err == nil {
		t.Error("second parent accepted on a strict association")
	}
	// No DAG edge Store City → Family.
	store := ds.Dim("Store")
	if err := store.Link("City", "alc", "Province", "nope"); err == nil {
		t.Error("link to unknown member accepted")
	}
}

func TestLinkRequiresDAGEdge(t *testing.T) {
	ds := salesData(t)
	time := ds.Dim("Time")
	// There is no association Week → Month.
	if err := time.Link("Week", "2002-W01", "Month", "2002-01"); err == nil {
		t.Error("link along a non-existent DAG edge accepted")
	}
}

func TestRowValidation(t *testing.T) {
	ds := salesData(t)
	sales := ds.Fact("Sales")
	cases := []struct {
		name string
		row  Row
	}{
		{"missing coordinate", Row{
			Coords:   Coord("Time", "2002-01-05", "Product", "p1"),
			Measures: map[string]float64{"qty": 1},
		}},
		{"unknown member", Row{
			Coords:   Coord("Time", "2099-01-01", "Product", "p1", "Store", "s1"),
			Measures: map[string]float64{"qty": 1},
		}},
		{"multi-key on strict aggregation", Row{
			Coords: map[string][]string{
				"Time": {"2002-01-05"}, "Product": {"p1", "p2"}, "Store": {"s1"}},
			Measures: map[string]float64{"qty": 1},
		}},
		{"unknown measure", Row{
			Coords:   Coord("Time", "2002-01-05", "Product", "p1", "Store", "s1"),
			Measures: map[string]float64{"revenue": 1},
		}},
		{"loading a derived measure", Row{
			Coords:   Coord("Time", "2002-01-05", "Product", "p1", "Store", "s1"),
			Measures: map[string]float64{"total": 1},
		}},
		{"degenerate on non-OID", Row{
			Coords:     Coord("Time", "2002-01-05", "Product", "p1", "Store", "s1"),
			Measures:   map[string]float64{"qty": 1},
			Degenerate: map[string]string{"qty": "x"},
		}},
	}
	for _, tc := range cases {
		if err := sales.Add(tc.row); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

func TestQueryErrors(t *testing.T) {
	ds := salesData(t)
	cases := []Query{
		{Fact: "Ghost", Aggs: []Agg{{Measure: "qty"}}},
		{Fact: "Sales"},
		{Fact: "Sales", Aggs: []Agg{{Measure: "ghost"}}},
		{Fact: "Sales", Aggs: []Agg{{Measure: "qty", Op: "MEDIAN"}}},
		{Fact: "Sales", Aggs: []Agg{{Measure: "qty"}}, GroupBy: []GroupBy{{Dim: "Ghost"}}},
		{Fact: "Sales", Aggs: []Agg{{Measure: "qty"}}, GroupBy: []GroupBy{{Dim: "Time", Level: "Ghost"}}},
		{Fact: "Sales", Aggs: []Agg{{Measure: "qty"}}, Filters: []Filter{{Att: "ghost", Op: core.OpEQ, Value: "1"}}},
		{Fact: "Sales", Aggs: []Agg{{Measure: "qty"}}, Filters: []Filter{{Att: "qty", Op: "BOGUS", Value: "1"}}},
	}
	for i, q := range cases {
		if _, err := ds.Execute(q); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestDerivationParser(t *testing.T) {
	ms := map[string]float64{"a": 6, "b": 3, "c": 2}
	cases := []struct {
		rule string
		want float64
	}{
		{"a * b", 18},
		{"a + b * c", 12},
		{"(a + b) * c", 18},
		{"a / b", 2},
		{"a - b - c", 1},
		{"-a + b", -3},
		{"a * 1.5", 9},
	}
	for _, tc := range cases {
		e, err := compileDerivation(tc.rule)
		if err != nil {
			t.Errorf("%s: %v", tc.rule, err)
			continue
		}
		got, err := e.eval(ms)
		if err != nil || got != tc.want {
			t.Errorf("%s = %v (%v), want %v", tc.rule, got, err, tc.want)
		}
	}
	for _, bad := range []string{"", "a +", "(a", "a $ b", "1..2"} {
		if _, err := compileDerivation(bad); err == nil {
			t.Errorf("%q accepted", bad)
		}
	}
	if e, _ := compileDerivation("a / zero"); e != nil {
		if _, err := e.eval(map[string]float64{"a": 1, "zero": 0}); err == nil {
			t.Error("division by zero not reported")
		}
	}
	if e, _ := compileDerivation("missing + 1"); e != nil {
		if _, err := e.eval(ms); err == nil {
			t.Error("missing measure not reported")
		}
	}
}

func TestResultString(t *testing.T) {
	ds := salesData(t)
	res, err := ds.Execute(Query{
		Fact:    "Sales",
		Aggs:    []Agg{{Measure: "qty", Op: "SUM"}},
		GroupBy: []GroupBy{{Dim: "Time", Level: "Year"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	s := res.String()
	if !strings.Contains(s, "Time/Year") || !strings.Contains(s, "SUM(qty)") {
		t.Errorf("table header missing:\n%s", s)
	}
	if !strings.Contains(s, "2002") {
		t.Errorf("row missing:\n%s", s)
	}
}
