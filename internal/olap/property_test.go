package olap

import (
	"testing"

	"goldweb/internal/core"
)

// TestSumConservation: on strict, single-valued hierarchies, grouping a
// SUM at any level partitions the rows, so the per-group sums add up to
// the ungrouped total.
func TestSumConservation(t *testing.T) {
	ds := salesData(t)
	total, err := ds.Execute(Query{
		Fact: "Sales",
		Aggs: []Agg{{Measure: "qty", Op: "SUM"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := total.Rows[0].Values[0]

	groupings := [][]GroupBy{
		{{Dim: "Product"}},
		{{Dim: "Product", Level: "Family"}},
		{{Dim: "Product", Level: "Group"}},
		{{Dim: "Store", Level: "City"}},
		{{Dim: "Store", Level: "Province"}},
		{{Dim: "Time", Level: "Month"}},
		{{Dim: "Time", Level: "Year"}},
		{{Dim: "Time", Level: "Year"}, {Dim: "Product", Level: "Group"}},
		{{Dim: "Time"}, {Dim: "Product"}, {Dim: "Store"}},
	}
	for _, g := range groupings {
		res, err := ds.Execute(Query{
			Fact:    "Sales",
			Aggs:    []Agg{{Measure: "qty", Op: "SUM"}},
			GroupBy: g,
		})
		if err != nil {
			t.Fatalf("%v: %v", g, err)
		}
		sum := 0.0
		for _, row := range res.Rows {
			sum += row.Values[0]
		}
		if sum != want {
			t.Errorf("grouping %v: sum %v != total %v", g, sum, want)
		}
	}
}

// TestCountConservation: COUNT behaves the same way.
func TestCountConservation(t *testing.T) {
	ds := salesData(t)
	res, err := ds.Execute(Query{
		Fact:    "Sales",
		Aggs:    []Agg{{Measure: "qty", Op: "COUNT"}},
		GroupBy: []GroupBy{{Dim: "Store", Level: "City"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	n := 0.0
	for _, row := range res.Rows {
		n += row.Values[0]
	}
	if n != float64(len(ds.Fact("Sales").Rows())) {
		t.Errorf("counts sum to %v, want %d", n, len(ds.Fact("Sales").Rows()))
	}
}

// TestMinMaxBounds: per-group MIN/MAX always bracket the per-group AVG.
func TestMinMaxBounds(t *testing.T) {
	ds := salesData(t)
	res, err := ds.Execute(Query{
		Fact: "Sales",
		Aggs: []Agg{
			{Measure: "qty", Op: "MIN"},
			{Measure: "qty", Op: "AVG"},
			{Measure: "qty", Op: "MAX"},
		},
		GroupBy: []GroupBy{{Dim: "Time", Level: "Month"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		min, avg, max := row.Values[0], row.Values[1], row.Values[2]
		if !(min <= avg && avg <= max) {
			t.Errorf("group %v: min %v avg %v max %v", row.Keys, min, avg, max)
		}
	}
}

// TestRollupMonotonicity: rolling up can only reduce (or keep) the
// number of groups.
func TestRollupMonotonicity(t *testing.T) {
	ds := salesData(t)
	counts := []int{}
	for _, level := range []string{"", "Month", "Year"} {
		res, err := ds.Execute(Query{
			Fact:    "Sales",
			Aggs:    []Agg{{Measure: "qty", Op: "SUM"}},
			GroupBy: []GroupBy{{Dim: "Time", Level: level}},
		})
		if err != nil {
			t.Fatal(err)
		}
		counts = append(counts, len(res.Rows))
	}
	for i := 1; i < len(counts); i++ {
		if counts[i] > counts[i-1] {
			t.Errorf("group count grew on roll-up: %v", counts)
		}
	}
}

// TestExecutionDeterminism: repeated execution returns identical tables.
func TestExecutionDeterminism(t *testing.T) {
	ds := salesData(t)
	q := Query{
		Fact: "Sales",
		Aggs: []Agg{{Measure: "total", Op: "SUM"}, {Measure: "qty", Op: "MAX"}},
		GroupBy: []GroupBy{
			{Dim: "Time", Level: "Month"},
			{Dim: "Store", Level: "City"},
		},
	}
	first, err := ds.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		again, err := ds.Execute(q)
		if err != nil {
			t.Fatal(err)
		}
		if again.String() != first.String() {
			t.Fatalf("nondeterministic result:\n%s\nvs\n%s", first, again)
		}
	}
}

// TestFiltersComposeAsIntersection: applying two filters together never
// keeps more than either filter alone.
func TestFiltersComposeAsIntersection(t *testing.T) {
	ds := salesData(t)
	count := func(fs ...Filter) float64 {
		res, err := ds.Execute(Query{
			Fact:    "Sales",
			Aggs:    []Agg{{Measure: "qty", Op: "COUNT"}},
			Filters: fs,
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) == 0 {
			return 0
		}
		return res.Rows[0].Values[0]
	}
	f1 := Filter{Att: "product_name", Op: core.OpEQ, Value: "Milk 1L"}
	f2 := Filter{Att: "qty", Op: core.OpGET, Value: "3"}
	c1, c2, both := count(f1), count(f2), count(f1, f2)
	if both > c1 || both > c2 {
		t.Errorf("intersection larger than parts: %v %v %v", c1, c2, both)
	}
	if c1+c2 < both {
		t.Errorf("impossible counts: %v %v %v", c1, c2, both)
	}
}

// TestAdditivityMatrix: the allowed-operator matrix of the sales model is
// enforced exactly for every (measure, operator) pair when Time collapses.
func TestAdditivityMatrix(t *testing.T) {
	ds := salesData(t)
	cases := map[string]map[string]bool{
		//           SUM    MIN    MAX    AVG    COUNT
		"qty":       {"SUM": true, "MIN": true, "MAX": true, "AVG": true, "COUNT": true},
		"inventory": {"SUM": false, "MIN": true, "MAX": true, "AVG": true, "COUNT": false},
		"price":     {"SUM": false, "MIN": false, "MAX": false, "AVG": false, "COUNT": false},
	}
	for measure, ops := range cases {
		for op, want := range ops {
			_, err := ds.Execute(Query{
				Fact: "Sales",
				Aggs: []Agg{{Measure: measure, Op: op}},
			})
			if (err == nil) != want {
				t.Errorf("%s(%s): allowed=%v, want %v (err=%v)", op, measure, err == nil, want, err)
			}
		}
	}
}
