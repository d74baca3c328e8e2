package workload

import (
	"testing"

	"goldweb/internal/core"
	"goldweb/internal/olap"
)

func TestGenModelSizes(t *testing.T) {
	specs := []ModelSpec{
		{Facts: 1, Dims: 1, Depth: 0},
		{Facts: 2, Dims: 4, Depth: 2, Cubes: true},
		{Facts: 4, Dims: 8, Depth: 3},
	}
	for _, spec := range specs {
		m := GenModel(spec)
		if len(m.Facts) != spec.Facts || len(m.Dims) != spec.Dims {
			t.Errorf("%s: facts=%d dims=%d", spec, len(m.Facts), len(m.Dims))
		}
		for _, d := range m.Dims {
			if len(d.Levels) != spec.Depth {
				t.Errorf("%s: dim %s levels=%d", spec, d.Name, len(d.Levels))
			}
		}
		if errs := m.Validate(); len(errs) != 0 {
			t.Errorf("%s: invalid: %v", spec, errs)
		}
		if errs := core.ValidateModel(m); len(errs) != 0 {
			t.Errorf("%s: schema-invalid: %v", spec, errs)
		}
		if spec.Cubes && len(m.Cubes) != spec.Facts {
			t.Errorf("%s: cubes=%d", spec, len(m.Cubes))
		}
	}
}

func TestGenModelDeterministic(t *testing.T) {
	a := GenModel(ModelSpec{Facts: 2, Dims: 3, Depth: 2, Seed: 7})
	b := GenModel(ModelSpec{Facts: 2, Dims: 3, Depth: 2, Seed: 7})
	if a.XMLString() != b.XMLString() {
		t.Error("same seed produced different models")
	}
	c := GenModel(ModelSpec{Facts: 2, Dims: 3, Depth: 2, Seed: 8})
	if a.XMLString() == c.XMLString() {
		t.Error("different seeds produced identical models")
	}
}

func TestGenDataLoadsAndQueries(t *testing.T) {
	m := GenModel(ModelSpec{Facts: 2, Dims: 3, Depth: 2, Cubes: true, Seed: 1})
	ds := GenData(m, DataSpec{LeavesPerDim: 12, RowsPerFact: 50, Seed: 1})
	if got := len(ds.Fact("Fact01").Rows()); got != 50 {
		t.Fatalf("rows = %d", got)
	}
	if got := len(ds.Dim("Dim01").Members("")); got != 12 {
		t.Fatalf("leaves = %d", got)
	}
	// Queries run against the generated data, grouping at a level.
	res, err := ds.Execute(olap.Query{
		Fact:    "Fact01",
		Aggs:    []olap.Agg{{Measure: "fact01_m1", Op: "SUM"}, {Measure: "fact01_m1", Op: "COUNT"}},
		GroupBy: []olap.GroupBy{{Dim: "Dim01", Level: "Dim01L1"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	totalCount := 0.0
	for _, row := range res.Rows {
		totalCount += row.Values[1]
	}
	if totalCount != 50 {
		t.Errorf("counts sum to %v, want 50 (every row lands in exactly one group)", totalCount)
	}
	// Cube classes execute too.
	if _, err := ds.ExecuteCube("Cube01"); err != nil {
		t.Errorf("cube: %v", err)
	}
	// The generated data is complete: every member has a parent on each
	// edge leaving its level.
	for _, d := range m.Dims {
		dd := ds.Dim(d.Name)
		check := func(level string, edges []*core.Association) {
			for _, mem := range dd.Members(level) {
				for _, e := range edges {
					if len(mem.ParentsAt(e.Child)) == 0 {
						t.Errorf("%s: member %s of level %q has no parent in %s", d.Name, mem.Key, level, e.Child)
					}
				}
			}
		}
		check("", d.Associations)
		for _, l := range d.Levels {
			check(l.Name, l.Associations)
		}
	}
}

func TestGeneratedModelsPublishAndValidate(t *testing.T) {
	m := GenModel(ModelSpec{Facts: 3, Dims: 4, Depth: 2, Cubes: true, Seed: 3})
	doc := m.ToXML()
	if errs := core.ValidateDocument(doc); len(errs) != 0 {
		t.Fatalf("generated doc invalid: %v", errs)
	}
	back, err := core.ModelFromXML(doc)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Facts) != 3 || len(back.Dims) != 4 {
		t.Error("round trip lost classes")
	}
}
