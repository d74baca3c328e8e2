package olap

import (
	"strings"
	"testing"

	"goldweb/internal/core"
)

func TestCubeErrorPaths(t *testing.T) {
	ds := salesData(t)
	if _, err := ds.NewCube("Ghost", "qty"); err == nil {
		t.Error("unknown fact accepted")
	}
	if _, err := ds.NewCube("Sales", "ghost"); err == nil {
		t.Error("unknown measure accepted")
	}
	c, err := ds.NewCube("Sales", "qty")
	if err != nil {
		t.Fatal(err)
	}
	// Operations on a dimension that is not a grouping axis.
	if err := c.RollUp("Time"); err == nil || !strings.Contains(err.Error(), "Dice first") {
		t.Errorf("rollup without dice: %v", err)
	}
	if err := c.DrillDown("Time"); err == nil {
		t.Error("drill-down without dice accepted")
	}
	if err := c.RollUp("Ghost"); err == nil {
		t.Error("unknown dimension accepted")
	}
	if err := c.RollUpTo("Time", "Ghost"); err == nil {
		t.Error("unknown level accepted")
	}
	// Top of the hierarchy.
	c.Dice("Time", "Year")
	if err := c.RollUp("Time"); err == nil || !strings.Contains(err.Error(), "top of the hierarchy") {
		t.Errorf("rollup at top: %v", err)
	}
	// DrillDown at the terminal level with no history.
	c2, _ := ds.NewCube("Sales", "qty")
	c2.Dice("Product", "")
	if err := c2.DrillDown("Product"); err == nil || !strings.Contains(err.Error(), "terminal") {
		t.Errorf("drill-down at terminal: %v", err)
	}
	// Non-adjacent roll-up.
	c3, _ := ds.NewCube("Sales", "qty")
	c3.Dice("Time", "")
	if err := c3.RollUpTo("Time", "Year"); err == nil {
		t.Error("skipping a level accepted")
	}
}

func TestCubeDrillDownWithoutHistoryUnique(t *testing.T) {
	ds := salesData(t)
	// Store hierarchy is a chain: terminal → City → Province. Drill-down
	// from Province without history follows the unique downward edge.
	c, _ := ds.NewCube("Sales", "qty")
	c.Dice("Store", "Province")
	if err := c.DrillDown("Store"); err != nil {
		t.Fatalf("unique drill-down failed: %v", err)
	}
	if got := c.q.GroupBy[0].Level; got != "City" {
		t.Errorf("level after drill-down = %q", got)
	}
	// Year has two downward edges (Month, Week): ambiguous without history.
	c2, _ := ds.NewCube("Sales", "qty")
	c2.Dice("Time", "Year")
	if err := c2.DrillDown("Time"); err == nil || !strings.Contains(err.Error(), "ambiguous") {
		t.Errorf("ambiguous drill-down: %v", err)
	}
}

func TestCubeDiceReplacesAxis(t *testing.T) {
	ds := salesData(t)
	c, _ := ds.NewCube("Sales", "qty")
	c.Dice("Time", "Month").Dice("Time", "Year")
	if got := len(c.q.GroupBy); got != 1 {
		t.Fatalf("axes = %d", got)
	}
	if c.q.GroupBy[0].Level != "Year" {
		t.Errorf("level = %s", c.q.GroupBy[0].Level)
	}
}

func TestCubeSliceAccumulates(t *testing.T) {
	ds := salesData(t)
	c, _ := ds.NewCube("Sales", "qty")
	c.Slice("product_name", core.OpEQ, "Milk 1L").
		Slice("qty", core.OpGET, "4")
	res, err := c.Result()
	if err != nil {
		t.Fatal(err)
	}
	// Milk rows with qty >= 4: 4 + 5 = 9.
	if res.Rows[0].Values[0] != 9 {
		t.Errorf("sliced qty = %v", res.Rows[0].Values[0])
	}
}

func TestDatasetAccessors(t *testing.T) {
	ds := salesData(t)
	if ds.Model().Name != "Sales DW" {
		t.Error("Model accessor")
	}
	if got := len(ds.Fact("Sales").Rows()); got != 6 {
		t.Errorf("Rows = %d", got)
	}
	if got := len(ds.Dim("Time").Members("Month")); got != 3 {
		t.Errorf("Members(Month) = %d", got)
	}
	if got := len(ds.Dim("Time").Members("Ghost")); got != 0 {
		t.Errorf("Members(Ghost) = %d", got)
	}
	members := ds.Dim("Product").Members("Family")
	if len(members) != 2 {
		t.Errorf("Members = %d", len(members))
	}
	p1 := ds.Dim("Product").Member("", "p1")
	fam := ds.Model().DimByName("Product").LevelByName("Family")
	if got := p1.ParentsAt(fam.ID); len(got) != 1 || got[0].Key != "dairy" {
		t.Errorf("ParentsAt = %v", got)
	}
}

func TestUnknownDimensionPanics(t *testing.T) {
	ds := salesData(t)
	defer func() {
		if recover() == nil {
			t.Error("Dim on unknown name should panic")
		}
	}()
	ds.Dim("Nope")
}
