package catalog

import (
	"context"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// setBytesCeiling bounds the bytes one Catalog.Set of
// examples/models/salesdw.xml allocates: parse, validation, lint, model
// build, the snapshot's validated publication document and the shadow
// multi-page publish. It is 60 % of the 638 KB a Set allocated when the
// snapshot also built its XML views and the parser allocated per node
// (329 KB now); the views are built by their first GET instead.
const setBytesCeiling = 383_000

func TestSetAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled values, inflating allocation counts")
	}
	src, err := os.ReadFile(filepath.Join("..", "..", "examples", "models", "salesdw.xml"))
	if err != nil {
		t.Fatal(err)
	}
	c := New(Options{DisableRetry: true})
	defer c.Close()
	ctx := context.Background()
	for i := 0; i < 3; i++ { // warm the stylesheets, schema and pools
		if err := c.Set(ctx, "m", src); err != nil {
			t.Fatal(err)
		}
	}
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if err := c.Set(ctx, "m", src); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perSet := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("Set(salesdw.xml): %d bytes, %d allocs", perSet, (after.Mallocs-before.Mallocs)/runs)
	if perSet > setBytesCeiling {
		t.Errorf("Set(salesdw.xml) allocated %d bytes, ceiling %d", perSet, setBytesCeiling)
	}
}
