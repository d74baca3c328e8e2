package catalog

import (
	"context"
	"net/http"
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

// discardResponse is a ResponseWriter that throws everything away; its
// header map is allocated once, so allocation counts measure the
// handler, not the harness.
type discardResponse struct{ h http.Header }

func (d *discardResponse) Header() http.Header         { return d.h }
func (d *discardResponse) WriteHeader(int)             {}
func (d *discardResponse) Write(p []byte) (int, error) { return len(p), nil }

// TestWarmReadAllocs pins a warm read through Catalog.Handler() at what
// the root http.ServeMux's match allocates: routing /m/{name}/... to the
// model's server copies neither the request nor its URL, and the model
// server's warm path allocates nothing.
func TestWarmReadAllocs(t *testing.T) {
	c := New(Options{DisableRetry: true})
	defer c.Close()
	if err := c.Set(context.Background(), "sales", modelSource(t, "Sales DW")); err != nil {
		t.Fatal(err)
	}
	measure := func(h http.Handler, path string) float64 {
		t.Helper()
		req, err := http.NewRequest(http.MethodGet, path, nil)
		if err != nil {
			t.Fatal(err)
		}
		w := &discardResponse{h: make(http.Header)}
		h.ServeHTTP(w, req) // warm-up
		return testing.AllocsPerRun(200, func() {
			clear(w.h)
			h.ServeHTTP(w, req)
		})
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(http.ResponseWriter, *http.Request) {})
	mux.HandleFunc("/m/", func(http.ResponseWriter, *http.Request) {})
	floor := measure(mux, "/m/sales/site/index.html")
	h := c.Handler()
	for _, path := range []string{"/m/sales/site/index.html", "/m/sales/single", "/m/sales/style.css", "/m/sales/model.xml"} {
		allocs := measure(h, path)
		t.Logf("warm GET %s: %.1f allocs/op (root mux match: %.1f)", path, allocs, floor)
		if allocs > floor {
			t.Errorf("warm GET %s: %.1f allocs/op, want <= %.1f (the root mux match)", path, allocs, floor)
		}
	}
}
