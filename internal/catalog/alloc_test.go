package catalog

import (
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// setBytesCeiling bounds the bytes one Catalog.Set of
// examples/models/salesdw.xml allocates: parse, validation, model
// build, the snapshot's validated publication document and the shadow
// multi-page publish. A Set measures 172 000–175 000 bytes on go1.24
// linux/amd64, idle or loaded; the ceiling is 174 000 plus 15 %.
const setBytesCeiling = 200_000

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

// discardResponse is a ResponseWriter that throws everything away but
// the status; its header map is allocated once, so allocation counts
// measure the handler, not the harness.
type discardResponse struct {
	h    http.Header
	code int
}

func (d *discardResponse) Header() http.Header { return d.h }
func (d *discardResponse) WriteHeader(code int) {
	if d.code == 0 {
		d.code = code
	}
}
func (d *discardResponse) Write(p []byte) (int, error) {
	d.WriteHeader(http.StatusOK)
	return len(p), nil
}

// TestWarmReadAllocs pins a warm read through Catalog.Handler() at zero
// allocations: a canonical /m/{name}/... path reaches the model's server
// without a ServeMux match, the request and its URL are not copied, a
// ?focus= value is read without building a map, and the model server's
// warm path allocates nothing.
func TestWarmReadAllocs(t *testing.T) {
	c := New(Options{DisableRetry: true})
	defer c.Close()
	if err := c.Set(context.Background(), "sales", modelSource(t, "Sales DW")); err != nil {
		t.Fatal(err)
	}
	h := c.Handler()
	for _, path := range []string{
		"/m/sales/site/index.html", "/m/sales/site/index.html?focus=f1", "/m/sales/site/",
		"/m/sales/single", "/m/sales/single?focus=f1", "/m/sales/style.css", "/m/sales/model.xml",
	} {
		req, err := http.NewRequest(http.MethodGet, path, nil)
		if err != nil {
			t.Fatal(err)
		}
		w := &discardResponse{h: make(http.Header)}
		h.ServeHTTP(w, req) // warm-up
		if w.code != http.StatusOK {
			t.Fatalf("warm-up GET %s: status %d", path, w.code)
		}
		allocs := testing.AllocsPerRun(200, func() {
			clear(w.h)
			h.ServeHTTP(w, req)
		})
		t.Logf("warm GET %s: %.1f allocs/op", path, allocs)
		if allocs > 0 {
			t.Errorf("warm GET %s: %.1f allocs/op, want 0", path, allocs)
		}
	}
}

// BenchmarkCatalogWarmRead times the serve stage of the browse-warm
// workload: parallel warm reads of one model's index page through
// Catalog.Handler(), as identity, as gzip, and as a revalidation whose
// If-None-Match matches (304).
func BenchmarkCatalogWarmRead(b *testing.B) {
	c := New(Options{DisableRetry: true})
	defer c.Close()
	if err := c.Set(context.Background(), "sales", modelSource(b, "Sales DW")); err != nil {
		b.Fatal(err)
	}
	h := c.Handler()
	const path = "/m/sales/site/index.html"
	w := &discardResponse{h: make(http.Header)}
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
	etag := w.h.Get("Etag")
	for _, read := range []struct {
		name   string
		header http.Header
		code   int
	}{
		{"plain", http.Header{}, http.StatusOK},
		{"gzip", http.Header{"Accept-Encoding": {"gzip"}}, http.StatusOK},
		{"if-none-match", http.Header{"If-None-Match": {etag}}, http.StatusNotModified},
	} {
		b.Run(read.name, func(b *testing.B) {
			b.ReportAllocs()
			b.RunParallel(func(pb *testing.PB) {
				req := httptest.NewRequest(http.MethodGet, path, nil)
				req.Header = read.header.Clone()
				w := &discardResponse{h: make(http.Header)}
				h.ServeHTTP(w, req) // warm the variant
				if w.code != read.code {
					b.Errorf("GET %s (%s): status %d, want %d", path, read.name, w.code, read.code)
					return
				}
				for pb.Next() {
					clear(w.h)
					h.ServeHTTP(w, req)
				}
			})
		})
	}
}
