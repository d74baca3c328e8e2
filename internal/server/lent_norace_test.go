//go:build !race

package server

import (
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"goldweb/internal/artifact"
	"goldweb/internal/htmlgen"
	"goldweb/internal/workload"
)

// TestRepublishOfHeldPageCopiesNothing pins that a republish whose page
// the store already holds allocates fewer bytes than the page: the page
// is rendered into a lent buffer and interning it copies nothing, so the
// page copy every cold read used to pay cannot come back. The model's
// long name makes each index page far larger than what its targeted run
// allocates. (The race detector drops pooled buffers, so it is off.)
func TestRepublishOfHeldPageCopiesNothing(t *testing.T) {
	m := workload.GenModel(workload.ModelSpec{Facts: 2, Dims: 4, Depth: 2})
	m.Name = strings.Repeat("Sales ", 1000)
	srv := newServer(t, m, Config{Store: artifact.NewStore(), CacheSize: 1})
	snap := srv.snapshot()
	var held [2]*artifact.Artifact
	publish := func(i int) *artifact.Artifact {
		a, err := srv.pageFor(snap, htmlgen.MultiPage, m.Facts[i].ID, htmlgen.IndexName)
		if err != nil || a == nil {
			t.Fatalf("pageFor: %v", err)
		}
		return a
	}
	for i := range held {
		held[i] = publish(i)
	}
	smallest := min(held[0].Size(), held[1].Size())

	const republishes = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for n := 0; n < republishes; n++ {
		if a := publish(n % 2); a != held[n%2] {
			t.Fatal("a republish of a held page built a new artifact")
		}
	}
	runtime.ReadMemStats(&after)
	perRepublish := int64(after.TotalAlloc-before.TotalAlloc) / republishes
	t.Logf("republish of a held %d-byte index page: %d bytes allocated", smallest, perRepublish)
	if perRepublish >= smallest {
		t.Errorf("a republish of a held page allocated %d bytes, not fewer than the page's %d", perRepublish, smallest)
	}
	runtime.KeepAlive(held)
}

// Cold-read pins: a BenchmarkColdRepublish-shaped miss (a gzip GET of a
// focused index page under a 1-entry cache, so every read republishes
// its page) measures 50 allocations and 1 200 bytes on go1.24
// linux/amd64, with the pools warm and the collector off, so no pooled
// value is dropped mid-measurement. Each ceiling is the figure plus
// about 6 %.
const (
	coldReadAllocCeiling = 53
	coldReadByteCeiling  = 1275
)

func TestColdRepublishAllocs(t *testing.T) {
	m := workload.GenModel(workload.ModelSpec{Facts: 2, Dims: 4, Depth: 2})
	h := newServer(t, m, Config{Store: artifact.NewStore(), CacheSize: 1}).Handler()
	var reqs [2]*http.Request
	w := &discardResponse{h: make(http.Header)}
	for i := range reqs {
		reqs[i] = httptest.NewRequest(http.MethodGet, "/site/index.html?focus="+m.Facts[i].ID, nil)
		reqs[i].Header.Set("Accept-Encoding", "gzip")
		h.ServeHTTP(w, reqs[i])
		clear(w.h)
	}
	n := 0
	read := func() {
		h.ServeHTTP(w, reqs[n%2])
		clear(w.h)
		n++
	}
	// One P, so the warm-up fills the per-P pools the measured reads draw
	// on, and no collection in between to empty them.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const reads = 400
	for i := 0; i < reads; i++ {
		read()
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	allocs := testing.AllocsPerRun(reads, read)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < reads; i++ {
		read()
	}
	runtime.ReadMemStats(&after)
	bytes := (after.TotalAlloc - before.TotalAlloc) / reads
	t.Logf("cold read: %.0f allocs, %d bytes", allocs, bytes)
	if allocs > coldReadAllocCeiling {
		t.Errorf("a cold read made %.0f allocations, ceiling %d", allocs, coldReadAllocCeiling)
	}
	if bytes > coldReadByteCeiling {
		t.Errorf("a cold read allocated %d bytes, ceiling %d", bytes, coldReadByteCeiling)
	}
}
