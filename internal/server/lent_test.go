package server

import (
	"bytes"
	"context"
	"runtime"
	"sync"
	"testing"

	"goldweb/internal/artifact"
	"goldweb/internal/htmlgen"
	"goldweb/internal/workload"
)

// TestLentBufferRepublish: publications render into buffers the server
// lends and reuses, and the store copies a page out only when it keeps
// it. Under a 1-entry presentation cache, readers alternate between the
// index pages of two focused presentations, as BenchmarkColdRepublish
// does, so reads keep missing and republish their page into a buffer
// another publication used before; a stager meanwhile re-stages and commits the
// model, whose shadow publish renders the whole site into a lent buffer.
// Every served artifact, checked when it is served and again at the end
// of its round, must be byte-identical to its page of the site PublishDocumentContext
// builds and keep that page's ETag. Every other round drops what it
// served and collects garbage, so the store misses and copies from the
// lent buffer as well as hitting.
func TestLentBufferRepublish(t *testing.T) {
	m := workload.GenModel(workload.ModelSpec{Facts: 2, Dims: 4, Depth: 2})
	srv := newServer(t, m, Config{Store: artifact.NewStore(), CacheSize: 1})
	doc := srv.snapshot().pubDoc
	focuses := []string{m.Facts[0].ID, m.Facts[1].ID}
	want := map[string]*artifact.Artifact{} // index.html by focus
	var whole *htmlgen.Site
	for _, focus := range append([]string{""}, focuses...) {
		site, err := htmlgen.PublishDocumentContext(context.Background(), doc,
			htmlgen.Options{Mode: htmlgen.MultiPage, Focus: focus, SkipValidation: true})
		if err != nil {
			t.Fatal(err)
		}
		want[focus] = artifact.New(contentType(htmlgen.IndexName), site.Pages[htmlgen.IndexName])
		if focus == "" {
			whole = site
		}
	}
	check := func(label string, a, want *artifact.Artifact) {
		t.Helper()
		if a == nil || !bytes.Equal(a.Bytes(), want.Bytes()) || a.ETag() != want.ETag() {
			t.Errorf("%s: served artifact differs from the published page", label)
		}
	}

	const rounds, readers, reads = 6, 4, 40
	for round := 0; round < rounds; round++ {
		type read struct {
			focus string
			a     *artifact.Artifact
		}
		var mu sync.Mutex
		var served []read
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				commitCanonical(t, srv, m)
			}
		}()
		for g := 0; g < readers; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < reads; i++ {
					focus := focuses[(g+i)%2]
					a, err := srv.pageFor(srv.snapshot(), htmlgen.MultiPage, focus, htmlgen.IndexName)
					if err != nil {
						t.Error(err)
						return
					}
					check("focus "+focus, a, want[focus])
					mu.Lock()
					served = append(served, read{focus, a})
					mu.Unlock()
				}
			}()
		}
		wg.Wait()
		for _, r := range served {
			check("held to the end of the round, focus "+r.focus, r.a, want[r.focus])
		}
		if round%2 == 1 {
			runtime.GC() // what this round served is unreachable now
		}
	}

	snap := srv.snapshot()
	for _, page := range whole.Order {
		a, err := srv.pageFor(snap, htmlgen.MultiPage, "", page)
		if err != nil {
			t.Fatal(err)
		}
		check("staged "+page, a, artifact.New(contentType(page), whole.Pages[page]))
	}
}
