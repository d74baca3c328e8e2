package server

import (
	"context"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"goldweb/internal/artifact"
	"goldweb/internal/core"
	"goldweb/internal/htmlgen"
)

// cachedEntry returns the cache entry stored under exactly key, or nil.
func cachedEntry(srv *Server, key siteKey) *publishedSite {
	srv.cache.mu.Lock()
	defer srv.cache.mu.Unlock()
	if el, ok := srv.cache.m[key]; ok {
		return el.Value.(*cacheEntry).site
	}
	return nil
}

// TestSitePagesAreCachedPerPage: without a whole-site entry, each /site/
// read publishes and caches only its page, the entries obey the entry
// cap, and every page carries the bytes of the whole presentation.
func TestSitePagesAreCachedPerPage(t *testing.T) {
	m := core.SampleSales()
	srv := New(m, WithCacheSize(2), WithArtifactStore(artifact.NewStore()))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	focus := m.Facts[0].ID
	full, err := htmlgen.Publish(m, htmlgen.Options{Mode: htmlgen.MultiPage, Focus: focus})
	if err != nil {
		t.Fatal(err)
	}
	html := full.HTMLPages()
	if len(html) < 3 {
		t.Fatalf("focused site has %d HTML pages, want at least 3", len(html))
	}
	for i, page := range html {
		code, body, _ := get(t, ts, "/site/"+page+"?focus="+focus)
		if code != http.StatusOK || body != string(full.Pages[page]) {
			t.Fatalf("%s: status %d, body differs from the whole site's page: %v", page, code, body != string(full.Pages[page]))
		}
		key := siteKey{gen: srv.Generation(), mode: htmlgen.MultiPage, focus: focus, page: page}
		if site := cachedEntry(srv, key); site == nil || len(site.pages) != 1 {
			t.Fatalf("%s: no one-page cache entry after the read", page)
		}
		if want := min(i+1, 2); srv.cache.len() != want {
			t.Fatalf("after %d page reads the cache holds %d entries, want %d", i+1, srv.cache.len(), want)
		}
	}
	if cachedEntry(srv, siteKey{gen: srv.Generation(), mode: htmlgen.MultiPage, focus: focus}) != nil {
		t.Error("page reads cached a whole presentation")
	}
	if code, body, ct := get(t, ts, "/site/style.css?focus="+focus); code != http.StatusOK ||
		body != string(full.Pages["style.css"]) || ct != "text/css; charset=utf-8" {
		t.Errorf("style.css: status %d, content type %q", code, ct)
	}
}

// TestUnknownSitePageIs404WithoutTransform: a page name outside the page
// set a run reported answers 404 without a transform and leaves the
// cache as it was. Stage's shadow publish reports the unfocused set; a
// server that never staged learns it from its first targeted run.
func TestUnknownSitePageIs404WithoutTransform(t *testing.T) {
	m := core.SampleHospital()
	focus := m.Facts[0].ID

	srv := NewEmpty(WithArtifactStore(artifact.NewStore()))
	st, err := stageCanonical(context.Background(), srv, m)
	if err != nil {
		t.Fatal(err)
	}
	st.Commit()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	snap := srv.snapshot()
	for _, path := range []string{"/site/nope.html", "/site/nope.html?focus=" + focus, "/site/index.htm"} {
		if code, _, _ := get(t, ts, path); code != http.StatusNotFound {
			t.Errorf("%s: status %d, want 404", path, code)
		}
	}
	if snap.pageGate("", "nope.html") || snap.pageGate(focus, "nope.html") {
		t.Error("the staged page set admits nope.html")
	}
	if got := srv.cache.len(); got != 1 {
		t.Errorf("cache holds %d entries, want only the staged site", got)
	}

	// A page of the unfocused presentation outside the focused one: the
	// first read runs the focused presentation once, the gate then knows.
	full, err := htmlgen.Publish(m, htmlgen.Options{Mode: htmlgen.MultiPage})
	if err != nil {
		t.Fatal(err)
	}
	focused, err := htmlgen.Publish(m, htmlgen.Options{Mode: htmlgen.MultiPage, Focus: focus})
	if err != nil {
		t.Fatal(err)
	}
	other := ""
	for _, page := range full.Order {
		if _, ok := focused.Pages[page]; !ok {
			other = page
			break
		}
	}
	if other == "" {
		t.Fatal("sample focus keeps every page")
	}
	for i := 0; i < 2; i++ {
		if code, _, _ := get(t, ts, "/site/"+other+"?focus="+focus); code != http.StatusNotFound {
			t.Errorf("%s outside focus %s: status %d, want 404", other, focus, code)
		}
		if got := srv.cache.len(); got != 1 {
			t.Errorf("cache holds %d entries after a 404, want 1", got)
		}
	}
	if snap.pageGate(focus, other) {
		t.Errorf("the gate still admits %s for focus %s", other, focus)
	}

	// Without a shadow publish the first targeted run reports the set.
	plain := New(m, WithArtifactStore(artifact.NewStore()))
	pts := httptest.NewServer(plain.Handler())
	defer pts.Close()
	if !plain.snapshot().pageGate("", "nope.html") {
		t.Fatal("a server with no run behind it already gates pages")
	}
	if code, _, _ := get(t, pts, "/site/index.html"); code != http.StatusOK {
		t.Fatalf("index.html: status %d", code)
	}
	if plain.snapshot().pageGate("", "nope.html") {
		t.Error("the first targeted run did not report the page set")
	}
	if code, _, _ := get(t, pts, "/site/nope.html"); code != http.StatusNotFound {
		t.Errorf("nope.html: status %d, want 404", code)
	}
	if got := plain.cache.len(); got != 1 {
		t.Errorf("cache holds %d entries, want only index.html", got)
	}
}

// TestPublicationForDeadGenerationIsNotCached: a publication still in
// flight when a swap purges the cache finishes under a generation
// nothing can serve again; it must not take a cache slot, and nothing
// may hold its artifacts, so they leave the store.
func TestPublicationForDeadGenerationIsNotCached(t *testing.T) {
	entered := make(chan struct{})
	release := make(chan struct{})
	store := artifact.NewStore()
	srv := New(core.SampleSales(), WithArtifactStore(store), WithPublishHook(
		func(ctx context.Context, mode htmlgen.Mode, focus, page string) error {
			close(entered)
			<-release
			return nil
		}))
	snap := srv.snapshot()
	done := make(chan error, 1)
	go func() {
		_, err := srv.pageFor(snap, htmlgen.SinglePage, "", htmlgen.IndexName)
		done <- err
	}()
	<-entered
	srv.SetModel(core.SampleHospital()) // purges the cache for generation 2
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got := srv.cache.len(); got != 0 {
		t.Errorf("cache holds %d entries for a dead generation, want 0", got)
	}
	if got := settleLen(store, 0); got != 0 {
		t.Errorf("store holds %d artifacts of a dead generation, want 0", got)
	}
	runtime.KeepAlive(srv) // a live server must not be what holds them
}

// TestSingleReadDoesNotGateSitePages: a /single read of a focus publishes
// the single-page presentation, whose pages are not the focus's
// multi-page page set; a /site/ page of the same focus read next is
// served, not refused by the page gate.
func TestSingleReadDoesNotGateSitePages(t *testing.T) {
	m := core.SampleSales()
	focus := m.Facts[0].ID
	full, err := htmlgen.Publish(m, htmlgen.Options{Mode: htmlgen.MultiPage, Focus: focus})
	if err != nil {
		t.Fatal(err)
	}
	page := full.HTMLPages()[1]
	srv := New(m, WithArtifactStore(artifact.NewStore()))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	if code, _, _ := get(t, ts, "/single?focus="+focus); code != http.StatusOK {
		t.Fatalf("/single?focus=%s: status %d", focus, code)
	}
	code, body, _ := get(t, ts, "/site/"+page+"?focus="+focus)
	if code != http.StatusOK || body != string(full.Pages[page]) {
		t.Errorf("/site/%s?focus=%s after /single: status %d, want 200 and the published page", page, focus, code)
	}
}
