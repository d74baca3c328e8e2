package server

import (
	"bytes"
	"compress/gzip"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"goldweb/internal/artifact"
	"goldweb/internal/core"
	"goldweb/internal/htmlgen"
	"goldweb/internal/workload"
)

// edgeEndpoints lists every page/app endpoint that serves a frozen
// artifact (everything except the dynamic /validate report).
var edgeEndpoints = []string{
	"/site/index.html",
	"/site/style.css",
	"/single",
	"/style.css",
	"/model.xml",
	"/pretty",
	"/client/model.xml",
	"/client/single.xsl",
	"/cwm.xmi",
	"/schema.xsd",
}

func doReq(t *testing.T, ts *httptest.Server, method, path string, hdr map[string]string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(method, ts.URL+path, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, path, err)
	}
	return resp
}

// TestHeadMatchesGet verifies that HEAD answers with exactly the
// metadata a GET would carry — ETag, Content-Type, Content-Length,
// Content-Encoding, Cache-Control — and a zero-byte body, for both the
// identity and the gzip representation.
func TestHeadMatchesGet(t *testing.T) {
	srv := newServer(t, core.SampleSales(), Config{Store: artifact.NewStore()})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	headersOf := []string{"Etag", "Content-Type", "Content-Length", "Content-Encoding", "Cache-Control", "Vary"}
	for _, enc := range []string{"identity", "gzip"} {
		for _, path := range edgeEndpoints {
			// An explicit Accept-Encoding keeps the transport from
			// injecting its own and transparently decompressing, which
			// would strip Content-Length/Content-Encoding from GET only.
			hdr := map[string]string{"Accept-Encoding": enc}
			get := doReq(t, ts, http.MethodGet, path, hdr)
			getBody, _ := io.ReadAll(get.Body)
			get.Body.Close()
			head := doReq(t, ts, http.MethodHead, path, hdr)
			headBody, _ := io.ReadAll(head.Body)
			head.Body.Close()

			if get.StatusCode != http.StatusOK || head.StatusCode != http.StatusOK {
				t.Fatalf("%s (enc=%q): GET %d, HEAD %d", path, enc, get.StatusCode, head.StatusCode)
			}
			if len(getBody) == 0 {
				t.Errorf("%s: GET body empty", path)
			}
			if len(headBody) != 0 {
				t.Errorf("%s (enc=%q): HEAD body has %d bytes", path, enc, len(headBody))
			}
			for _, h := range headersOf {
				if g, hd := get.Header.Get(h), head.Header.Get(h); g != hd {
					t.Errorf("%s (enc=%q): header %s: GET %q, HEAD %q", path, enc, h, g, hd)
				}
			}
			if et := get.Header.Get("Etag"); !strings.HasPrefix(et, `"`) {
				t.Errorf("%s: ETag %q is not a quoted strong validator", path, et)
			}
		}
	}
}

// TestConditionalRequests covers the If-None-Match revalidation path:
// a matching validator gets a bodyless 304 (on GET and HEAD alike,
// weak or strong comparison), a stale one a full 200.
func TestConditionalRequests(t *testing.T) {
	srv := newServer(t, core.SampleSales(), Config{Store: artifact.NewStore()})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	first := doReq(t, ts, http.MethodGet, "/site/index.html", nil)
	io.Copy(io.Discard, first.Body)
	first.Body.Close()
	etag := first.Header.Get("Etag")
	if etag == "" {
		t.Fatal("no ETag on first response")
	}

	cases := []struct {
		name   string
		method string
		inm    string
		want   int
	}{
		{"matching etag", http.MethodGet, etag, http.StatusNotModified},
		{"matching etag HEAD", http.MethodHead, etag, http.StatusNotModified},
		{"weak form", http.MethodGet, "W/" + etag, http.StatusNotModified},
		{"in a list", http.MethodGet, `"deadbeef", ` + etag, http.StatusNotModified},
		{"wildcard", http.MethodGet, "*", http.StatusNotModified},
		{"stale etag", http.MethodGet, `"deadbeef"`, http.StatusOK},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp := doReq(t, ts, tc.method, "/site/index.html", map[string]string{"If-None-Match": tc.inm})
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != tc.want {
				t.Fatalf("status %d, want %d", resp.StatusCode, tc.want)
			}
			if tc.want == http.StatusNotModified {
				if len(body) != 0 {
					t.Errorf("304 carried %d body bytes", len(body))
				}
				if got := resp.Header.Get("Etag"); got != etag {
					t.Errorf("304 ETag %q, want %q", got, etag)
				}
			}
		})
	}
}

// TestCompressionDisabled verifies Config.NoCompress always serves
// identity even to gzip-capable clients.
func TestCompressionDisabled(t *testing.T) {
	srv := newServer(t, core.SampleSales(), Config{Store: artifact.NewStore(), NoCompress: true})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp := doReq(t, ts, http.MethodGet, "/site/index.html", map[string]string{"Accept-Encoding": "gzip"})
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ce := resp.Header.Get("Content-Encoding"); ce != "" {
		t.Errorf("Content-Encoding %q with compression disabled", ce)
	}
	if !bytes.Contains(body, []byte("<html")) {
		t.Errorf("body is not identity HTML: %.60q", body)
	}
}

// TestGzipVariantsMatchIdentity is the byte-identity differential: for
// every example model, in both presentation modes, every HTML page the
// server renders must equal the published page, and the decompressed
// gzip variant must equal the identity bytes.
func TestGzipVariantsMatchIdentity(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "examples", "models", "*.xml"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no example models found: %v", err)
	}
	for _, path := range paths {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		m, err := core.ModelFromXMLString(string(src))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		srv := newServer(t, m, Config{Store: artifact.NewStore()})
		for _, mode := range []htmlgen.Mode{htmlgen.MultiPage, htmlgen.SinglePage} {
			site, err := htmlgen.Publish(m, htmlgen.Options{Mode: mode})
			if err != nil {
				t.Fatalf("%s mode %v: %v", path, mode, err)
			}
			checked := 0
			for _, name := range site.HTMLPages() {
				a, err := srv.pageFor(srv.snapshot(), mode, "", name)
				if err != nil || a == nil {
					t.Fatalf("%s %s (mode %v): %v, %v", path, name, mode, a, err)
				}
				if !bytes.Equal(a.Bytes(), site.Pages[name]) {
					t.Errorf("%s %s (mode %v): served page differs from the published one", path, name, mode)
				}
				gz := a.Gzip()
				if gz == nil {
					continue // too small or not worth compressing
				}
				zr, err := gzip.NewReader(bytes.NewReader(gz))
				if err != nil {
					t.Fatalf("%s %s: bad gzip stream: %v", path, name, err)
				}
				plain, err := io.ReadAll(zr)
				zr.Close()
				if err != nil {
					t.Fatalf("%s %s: %v", path, name, err)
				}
				if !bytes.Equal(plain, a.Bytes()) {
					t.Errorf("%s %s (mode %v): decompressed variant differs from identity", path, name, mode)
				}
				checked++
			}
			if checked == 0 {
				t.Errorf("%s mode %v: no page had a gzip variant", path, mode)
			}
		}
	}
}

// TestETagsStableAcrossByteIdenticalSwap republishes the same model
// through a hot swap and asserts the edge contract survives: every
// ETag is unchanged, clients revalidating with the old validator still
// get 304, and the content store did not grow (the regenerated pages
// interned onto the existing artifacts).
func TestETagsStableAcrossByteIdenticalSwap(t *testing.T) {
	store := artifact.NewStore()
	srv := newServer(t, core.SampleSales(), Config{Store: store})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	collect := func() map[string]string {
		etags := map[string]string{}
		for _, path := range edgeEndpoints {
			resp := doReq(t, ts, http.MethodGet, path, nil)
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s: status %d", path, resp.StatusCode)
			}
			etags[path] = resp.Header.Get("Etag")
		}
		return etags
	}

	before := collect()
	interned := store.Len()

	commitCanonical(t, srv, core.SampleSales()) // byte-identical republish
	after := collect()

	for path, et := range before {
		if after[path] != et {
			t.Errorf("%s: ETag changed across byte-identical swap: %q -> %q", path, et, after[path])
		}
	}
	if got := store.Len(); got != interned {
		t.Errorf("store grew across byte-identical swap: %d -> %d artifacts", interned, got)
	}

	// A client that cached before the swap still revalidates cheaply.
	resp := doReq(t, ts, http.MethodGet, "/site/index.html",
		map[string]string{"If-None-Match": before["/site/index.html"]})
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotModified {
		t.Errorf("revalidation after swap: status %d, want 304", resp.StatusCode)
	}
}

// TestRepublishAfterEvictionServesSameGzip: under a 1-entry cache, a
// gzip GET of page A, then of page B (which evicts A), then of A again
// answers A's republish with the same ETag and identical gzip bytes.
// While something still holds A's artifact, the republish gets that very
// artifact back with the variant it already built.
func TestRepublishAfterEvictionServesSameGzip(t *testing.T) {
	m := core.SampleSales()
	full, err := htmlgen.Publish(m, htmlgen.Options{Mode: htmlgen.MultiPage})
	if err != nil {
		t.Fatal(err)
	}
	pa, pb := full.HTMLPages()[0], full.HTMLPages()[1]
	srv := newServer(t, m, Config{Store: artifact.NewStore(), CacheSize: 1})
	dropStagedSite(srv)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	gzGet := func(page string) (string, []byte) {
		resp := doReq(t, ts, http.MethodGet, "/site/"+page, map[string]string{"Accept-Encoding": "gzip"})
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Encoding") != "gzip" {
			t.Fatalf("gzip GET %s: status %d, encoding %q, %v", page, resp.StatusCode, resp.Header.Get("Content-Encoding"), err)
		}
		return resp.Header.Get("Etag"), body
	}
	etagA, gzA := gzGet(pa)
	gzGet(pb)
	if cachedEntry(srv, siteKey{gen: srv.Generation(), mode: htmlgen.MultiPage, page: pa}) != nil {
		t.Fatalf("%s still cached after %s filled the 1-entry cache", pa, pb)
	}
	etagA2, gzA2 := gzGet(pa)
	if etagA2 != etagA || !bytes.Equal(gzA2, gzA) {
		t.Errorf("republished %s: ETag %s -> %s, gzip bytes equal %v", pa, etagA, etagA2, bytes.Equal(gzA2, gzA))
	}

	snap := srv.snapshot()
	held, err := srv.pageFor(snap, htmlgen.MultiPage, "", pa)
	if err != nil || held == nil {
		t.Fatalf("pageFor %s: %v", pa, err)
	}
	gz := held.Gzip()
	if _, err := srv.pageFor(snap, htmlgen.MultiPage, "", pb); err != nil {
		t.Fatal(err)
	}
	again, err := srv.pageFor(snap, htmlgen.MultiPage, "", pa)
	if err != nil || again != held {
		t.Fatalf("republish of a held page built a new artifact (%v)", err)
	}
	if g := again.Gzip(); len(g) != len(gz) || &g[0] != &gz[0] {
		t.Error("republish of a held page compressed it again")
	}
}

// BenchmarkColdRepublish times the stage browse-cold's reads run: under a
// 1-entry presentation cache, gzip GETs alternate between the index pages
// of two focused presentations, so every read misses, republishes its
// page, interns it and serves its gzip variant.
func BenchmarkColdRepublish(b *testing.B) {
	m := workload.GenModel(workload.ModelSpec{Facts: 2, Dims: 4, Depth: 2})
	h := newServer(b, m, Config{Store: artifact.NewStore(), CacheSize: 1}).Handler()
	var reqs [2]*http.Request
	w := &discardResponse{h: make(http.Header)}
	for i := range reqs {
		reqs[i] = httptest.NewRequest(http.MethodGet, "/site/index.html?focus="+m.Facts[i].ID, nil)
		reqs[i].Header.Set("Accept-Encoding", "gzip")
		h.ServeHTTP(w, reqs[i])
		if w.h.Get("Content-Encoding") != "gzip" {
			b.Fatalf("GET %s: no gzip response", reqs[i].URL)
		}
		clear(w.h)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.ServeHTTP(w, reqs[i%2])
		clear(w.h)
	}
}

// BenchmarkWarmPageFor times a warm hit's cache lookup, the part of a
// browse-warm read that depends on how a cached presentation holds its
// pages: a page of the staged whole site, and a focused page a /site/
// miss cached as a one-page entry.
func BenchmarkWarmPageFor(b *testing.B) {
	m := core.SampleSales()
	srv := NewEmpty(Config{})
	st, err := stageCanonical(context.Background(), srv, m)
	if err != nil {
		b.Fatal(err)
	}
	st.Commit()
	snap := srv.snapshot()
	for _, bc := range []struct{ name, focus string }{{"site", ""}, {"page", m.Facts[0].ID}} {
		b.Run(bc.name, func(b *testing.B) {
			if a, err := srv.pageFor(snap, htmlgen.MultiPage, bc.focus, htmlgen.IndexName); err != nil || a == nil {
				b.Fatalf("pageFor: %v, %v", a, err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				srv.pageFor(snap, htmlgen.MultiPage, bc.focus, htmlgen.IndexName)
			}
		})
	}
}
