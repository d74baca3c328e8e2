package server

import (
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"goldweb/internal/core"
)

// FuzzHandler drives the full handler with arbitrary methods, paths,
// queries and negotiation headers. Nothing may panic (the recovery
// middleware would turn a panic into its "internal error" 500), every
// status must be one the server documents, and no request may leave a
// cache entry keyed by a focus that is not one of the model's fact ids.
func FuzzHandler(f *testing.F) {
	srv := New(core.SampleSales())
	h := srv.Handler()
	snap := srv.snapshot()
	for _, seed := range []struct{ method, path, query, accept, encoding, inm string }{
		{"GET", "/site/index.html", "", "text/html", "gzip", ""},
		{"GET", "/site/f1.html", "focus=f1", "", "", `"x"`},
		{"HEAD", "/single", "focus=f1&focus=zz", "application/json", "gzip, deflate", "*"},
		{"GET", "/single", "focus=%zz", "", "identity", ""},
		{"GET", "/site", "focus=f1", "", "", ""},
		{"GET", "/site/../model.xml", "", "", "", ""},
		{"POST", "/model.xml", "", "application/json", "", ""},
		{"GET", "/pretty", "", "", "gzip;q=0", ""},
		{"GET", "", "", "", "", ""},
		{"GET", "site//x", ";;", "", "", ""},
	} {
		f.Add(seed.method, seed.path, seed.query, seed.accept, seed.encoding, seed.inm)
	}
	f.Fuzz(func(t *testing.T, method, path, query, accept, encoding, inm string) {
		req := &http.Request{
			Method:     method,
			URL:        &url.URL{Path: path, RawQuery: query},
			Proto:      "HTTP/1.1",
			ProtoMajor: 1,
			ProtoMinor: 1,
			Header:     http.Header{},
			Host:       "example.com",
		}
		req.Header.Set("Accept", accept)
		req.Header.Set("Accept-Encoding", encoding)
		req.Header.Set("If-None-Match", inm)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		switch rec.Code {
		case http.StatusOK, http.StatusMovedPermanently, http.StatusFound,
			http.StatusNotModified, http.StatusNotFound, http.StatusMethodNotAllowed,
			http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		case http.StatusInternalServerError:
			if strings.HasPrefix(rec.Body.String(), "internal error:") {
				t.Fatalf("%s %q?%q panicked: %s", method, path, query, rec.Body)
			}
		default:
			t.Fatalf("%s %q?%q: status %d (%s)", method, path, query, rec.Code, rec.Body)
		}
		srv.cache.mu.Lock()
		defer srv.cache.mu.Unlock()
		for key := range srv.cache.m {
			if key.focus != "" && !snap.focuses[key.focus] {
				t.Fatalf("%s %q?%q cached focus %q, not a fact id", method, path, query, key.focus)
			}
		}
	})
}
