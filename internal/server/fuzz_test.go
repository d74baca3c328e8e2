package server

import (
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"goldweb/internal/core"
)

// fuzzRequest builds the request net/http would hand a handler for a
// raw request-URI (parsed with url.ParseRequestURI, so RawPath and
// escapes are kept) and the negotiation headers; nil when net/http
// would reject the request-URI.
func fuzzRequest(method, uri, accept, encoding, inm string) *http.Request {
	u, err := url.ParseRequestURI(uri)
	if err != nil {
		return nil
	}
	return &http.Request{
		Method:     method,
		URL:        u,
		RequestURI: uri,
		Proto:      "HTTP/1.1",
		ProtoMajor: 1,
		ProtoMinor: 1,
		Header: http.Header{
			"Accept":          {accept},
			"Accept-Encoding": {encoding},
			"If-None-Match":   {inm},
		},
		Host: "example.com",
	}
}

// sameResponse fails t unless the two recorded responses agree on the
// status, the routing and negotiation headers, and the body.
func sameResponse(t *testing.T, what string, got, want *httptest.ResponseRecorder) {
	t.Helper()
	if got.Code != want.Code {
		t.Fatalf("%s: status %d, the ServeMux reference answers %d", what, got.Code, want.Code)
	}
	for _, k := range []string{"Location", "Content-Type", "Content-Encoding", "Etag"} {
		if g, w := got.Header().Get(k), want.Header().Get(k); g != w {
			t.Fatalf("%s: %s %q, the ServeMux reference answers %q", what, k, g, w)
		}
	}
	if got.Body.String() != want.Body.String() {
		t.Fatalf("%s: body differs from the ServeMux reference:\n%s\nvs\n%s", what, got.Body, want.Body)
	}
}

// FuzzHandler drives the full handler with arbitrary methods,
// request-URIs and negotiation headers. Nothing may panic (the recovery
// middleware would turn a panic into its "internal error" 500), every
// status must be one the server documents, no request may leave a cache
// entry keyed by a focus that is not one of the model's fact ids, and
// every response must equal the one the same shell gives with its direct
// route switched off (Shell.MuxHandler): the direct route takes only
// requests the mux would pass through unchanged.
func FuzzHandler(f *testing.F) {
	srv := newServer(f, core.SampleSales(), Config{})
	h := srv.Handler()
	ref := srv.shell().MuxHandler()
	snap := srv.snapshot()
	for _, seed := range []struct{ method, uri, accept, encoding, inm string }{
		{"GET", "/site/index.html", "text/html", "gzip", ""},
		{"GET", "/site/f1.html?focus=f1", "", "", `"x"`},
		{"HEAD", "/single?focus=f1&focus=zz", "application/json", "gzip, deflate", "*"},
		{"GET", "/single?focus=%zz", "", "identity", ""},
		{"GET", "/site?focus=f1", "", "", ""},
		{"GET", "/site/../model.xml", "", "", ""},
		{"POST", "/model.xml", "application/json", "", ""},
		{"GET", "/pretty", "", "gzip;q=0", ""},
		{"GET", "", "", "", ""},
		{"GET", "//site/index.html", "", "", ""},
		{"GET", "/site/.", "", "", ""},
		{"GET", "/site/index%2Ehtml", "", "", ""},
		{"GET", "/site%2Findex.html", "", "", ""},
		{"GET", "/healthz/", "", "", ""},
		{"GET", "/readyz", "application/json", "", ""},
		{"GET", "/single?;focus=f1", "", "", ""},
	} {
		f.Add(seed.method, seed.uri, seed.accept, seed.encoding, seed.inm)
	}
	f.Fuzz(func(t *testing.T, method, uri, accept, encoding, inm string) {
		req := fuzzRequest(method, uri, accept, encoding, inm)
		if req == nil {
			return
		}
		want := httptest.NewRecorder()
		ref.ServeHTTP(want, fuzzRequest(method, uri, accept, encoding, inm))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		switch rec.Code {
		case http.StatusOK, http.StatusMovedPermanently, http.StatusFound,
			http.StatusNotModified, http.StatusNotFound, http.StatusMethodNotAllowed,
			http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		case http.StatusInternalServerError:
			if strings.HasPrefix(rec.Body.String(), "internal error:") {
				t.Fatalf("%s %q panicked: %s", method, uri, rec.Body)
			}
		default:
			t.Fatalf("%s %q: status %d (%s)", method, uri, rec.Code, rec.Body)
		}
		sameResponse(t, method+" "+uri, rec, want)
		srv.cache.mu.Lock()
		defer srv.cache.mu.Unlock()
		for key := range srv.cache.m {
			if key.focus != "" && !snap.focuses[key.focus] {
				t.Fatalf("%s %q cached focus %q, not a fact id", method, uri, key.focus)
			}
		}
	})
}

// FuzzQueryValue pins queryValue to url.Values.Get over url.ParseQuery
// (what r.URL.Query().Get does) for every raw query.
func FuzzQueryValue(f *testing.F) {
	for _, raw := range []string{
		"", "focus=f1", "focus=f1&focus=f2", "a=1&focus=", "focus", "focus=a+b",
		"focus=%zz&focus=ok", "fo%63us=x", "focus=%41", ";focus=x", "focus=x;y&focus=z",
		"&&focus=1", "focus+=x", "=x", "focus=%",
	} {
		f.Add(raw)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		want := (&url.URL{RawQuery: raw}).Query().Get("focus")
		if got := queryValue(raw, "focus"); got != want {
			t.Fatalf("queryValue(%q) = %q, url.Query gives %q", raw, got, want)
		}
	})
}
