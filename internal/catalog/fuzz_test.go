package catalog

import (
	"context"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"
)

// FuzzCatalogHandler compares Catalog.Handler with a reference that
// routes every request through the ServeMux alone — the same shell with
// its direct route switched off (server.Shell.MuxHandler) — on the same
// catalog. For any method, request-URI
// (parsed with url.ParseRequestURI, as net/http does, so RawPath and
// escapes are covered) and negotiation headers, both must answer with
// the same status, Location, Content-Type, Content-Encoding, ETag and
// body.
func FuzzCatalogHandler(f *testing.F) {
	c := New(Options{DisableRetry: true})
	f.Cleanup(c.Close)
	if err := c.Set(context.Background(), "sales", modelSource(f, "Sales DW")); err != nil {
		f.Fatal(err)
	}
	h := c.Handler()
	ref := c.shell().MuxHandler()
	for _, uri := range []string{
		"/m/x/../y/site/", "//m/sales/single", "/m/sales/site/.", "/m", "/m/",
		"/m%2Fsales/site/index.html", "/m/sales/site/index%2Ehtml", "", "/healthz/", "/catalog/",
		"/m/sales/site/index.html", "/m/sales/site/index.html?focus=f1", "/m/sales/site",
		"/m/sales/single?focus=%zz", "/m/sales", "/m/nope/single", "/m//single", "/readyz", "/",
	} {
		f.Add("GET", uri, "", "gzip", "")
	}
	f.Add("HEAD", "/m/sales/model.xml", "application/json", "gzip;q=0", "*")
	f.Add("POST", "/m/sales/single", "application/json", "", "")
	f.Fuzz(func(t *testing.T, method, uri, accept, encoding, inm string) {
		req := fuzzRequest(method, uri, accept, encoding, inm)
		if req == nil {
			return
		}
		want := httptest.NewRecorder()
		ref.ServeHTTP(want, fuzzRequest(method, uri, accept, encoding, inm))
		got := httptest.NewRecorder()
		h.ServeHTTP(got, req)
		if got.Code != want.Code {
			t.Fatalf("%s %q: status %d, the ServeMux reference answers %d", method, uri, got.Code, want.Code)
		}
		for _, k := range []string{"Location", "Content-Type", "Content-Encoding", "Etag"} {
			if g, w := got.Header().Get(k), want.Header().Get(k); g != w {
				t.Fatalf("%s %q: %s %q, the ServeMux reference answers %q", method, uri, k, g, w)
			}
		}
		if got.Body.String() != want.Body.String() {
			t.Fatalf("%s %q: body differs from the ServeMux reference:\n%s\nvs\n%s", method, uri, got.Body, want.Body)
		}
	})
}

// fuzzRequest builds the request net/http would hand a handler for a
// raw request-URI and the negotiation headers; nil when net/http would
// reject the request-URI.
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
