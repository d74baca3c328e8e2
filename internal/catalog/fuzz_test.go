package catalog

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"goldweb/internal/core"
	"goldweb/internal/htmlgen"
	"goldweb/internal/xmldom"
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

// FuzzCatalogSet feeds raw bytes to Catalog.Set. Whatever the bytes,
// no stage panics. A failure names its stage, in the error and in the
// event, and leaves the generation and the served pages as they were. A
// success bumps the generation by exactly one; the GOLD validation of
// its input then reports no errors, and every /site/ page served equals
// the page htmlgen.Publish makes of the model's canonical document,
// although the catalog publishes the document it validated.
func FuzzCatalogSet(f *testing.F) {
	for _, dir := range []string{"bench/testdata/models", "examples/models"} {
		files, err := filepath.Glob(filepath.Join("..", "..", dir, "*.xml"))
		if err != nil || len(files) == 0 {
			f.Fatalf("%s: %v (%d files)", dir, err, len(files))
		}
		for _, file := range files {
			src, err := os.ReadFile(file)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(src)
		}
	}
	good := modelSource(f, "Seed DW")
	for _, src := range [][]byte{good, tornSource(good), structuralBad(good), keyrefBroken(good)} {
		f.Add(src)
	}
	var failedAt string // the stage of the last failure event
	c := New(Options{DisableRetry: true, BreakerThreshold: -1, OnEvent: func(ev Event) {
		if ev.Type == EventStageFailed {
			failedAt = ev.Stage
		}
	}})
	f.Cleanup(c.Close)
	h := c.Handler()
	if err := c.Set(context.Background(), "m", good); err != nil {
		f.Fatal(err)
	}
	site, err := canonicalSite(good)
	if err != nil {
		f.Fatal(err)
	}
	stages := []string{"parse", "validate", "publish", "commit"}
	f.Fuzz(func(t *testing.T, data []byte) {
		data = append([]byte{}, data...) // nil would mean "fetch through the Loader"
		gen := c.get("m").srv.Generation()
		failedAt = ""
		err := c.Set(context.Background(), "m", data)
		switch {
		case err != nil:
			stage, _, _ := strings.Cut(err.Error(), ": ")
			if !slices.Contains(stages, stage) || failedAt != stage || strings.Contains(err.Error(), ": panic: ") {
				t.Fatalf("failure %q (event stage %q) names no stage, or panicked", err, failedAt)
			}
			if got := c.get("m").srv.Generation(); got != gen {
				t.Fatalf("failed Set moved the generation %d -> %d", gen, got)
			}
		default:
			if got := c.get("m").srv.Generation(); got != gen+1 {
				t.Fatalf("Set moved the generation %d -> %d, want +1", gen, got)
			}
			if site, err = canonicalSite(data); err != nil {
				t.Fatalf("Set accepted a document that is invalid or whose canonical document does not publish: %v", err)
			}
		}
		for _, page := range site.Order {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("GET", "/m/m/site/"+page, nil))
			if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), site.Pages[page]) {
				t.Fatalf("%s: status %d, body differs from the canonical document's page", page, rec.Code)
			}
		}
	})
}

// canonicalSite is the multi-page site of the model read from src,
// published from its canonical document; an error when src does not
// pass the GOLD schema.
func canonicalSite(src []byte) (*htmlgen.Site, error) {
	doc, err := xmldom.Parse(src)
	if err != nil {
		return nil, err
	}
	val := core.ValidateAndFreeze(doc)
	if len(val.Errors) > 0 {
		return nil, fmt.Errorf("GOLD validation: %v (%d problems)", val.Errors[0], len(val.Errors))
	}
	m, err := core.ModelFromXML(val.Doc)
	if err != nil {
		return nil, err
	}
	return htmlgen.Publish(m, htmlgen.Options{Mode: htmlgen.MultiPage})
}
