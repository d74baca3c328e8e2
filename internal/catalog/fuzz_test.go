package catalog

import (
	"bytes"
	"context"
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

// fuzzPolicyCatalog is one catalog of FuzzCatalogSet: its lint policy,
// the site its model "m" must serve, and the stage of its last failure.
type fuzzPolicyCatalog struct {
	c     *Catalog
	h     http.Handler
	site  *htmlgen.Site
	stage string
}

// FuzzCatalogSet feeds raw bytes to Catalog.Set under each lint policy.
// Whatever the bytes, no stage panics. A failure names its stage, in
// the error and in the event, and leaves the generation and the served
// pages as they were. A success bumps the generation by exactly one, and
// every /site/ page then served equals the page htmlgen.Publish makes of
// the model's canonical document, although the catalog publishes the
// document it validated.
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
	var cats []*fuzzPolicyCatalog
	for _, policy := range []LintPolicy{LintOff, LintWarn, LintStrict} {
		fc := &fuzzPolicyCatalog{}
		fc.c = New(Options{DisableRetry: true, BreakerThreshold: -1, Lint: policy, OnEvent: func(ev Event) {
			if ev.Type == EventStageFailed {
				fc.stage = ev.Stage
			}
		}})
		f.Cleanup(fc.c.Close)
		fc.h = fc.c.Handler()
		if err := fc.c.Set(context.Background(), "m", good); err != nil {
			f.Fatal(err)
		}
		site, err := canonicalSite(good)
		if err != nil {
			f.Fatal(err)
		}
		fc.site = site
		cats = append(cats, fc)
	}
	stages := []string{"parse", "validate", "lint", "publish", "commit"}
	f.Fuzz(func(t *testing.T, data []byte) {
		data = append([]byte{}, data...) // nil would mean "fetch through the Loader"
		for _, fc := range cats {
			gen := fc.c.get("m").srv.Generation()
			fc.stage = ""
			err := fc.c.Set(context.Background(), "m", data)
			switch {
			case err != nil:
				stage, _, _ := strings.Cut(err.Error(), ": ")
				if !slices.Contains(stages, stage) || fc.stage != stage || strings.Contains(err.Error(), ": panic: ") {
					t.Fatalf("%s: failure %q (event stage %q) names no stage, or panicked", fc.c.opts.Lint, err, fc.stage)
				}
				if got := fc.c.get("m").srv.Generation(); got != gen {
					t.Fatalf("%s: failed Set moved the generation %d -> %d", fc.c.opts.Lint, gen, got)
				}
			default:
				if got := fc.c.get("m").srv.Generation(); got != gen+1 {
					t.Fatalf("%s: Set moved the generation %d -> %d, want +1", fc.c.opts.Lint, gen, got)
				}
				site, err := canonicalSite(data)
				if err != nil {
					t.Fatalf("%s: Set accepted a document whose canonical document does not publish: %v", fc.c.opts.Lint, err)
				}
				fc.site = site
			}
			for _, page := range fc.site.Order {
				rec := httptest.NewRecorder()
				fc.h.ServeHTTP(rec, httptest.NewRequest("GET", "/m/m/site/"+page, nil))
				if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), fc.site.Pages[page]) {
					t.Fatalf("%s: %s: status %d, body differs from the canonical document's page", fc.c.opts.Lint, page, rec.Code)
				}
			}
		}
	})
}

// canonicalSite is the multi-page site of the model read from src,
// published from its canonical document.
func canonicalSite(src []byte) (*htmlgen.Site, error) {
	doc, err := xmldom.Parse(src)
	if err != nil {
		return nil, err
	}
	m, err := core.ModelFromXML(core.ValidateAndFreeze(doc).Doc)
	if err != nil {
		return nil, err
	}
	return htmlgen.Publish(m, htmlgen.Options{Mode: htmlgen.MultiPage})
}
