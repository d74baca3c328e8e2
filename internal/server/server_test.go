package server

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"goldweb/internal/artifact"
	"goldweb/internal/core"
	"goldweb/internal/htmlgen"
	"goldweb/internal/xsd"
)

func get(t *testing.T, ts *httptest.Server, path string) (int, string, string) {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(body), resp.Header.Get("Content-Type")
}

func TestServerEndpoints(t *testing.T) {
	srv := newServer(t, core.SampleSales(), Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	t.Run("root redirects to the site", func(t *testing.T) {
		resp, err := ts.Client().Get(ts.URL + "/")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.Request.URL.Path != "/site/index.html" {
			t.Errorf("landed on %s", resp.Request.URL.Path)
		}
	})

	t.Run("server-side transformation returns HTML", func(t *testing.T) {
		code, body, ctype := get(t, ts, "/site/index.html")
		if code != http.StatusOK {
			t.Fatalf("status %d", code)
		}
		if !strings.Contains(ctype, "text/html") {
			t.Errorf("content type %s", ctype)
		}
		if !strings.Contains(body, "Multidimensional model: Sales DW") {
			t.Errorf("body: %.120s", body)
		}
	})

	t.Run("fact class page", func(t *testing.T) {
		code, body, _ := get(t, ts, "/site/f1.html")
		if code != http.StatusOK || !strings.Contains(body, "Fact class: Sales") {
			t.Errorf("status %d body %.120s", code, body)
		}
	})

	t.Run("css served", func(t *testing.T) {
		code, body, ctype := get(t, ts, "/site/style.css")
		if code != http.StatusOK || !strings.Contains(ctype, "text/css") ||
			!strings.Contains(body, "mintcream") {
			t.Errorf("css: %d %s", code, ctype)
		}
	})

	t.Run("missing page 404s", func(t *testing.T) {
		if code, _, _ := get(t, ts, "/site/nope.html"); code != http.StatusNotFound {
			t.Errorf("status %d", code)
		}
	})

	t.Run("path traversal rejected", func(t *testing.T) {
		req, _ := http.NewRequest("GET", ts.URL+"/site/sub/../index.html", nil)
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		// Either the client normalizes the path (200 on index) or the
		// server rejects it — it must never serve anything else.
		if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusNotFound {
			t.Errorf("status %d", resp.StatusCode)
		}
	})

	t.Run("single page mode", func(t *testing.T) {
		code, body, _ := get(t, ts, "/single")
		if code != http.StatusOK || !strings.Contains(body, `href="#f1"`) {
			t.Errorf("single: %d", code)
		}
	})

	t.Run("focused presentation", func(t *testing.T) {
		code, body, _ := get(t, ts, "/single?focus=f1")
		if code != http.StatusOK || !strings.Contains(body, "Sales") {
			t.Errorf("focused: %d", code)
		}
	})

	t.Run("model.xml", func(t *testing.T) {
		code, body, ctype := get(t, ts, "/model.xml")
		if code != http.StatusOK || !strings.Contains(ctype, "xml") ||
			!strings.Contains(body, "<goldmodel") {
			t.Errorf("model.xml: %d %s", code, ctype)
		}
	})

	t.Run("pretty", func(t *testing.T) {
		_, body, _ := get(t, ts, "/pretty")
		if !strings.Contains(body, "\n  <factclasses>") {
			t.Errorf("pretty body: %.120s", body)
		}
	})

	t.Run("schema.xsd", func(t *testing.T) {
		_, body, _ := get(t, ts, "/schema.xsd")
		if !strings.Contains(body, `<xsd:simpleType name="Multiplicity">`) {
			t.Error("schema body incomplete")
		}
	})

	t.Run("validate reports valid", func(t *testing.T) {
		_, body, _ := get(t, ts, "/validate")
		if !strings.HasPrefix(body, "VALID:") {
			t.Errorf("validate: %.120s", body)
		}
	})
}

// TestNewRefusesInvalidDocument: New installs through Stage, so a model
// whose canonical document breaks a key/keyref or IDREF constraint never
// goes live; the error is the one a catalog swap gives at its publish
// stage.
func TestNewRefusesInvalidDocument(t *testing.T) {
	ghost := core.SampleSales()
	ghost.Facts[0].SharedAggs[0].DimClass = "ghost"
	srv, err := New(ghost, Config{})
	if err == nil || srv != nil {
		t.Fatalf("New(ghost model) = %v, %v; want a refusal", srv, err)
	}
	const want = "document is invalid: /goldmodel/factclasses/factclass/sharedaggs/sharedagg[1]: " +
		"keyref sharedAggDimClassKey: value (ghost) does not match any dimClassKey value (2 problems)"
	if err.Error() != want {
		t.Errorf("refusal:\n%v\nwant the keyref error and the IDREF one counted:\n%s", err, want)
	}
}

// TestConfigResolve: a Config's zero fields resolve to the defaults, a
// negative bound stays negative (off), a CacheSize <= 0 is the default
// entry cap, a nil Store is artifact.Shared, and the rest passes
// through. Resolving twice changes nothing, and NewEmpty serves with
// the resolved settings.
func TestConfigResolve(t *testing.T) {
	def := Config{
		RequestTimeout: DefaultRequestTimeout,
		MaxInflight:    DefaultMaxInflight,
		CacheSize:      DefaultCacheSize,
		CacheBytes:     DefaultCacheBytes,
		Store:          artifact.Shared,
	}
	with := func(set func(*Config)) Config {
		cfg := def
		set(&cfg)
		return cfg
	}
	store := artifact.NewStore()
	for _, tc := range []struct {
		name      string
		cfg, want Config
	}{
		{"zero", Config{}, def},
		{"RequestTimeout>0", Config{RequestTimeout: 20 * time.Millisecond},
			with(func(c *Config) { c.RequestTimeout = 20 * time.Millisecond })},
		{"RequestTimeout<0", Config{RequestTimeout: -1}, with(func(c *Config) { c.RequestTimeout = -1 })},
		{"MaxInflight>0", Config{MaxInflight: 1}, with(func(c *Config) { c.MaxInflight = 1 })},
		{"MaxInflight<0", Config{MaxInflight: -1}, with(func(c *Config) { c.MaxInflight = -1 })},
		{"CacheSize>0", Config{CacheSize: 2}, with(func(c *Config) { c.CacheSize = 2 })},
		{"CacheSize<0", Config{CacheSize: -1}, def},
		{"CacheBytes>0", Config{CacheBytes: 1}, with(func(c *Config) { c.CacheBytes = 1 })},
		{"CacheBytes<0", Config{CacheBytes: -1}, with(func(c *Config) { c.CacheBytes = -1 })},
		{"NoCompress", Config{NoCompress: true}, with(func(c *Config) { c.NoCompress = true })},
		{"Store", Config{Store: store}, with(func(c *Config) { c.Store = store })},
	} {
		got := tc.cfg.resolve()
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: resolved %+v, want %+v", tc.name, got, tc.want)
		}
		if again := got.resolve(); !reflect.DeepEqual(again, got) {
			t.Errorf("%s: resolving twice gave %+v, want %+v", tc.name, again, got)
		}
		s := NewEmpty(tc.cfg)
		if !reflect.DeepEqual(s.cfg, tc.want) {
			t.Errorf("%s: NewEmpty serves with %+v, want %+v", tc.name, s.cfg, tc.want)
		}
		s.Close()
	}
	hooked := Config{PublishHook: func(context.Context, htmlgen.Mode, string, string) error { return nil }}
	if hooked.resolve().PublishHook == nil {
		t.Error("resolve dropped the publish hook")
	}
}

// TestValidateReadsSnapshot: /validate reports the metamodel checks of
// the live model, whose document passed the XML Schema before it went
// live, so a GET runs no validation walk. A model whose document is
// valid but whose lastModified precedes its creationDate goes live and
// is reported INVALID.
func TestValidateReadsSnapshot(t *testing.T) {
	dated := core.SampleSales()
	dated.LastModified = dated.CreationDate.AddDate(0, 0, -1)
	for _, tc := range []struct {
		name  string
		model *core.Model
		want  string
	}{
		{"valid", core.SampleSales(),
			"VALID: Sales DW conforms to the XML Schema and the metamodel constraints\n"},
		{"dated", dated, "INVALID: 1 problems\n" +
			"model: model Sales DW: lastModified precedes creationDate\n"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ts := httptest.NewServer(newServer(t, tc.model, Config{}).Handler())
			defer ts.Close()
			before := xsd.ValidationWalks()
			_, body, _ := get(t, ts, "/validate")
			if walks := xsd.ValidationWalks() - before; walks != 0 {
				t.Errorf("GET /validate made %d validation walks, want 0", walks)
			}
			if body != tc.want {
				t.Errorf("body:\n%s\nwant:\n%s", body, tc.want)
			}
		})
	}
}

func TestServerModelSwapInvalidatesCache(t *testing.T) {
	srv := newServer(t, core.SampleSales(), Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	_, body, _ := get(t, ts, "/site/index.html")
	if !strings.Contains(body, "Sales DW") {
		t.Fatal("initial model missing")
	}
	commitCanonical(t, srv, core.SampleHospital())
	_, body, _ = get(t, ts, "/site/index.html")
	if !strings.Contains(body, "Hospital DW") {
		t.Error("cache not invalidated")
	}
}

func TestServerConcurrentRequests(t *testing.T) {
	srv := newServer(t, core.SampleSales(), Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	paths := []string{
		"/site/index.html", "/site/f1.html", "/single", "/model.xml",
		"/pretty", "/schema.xsd", "/validate", "/single?focus=f1",
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				resp, err := ts.Client().Get(ts.URL + paths[(w+i)%len(paths)])
				if err != nil {
					errs <- err
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("status %d for %s", resp.StatusCode, paths[(w+i)%len(paths)])
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestClientSideTransformationEndpoints(t *testing.T) {
	srv := newServer(t, core.SampleSales(), Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	code, body, ctype := get(t, ts, "/client/model.xml")
	if code != http.StatusOK || !strings.Contains(ctype, "xml") {
		t.Fatalf("client model: %d %s", code, ctype)
	}
	if !strings.Contains(body, `<?xml-stylesheet type="text/xsl" href="/client/single.xsl"?>`) {
		t.Errorf("xml-stylesheet PI missing: %.200s", body)
	}
	if !strings.Contains(body, "<goldmodel") {
		t.Error("model content missing")
	}

	code, body, _ = get(t, ts, "/client/single.xsl")
	if code != http.StatusOK || !strings.Contains(body, `xmlns:xsl="http://www.w3.org/1999/XSL/Transform"`) {
		t.Errorf("stylesheet endpoint: %d", code)
	}
}

func TestCWMEndpoint(t *testing.T) {
	srv := newServer(t, core.SampleSales(), Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	code, body, _ := get(t, ts, "/cwm.xmi")
	if code != http.StatusOK || !strings.Contains(body, "<CWMOLAP:Schema") {
		t.Errorf("cwm endpoint: %d %.120s", code, body)
	}
}

// TestRoutesAndRedirects pins the status code of every route, and the
// Location of every redirect, through the full handler.
func TestRoutesAndRedirects(t *testing.T) {
	h := newServer(t, core.SampleSales(), Config{}).Handler()
	for _, tc := range []struct {
		path     string
		code     int
		location string
	}{
		{"/", http.StatusFound, "/site/index.html"},
		{"/site", http.StatusMovedPermanently, "/site/"},
		{"/site?focus=f1", http.StatusMovedPermanently, "/site/?focus=f1"},
		{"/site/", http.StatusOK, ""},
		{"/site/index.html?focus=f1", http.StatusOK, ""},
		{"/site/nope.html", http.StatusNotFound, ""},
		{"/site/a/b.html", http.StatusNotFound, ""},
		{"/single", http.StatusOK, ""},
		{"/single/", http.StatusNotFound, ""},
		{"/style.css", http.StatusOK, ""},
		{"/schema.xsd", http.StatusOK, ""},
		{"/model.xml", http.StatusOK, ""},
		{"/pretty", http.StatusOK, ""},
		{"/client/model.xml", http.StatusOK, ""},
		{"/client/single.xsl", http.StatusOK, ""},
		{"/client", http.StatusNotFound, ""},
		{"/cwm.xmi", http.StatusOK, ""},
		{"/validate", http.StatusOK, ""},
		{"/healthz", http.StatusOK, ""},
		{"/readyz", http.StatusOK, ""},
		{"/nope", http.StatusNotFound, ""},
		{"/site/../model.xml", http.StatusMovedPermanently, "/model.xml"},
	} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, tc.path, nil))
		if rec.Code != tc.code || rec.Header().Get("Location") != tc.location {
			t.Errorf("GET %s: %d -> %q, want %d -> %q", tc.path, rec.Code, rec.Header().Get("Location"), tc.code, tc.location)
		}
	}
}
