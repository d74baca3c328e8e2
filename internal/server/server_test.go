package server

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"goldweb/internal/core"
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
	srv := New(core.SampleSales())
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

func TestServerValidateReportsProblems(t *testing.T) {
	m := core.SampleSales()
	m.Facts[0].SharedAggs[0].DimClass = "ghost"
	srv := New(m)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	_, body, _ := get(t, ts, "/validate")
	if !strings.HasPrefix(body, "INVALID:") {
		t.Errorf("validate: %.200s", body)
	}
	if !strings.Contains(body, "ghost") {
		t.Errorf("culprit missing: %s", body)
	}
}

// TestValidateReadsSnapshot: /validate reports the validation the
// snapshot made at swap time, so a GET runs no validation walk, and its
// report is the one a fresh validation of the canonical document gives.
func TestValidateReadsSnapshot(t *testing.T) {
	ghost := core.SampleSales()
	ghost.Facts[0].SharedAggs[0].DimClass = "ghost"
	for _, tc := range []struct {
		name  string
		model *core.Model
		want  string
	}{
		{"valid", core.SampleSales(),
			"VALID: Sales DW conforms to the XML Schema and the metamodel constraints\n"},
		{"ghost", ghost, "INVALID: 6 problems\n" +
			"model: cube QtyByProductAndMonth/dice d1: dice dimension \"d1\" is not aggregated by fact class Sales\n" +
			"model: fact Sales/measure inventory/additivity → d1: additivity rule along \"d1\", which the fact class does not aggregate\n" +
			"model: fact Sales/measure price/additivity → d1: additivity rule along \"d1\", which the fact class does not aggregate\n" +
			"model: fact Sales/sharedagg → ghost: references unknown dimension class \"ghost\"\n" +
			"schema: /goldmodel/factclasses/factclass/sharedaggs/sharedagg[1]/@dimclass: IDREF \"ghost\" does not match any ID in the document\n" +
			"schema: /goldmodel/factclasses/factclass/sharedaggs/sharedagg[1]: keyref sharedAggDimClassKey: value (ghost) does not match any dimClassKey value\n"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ts := httptest.NewServer(New(tc.model).Handler())
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
	srv := New(core.SampleSales())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	_, body, _ := get(t, ts, "/site/index.html")
	if !strings.Contains(body, "Sales DW") {
		t.Fatal("initial model missing")
	}
	srv.SetModel(core.SampleHospital())
	_, body, _ = get(t, ts, "/site/index.html")
	if !strings.Contains(body, "Hospital DW") {
		t.Error("cache not invalidated")
	}
}

func TestServerConcurrentRequests(t *testing.T) {
	srv := New(core.SampleSales())
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
	srv := New(core.SampleSales())
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
	srv := New(core.SampleSales())
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
	h := New(core.SampleSales()).Handler()
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
