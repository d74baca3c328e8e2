package server

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"sync"
	"testing"

	"goldweb/internal/artifact"
	"goldweb/internal/core"
	"goldweb/internal/cwm"
	"goldweb/internal/xmldom"
)

// viewPaths maps each XML view endpoint to its field of xmlViews.
var viewPaths = map[string]func(*xmlViews) *artifact.Artifact{
	"/model.xml":        func(v *xmlViews) *artifact.Artifact { return v.model },
	"/pretty":           func(v *xmlViews) *artifact.Artifact { return v.pretty },
	"/client/model.xml": func(v *xmlViews) *artifact.Artifact { return v.client },
	"/cwm.xmi":          func(v *xmlViews) *artifact.Artifact { return v.cwm },
}

// eagerViews is the former swap-time construction of a snapshot's XML
// views — from the frozen canonical document, the client view by cloning
// it and inserting the processing instruction — kept as the reference the
// lazily built views must reproduce byte for byte.
func eagerViews(m *core.Model) *xmlViews {
	const xmlCT = "text/xml; charset=utf-8"
	doc := m.ToXML()
	xmldom.Freeze(doc)
	return &xmlViews{
		model:  artifact.New(xmlCT, []byte(xmldom.SerializeToString(doc, xmldom.WriteOptions{}))),
		pretty: artifact.New("text/plain; charset=utf-8", []byte(xmldom.Pretty(doc))),
		client: artifact.New(xmlCT, clientModelXMLByClone(doc)),
		cwm:    artifact.New(xmlCT, []byte(cwm.ExportString(m))),
	}
}

// getView serves path through h as an identity GET.
func getView(h http.Handler, path string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	return rec
}

// TestLazyViewsMatchEagerConstruction: every XML view served from a
// view set built on first GET carries the bytes and the ETag of the
// former swap-time construction, over the example models and the
// generated model sizes.
func TestLazyViewsMatchEagerConstruction(t *testing.T) {
	for name, m := range viewTestModels(t) {
		h := New(m, WithArtifactStore(artifact.NewStore())).Handler()
		want := eagerViews(m)
		for path, field := range viewPaths {
			rec := getView(h, path)
			a := field(want)
			if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), a.Bytes()) {
				t.Errorf("%s %s: status %d, body differs from the eager view", name, path, rec.Code)
			}
			if got := rec.Header().Get("Etag"); got != a.ETag() {
				t.Errorf("%s %s: ETag %s, eager %s", name, path, got, a.ETag())
			}
		}
	}
}

// TestConcurrentFirstViewGetsDuringSwaps races first GETs of every view
// against hot swaps (run with -race). Each response must be the view of
// the generation it is labelled with, and once the swaps stop the store
// must settle to exactly the live snapshot's four views: nothing holds a
// view set built on a replaced snapshot.
func TestConcurrentFirstViewGetsDuringSwaps(t *testing.T) {
	models := []*core.Model{core.SampleSales(), core.SampleHospital()} // odd, even generations
	want := []*xmlViews{eagerViews(models[0]), eagerViews(models[1])}
	store := artifact.NewStore()
	srv := New(models[0], WithArtifactStore(store))
	h := srv.Handler()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan string, 64)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for path, field := range viewPaths {
					rec := getView(h, path)
					gen, err := strconv.Atoi(rec.Header().Get(GenerationHeader))
					if rec.Code != http.StatusOK || err != nil {
						errs <- path + ": status " + strconv.Itoa(rec.Code)
						return
					}
					if !bytes.Equal(rec.Body.Bytes(), field(want[(gen+1)%2]).Bytes()) {
						errs <- path + ": body of the wrong model for generation " + strconv.Itoa(gen)
						return
					}
				}
			}
		}()
	}
	for i := 1; i <= 40; i++ {
		srv.SetModel(models[i%2])
	}
	close(stop)
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	for path := range viewPaths {
		getView(h, path)
	}
	if got := settleLen(store, len(viewPaths)); got != len(viewPaths) {
		t.Errorf("store holds %d artifacts after the swaps, want the live snapshot's %d views", got, len(viewPaths))
	}
	runtime.KeepAlive(srv)
}

// TestReplacedSnapshotViewsLeaveTheStore: a replaced snapshot's views
// leave the store once nothing holds them; one a request still holds
// stays (the negative control).
func TestReplacedSnapshotViewsLeaveTheStore(t *testing.T) {
	store := artifact.NewStore()
	srv := New(core.SampleSales(), WithArtifactStore(store))
	h := srv.Handler()
	for path := range viewPaths {
		getView(h, path)
	}
	if got := store.Len(); got != len(viewPaths) {
		t.Fatalf("store holds %d artifacts, want the %d views", got, len(viewPaths))
	}
	held := srv.viewsFor(srv.snapshot()).model
	srv.SetModel(core.SampleHospital())
	if got := settleLen(store, 1); got != 1 {
		t.Errorf("store holds %d artifacts after the swap, want only the held /model.xml view", got)
	}
	runtime.KeepAlive(held)
	if got := settleLen(store, 0); got != 0 {
		t.Errorf("store holds %d artifacts once nothing holds the replaced views, want 0", got)
	}
	runtime.KeepAlive(srv) // a live server must not be what holds them
}
