package server

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"goldweb/internal/core"
	"goldweb/internal/htmlgen"
)

// TestShutdownCancelsInflightPublish is the regression test for the
// publish-goroutine leak: a publication hanging inside the pipeline
// while Serve(ctx) shuts down must be canceled (its context fires) and
// awaited (the publication WaitGroup drains) instead of leaking.
func TestShutdownCancelsInflightPublish(t *testing.T) {
	entered := make(chan struct{})
	released := make(chan struct{})
	srv := newServer(t, core.SampleSales(), Config{
		RequestTimeout: -1, // no request timeout: only shutdown can stop the publish
		PublishHook: func(ctx context.Context, mode htmlgen.Mode, focus, page string) error {
			if page == "" {
				return nil // New's shadow publish
			}
			close(entered)
			<-ctx.Done() // a context-aware pipeline stops here
			close(released)
			return ctx.Err()
		},
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- srv.ServeListener(ctx, ln) }()

	// Fire a request that blocks inside the publish; don't wait for it.
	go func() {
		resp, err := http.Get("http://" + ln.Addr().String() + "/single")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("publish never entered")
	}

	cancel()
	select {
	case err := <-served:
		if err != nil {
			t.Errorf("shutdown returned %v, want nil (publish must drain)", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("server did not shut down while a publish was in flight")
	}
	select {
	case <-released:
	case <-time.After(time.Second):
		t.Fatal("publish context was never canceled: goroutine leaked")
	}
	// The WaitGroup must have drained by the time Serve returned.
	drainCtx, dcancel := context.WithTimeout(context.Background(), time.Second)
	defer dcancel()
	if !srv.awaitPublishes(drainCtx) {
		t.Error("publication goroutines still alive after shutdown")
	}
}

// TestShedAndTimeoutResponsesAreConsistent pins the error-response
// contract: both the 503 load shed and the 504 timeout carry
// Retry-After, and both answer with a JSON body when the client sends
// Accept: application/json.
func TestShedAndTimeoutResponsesAreConsistent(t *testing.T) {
	entered := make(chan struct{}, 8)
	release := make(chan struct{})
	defer close(release)
	srv := newServer(t, core.SampleSales(), Config{
		MaxInflight:    1,
		RequestTimeout: 100 * time.Millisecond,
		PublishHook: func(ctx context.Context, mode htmlgen.Mode, focus, page string) error {
			if page == "" {
				return nil // New's shadow publish
			}
			entered <- struct{}{}
			// Hang until the test ends: every publish deterministically
			// outlives the request timeout.
			<-release
			return errors.New("released")
		},
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Occupy the only slot.
	slow := make(chan struct{})
	go func() {
		defer close(slow)
		resp, err := ts.Client().Get(ts.URL + "/single")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	<-entered

	check := func(name string, resp *http.Response, wantCode int) {
		t.Helper()
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != wantCode {
			t.Fatalf("%s: status %d, want %d (%s)", name, resp.StatusCode, wantCode, body)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Errorf("%s: missing Retry-After", name)
		}
		if !strings.Contains(resp.Header.Get("Content-Type"), "application/json") {
			t.Errorf("%s: content type %q, want JSON", name, resp.Header.Get("Content-Type"))
		}
		var payload struct {
			Error  string `json:"error"`
			Status int    `json:"status"`
		}
		if err := json.Unmarshal(body, &payload); err != nil {
			t.Errorf("%s: body %q is not JSON: %v", name, body, err)
		} else if payload.Status != wantCode || payload.Error == "" {
			t.Errorf("%s: payload %+v", name, payload)
		}
	}

	// 503: the limiter slot is held, a JSON-accepting client is shed.
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/schema.xsd", nil)
	req.Header.Set("Accept", "application/json")
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	check("503 shed", resp, http.StatusServiceUnavailable)
	<-slow // first request 504s once its timeout fires, freeing the slot

	// 504: a fresh hanging publish times out for a JSON-accepting client.
	req, _ = http.NewRequest(http.MethodGet, ts.URL+"/single?focus=f1", nil)
	req.Header.Set("Accept", "application/json")
	resp, err = ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	check("504 timeout", resp, http.StatusGatewayTimeout)

	// Plain clients still get text bodies. The unfocused site is New's
	// staged probe, so read a page it does not hold.
	resp, err = ts.Client().Get(ts.URL + "/site/f1.html?focus=f1")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("plain 504: status %d (%s)", resp.StatusCode, body)
	}
	if strings.Contains(resp.Header.Get("Content-Type"), "json") {
		t.Errorf("plain client got JSON: %q", resp.Header.Get("Content-Type"))
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("plain 504 missing Retry-After")
	}
}

// TestTransientPublishFailureIsNotCached covers the publication LRU
// under an intermittently failing publication: a transient error must
// not be cached, must not poison the generation key (the same key
// succeeds on retry), and the failure must not occupy an LRU slot.
func TestTransientPublishFailureIsNotCached(t *testing.T) {
	var calls atomic.Int64
	injected := errors.New("transient backend wobble")
	srv := newServer(t, core.SampleSales(), Config{
		CacheSize: 4,
		PublishHook: func(ctx context.Context, mode htmlgen.Mode, focus, page string) error {
			if page != "" && calls.Add(1) == 1 {
				return injected
			}
			return nil
		},
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	code, body, _ := get(t, ts, "/single")
	if code != http.StatusInternalServerError || !strings.Contains(body, "wobble") {
		t.Fatalf("transient failure: %d %q", code, body)
	}
	if got := srv.cache.len(); got != 1 {
		t.Fatalf("cache holds %d entries after a failed publish, want only the staged site", got)
	}

	// Retry under the SAME generation key must republish and succeed.
	if code, _, _ := get(t, ts, "/single"); code != http.StatusOK {
		t.Fatalf("retry after transient failure: %d", code)
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("publish calls = %d, want 2 (failure must not be cached)", got)
	}
	if got := srv.cache.len(); got != 2 {
		t.Fatalf("cache length %d after recovery, want 2 (the staged site and /single)", got)
	}
	// Third hit is warm: no new publish.
	if code, _, _ := get(t, ts, "/single"); code != http.StatusOK {
		t.Fatal("warm hit failed")
	}
	if got := calls.Load(); got != 2 {
		t.Errorf("warm hit republished (calls=%d)", got)
	}

	// A model swap bumps the generation; the old failure leaves no trace.
	commitCanonical(t, srv, core.SampleHospital())
	if code, body, _ := get(t, ts, "/single"); code != http.StatusOK || !strings.Contains(body, "Hospital") {
		t.Errorf("post-swap publish: %d %.80s", code, body)
	}
}

// TestStagedSwapCommitAndRollback exercises the staged swap surface
// the catalog builds on: Stage verifies without touching the live
// snapshot, Commit installs atomically with a generation bump, and a
// failed Stage leaves the old state fully intact (it returns no stage).
func TestStagedSwapCommitAndRollback(t *testing.T) {
	srv := newServer(t, core.SampleSales(), Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	gen0 := srv.Generation()

	// A failing stage: invalid model (dangling dimension reference in
	// the document). Its validation reports the keyref violation, and
	// Stage refuses a document with errors.
	bad := core.SampleSales()
	bad.Facts[0].SharedAggs[0].DimClass = "ghost"
	if _, err := stageCanonical(context.Background(), srv, bad); err == nil {
		t.Fatal("staging an invalid model succeeded")
	}
	if got := srv.Generation(); got != gen0 {
		t.Fatalf("failed stage bumped generation %d → %d", gen0, got)
	}
	if _, body, _ := get(t, ts, "/site/index.html"); !strings.Contains(body, "Sales DW") {
		t.Fatal("failed stage disturbed the live snapshot")
	}

	// A canceled stage also leaves no trace.
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := stageCanonical(canceled, srv, core.SampleHospital()); err == nil {
		t.Fatal("staging under a canceled context succeeded")
	}
	if got := srv.Generation(); got != gen0 {
		t.Fatalf("canceled stage bumped generation to %d", got)
	}

	// A good stage + commit swaps atomically and bumps the generation.
	st, err := stageCanonical(context.Background(), srv, core.SampleHospital())
	if err != nil {
		t.Fatal(err)
	}
	// Not installed until Commit.
	if _, body, _ := get(t, ts, "/site/index.html"); !strings.Contains(body, "Sales DW") {
		t.Fatal("stage installed before commit")
	}
	gen1 := st.Commit()
	if gen1 <= gen0 {
		t.Fatalf("commit generation %d not past %d", gen1, gen0)
	}
	code, body, _ := get(t, ts, "/site/index.html")
	if code != http.StatusOK || !strings.Contains(body, "Hospital DW") {
		t.Fatalf("post-commit site: %d %.80s", code, body)
	}
}

// stageCanonical stages a model built in Go from its canonical document.
func stageCanonical(ctx context.Context, srv *Server, m *core.Model) (*StagedModel, error) {
	return srv.Stage(ctx, m, core.ValidateAndFreeze(m.ToXML()))
}

// newServer creates a server for m, failing the test if New refuses it.
func newServer(t testing.TB, m *core.Model, cfg Config) *Server {
	t.Helper()
	srv, err := New(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// commitCanonical stages m and commits it, returning the new generation.
// It reports a refused stage with t.Error, so a swapper goroutine may
// call it.
func commitCanonical(t testing.TB, srv *Server, m *core.Model) uint64 {
	t.Helper()
	st, err := stageCanonical(context.Background(), srv, m)
	if err != nil {
		t.Error(err)
		return 0
	}
	return st.Commit()
}

// TestGenerationHeaderIsMonotonic asserts the serving contract the
// chaos soak leans on: every snapshot-derived response carries the
// generation it was served from, and a client never observes a
// regression across swaps.
func TestGenerationHeaderIsMonotonic(t *testing.T) {
	srv := newServer(t, core.SampleSales(), Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	last := uint64(0)
	models := []*core.Model{core.SampleHospital(), core.SampleSales()}
	for i := 0; i < 6; i++ {
		resp, err := ts.Client().Get(ts.URL + "/model.xml")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		h := resp.Header.Get(GenerationHeader)
		gen, err := strconv.ParseUint(h, 10, 64)
		if err != nil {
			t.Fatalf("bad %s header %q: %v", GenerationHeader, h, err)
		}
		if gen < last {
			t.Fatalf("generation regressed %d → %d", last, gen)
		}
		last = gen
		commitCanonical(t, srv, models[i%2])
	}
	if last < 6 {
		t.Errorf("final generation %d, want >= 6 after 6 swaps", last)
	}
}

// TestEmptyServerAnswers503UntilFirstPublish covers NewEmpty: an entry
// whose first load keeps failing is addressable but not ready.
func TestEmptyServerAnswers503UntilFirstPublish(t *testing.T) {
	srv := NewEmpty(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for _, p := range []string{"/site/index.html", "/single", "/model.xml", "/pretty", "/validate", "/cwm.xmi"} {
		resp, err := ts.Client().Get(ts.URL + p)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("%s on empty server: %d, want 503", p, resp.StatusCode)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Errorf("%s: empty-server 503 missing Retry-After", p)
		}
	}
	if srv.Ready() {
		t.Error("empty server claims ready")
	}

	st, err := stageCanonical(context.Background(), srv, core.SampleSales())
	if err != nil {
		t.Fatal(err)
	}
	st.Commit()
	if code, _, _ := get(t, ts, "/site/index.html"); code != http.StatusOK {
		t.Errorf("after first commit: %d", code)
	}
	if !srv.Ready() {
		t.Error("server not ready after first commit")
	}
}

// TestReadyzStaysReadyAcrossCommits: readiness is "a snapshot is live",
// so /readyz answers 200 while Stage prepares a replacement and Commit
// installs it — the old snapshot keeps serving the whole time.
func TestReadyzStaysReadyAcrossCommits(t *testing.T) {
	srv := newServer(t, core.SampleSales(), Config{})
	h := srv.Handler()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for range 20 {
			commitCanonical(t, srv, core.SampleSales())
		}
	}()
	for {
		select {
		case <-done:
			return
		default:
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/readyz", nil))
		if rec.Code != http.StatusOK || !srv.Ready() {
			<-done
			t.Fatalf("/readyz during a swap on a live server: %d %q", rec.Code, rec.Body)
		}
	}
}
