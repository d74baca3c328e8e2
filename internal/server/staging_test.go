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
	srv := New(core.SampleSales(),
		WithRequestTimeout(0), // no request timeout: only shutdown can stop the publish
		WithPublishHook(func(ctx context.Context, mode htmlgen.Mode, focus, page string) error {
			close(entered)
			<-ctx.Done() // a context-aware pipeline stops here
			close(released)
			return ctx.Err()
		}))
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
	srv := New(core.SampleSales(),
		WithMaxInflight(1),
		WithRequestTimeout(100*time.Millisecond),
		WithPublishHook(func(ctx context.Context, mode htmlgen.Mode, focus, page string) error {
			entered <- struct{}{}
			// Hang until the test ends: every publish deterministically
			// outlives the request timeout.
			<-release
			return errors.New("released")
		}))
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

	// Plain clients still get text bodies.
	resp, err = ts.Client().Get(ts.URL + "/site/index.html")
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
	srv := New(core.SampleSales(),
		WithCacheSize(4),
		WithPublishHook(func(ctx context.Context, mode htmlgen.Mode, focus, page string) error {
			if calls.Add(1) == 1 {
				return injected
			}
			return nil
		}))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	code, body, _ := get(t, ts, "/single")
	if code != http.StatusInternalServerError || !strings.Contains(body, "wobble") {
		t.Fatalf("transient failure: %d %q", code, body)
	}
	if got := srv.cache.len(); got != 0 {
		t.Fatalf("cache holds %d entries after a failed publish, want 0", got)
	}

	// Retry under the SAME generation key must republish and succeed.
	if code, _, _ := get(t, ts, "/single"); code != http.StatusOK {
		t.Fatalf("retry after transient failure: %d", code)
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("publish calls = %d, want 2 (failure must not be cached)", got)
	}
	if got := srv.cache.len(); got != 1 {
		t.Fatalf("cache length %d after recovery, want 1", got)
	}
	// Third hit is warm: no new publish.
	if code, _, _ := get(t, ts, "/single"); code != http.StatusOK {
		t.Fatal("warm hit failed")
	}
	if got := calls.Load(); got != 2 {
		t.Errorf("warm hit republished (calls=%d)", got)
	}

	// A model swap bumps the generation; the old failure leaves no trace.
	srv.SetModel(core.SampleHospital())
	if code, body, _ := get(t, ts, "/single"); code != http.StatusOK || !strings.Contains(body, "Hospital") {
		t.Errorf("post-swap publish: %d %.80s", code, body)
	}
}

// TestStagedSwapCommitAndRollback exercises the staged swap surface
// the catalog builds on: Stage verifies without touching the live
// snapshot, Commit installs atomically with a generation bump, and a
// failed Stage leaves the old state fully intact (it returns no stage).
func TestStagedSwapCommitAndRollback(t *testing.T) {
	srv := New(core.SampleSales())
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

// TestGenerationHeaderIsMonotonic asserts the serving contract the
// chaos soak leans on: every snapshot-derived response carries the
// generation it was served from, and a client never observes a
// regression across swaps.
func TestGenerationHeaderIsMonotonic(t *testing.T) {
	srv := New(core.SampleSales())
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
		srv.SetModel(models[i%2])
	}
	if last < 6 {
		t.Errorf("final generation %d, want >= 6 after 6 swaps", last)
	}
}

// TestStaleMarkingSetsHeaders covers the graceful-degradation headers:
// a server marked stale serves its last-good content with Warning and
// X-Goldweb-Stale until the marking is cleared.
func TestStaleMarkingSetsHeaders(t *testing.T) {
	srv := New(core.SampleSales())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, _ := ts.Client().Get(ts.URL + "/model.xml")
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.Header.Get(StaleHeader) != "" || resp.Header.Get("Warning") != "" {
		t.Fatal("fresh server claims staleness")
	}

	srv.MarkStale("reload failing: injected")
	resp, _ = ts.Client().Get(ts.URL + "/model.xml")
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "<goldmodel") {
		t.Fatalf("stale server stopped serving: %d", resp.StatusCode)
	}
	if got := resp.Header.Get(StaleHeader); !strings.Contains(got, "injected") {
		t.Errorf("%s = %q", StaleHeader, got)
	}
	if got := resp.Header.Get("Warning"); !strings.Contains(got, "110") {
		t.Errorf("Warning = %q", got)
	}

	srv.ClearStale()
	resp, _ = ts.Client().Get(ts.URL + "/model.xml")
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.Header.Get(StaleHeader) != "" {
		t.Error("stale header survives ClearStale")
	}
}

// TestEmptyServerAnswers503UntilFirstPublish covers NewEmpty: an entry
// whose first load keeps failing is addressable but not ready.
func TestEmptyServerAnswers503UntilFirstPublish(t *testing.T) {
	srv := NewEmpty()
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

// TestReadyzStaysReadyAcrossSetModel: readiness is "a snapshot is live",
// so /readyz answers 200 while SetModel prepares a replacement — the old
// snapshot keeps serving the whole time.
func TestReadyzStaysReadyAcrossSetModel(t *testing.T) {
	srv := New(core.SampleSales())
	h := srv.Handler()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for range 20 {
			srv.SetModel(core.SampleSales())
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
			t.Fatalf("/readyz during SetModel on a live server: %d %q", rec.Code, rec.Body)
		}
	}
}
