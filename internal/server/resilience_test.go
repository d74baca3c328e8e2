package server

import (
	"context"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"goldweb/internal/core"
	"goldweb/internal/htmlgen"
)

// countingHook counts the publications the server starts.
func countingHook(n *atomic.Int64) PublishHook {
	return func(ctx context.Context, mode htmlgen.Mode, focus, page string) error {
		n.Add(1)
		return nil
	}
}

func TestUnknownFocusIs404AndNeverCached(t *testing.T) {
	var calls atomic.Int64
	srv := New(core.SampleSales(), WithPublishHook(countingHook(&calls)))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for i, path := range []string{"/single?focus=garbage", "/site/index.html?focus=zzz", "/single?focus=../../etc"} {
		code, body, _ := get(t, ts, path)
		if code != http.StatusNotFound {
			t.Errorf("request %d: status %d, want 404 (%s)", i, code, body)
		}
	}
	if got := calls.Load(); got != 0 {
		t.Errorf("publish ran %d times for garbage focus, want 0", got)
	}
	if got := srv.cache.len(); got != 0 {
		t.Errorf("cache holds %d entries after garbage focus, want 0", got)
	}

	// A real fact id still works.
	if code, _, _ := get(t, ts, "/single?focus=f1"); code != http.StatusOK {
		t.Errorf("valid focus rejected: %d", code)
	}
}

func TestSingleflightColdCacheSharesOnePublish(t *testing.T) {
	entered := make(chan struct{}, 2)
	release := make(chan struct{})
	var calls atomic.Int64
	srv := New(core.SampleSales(), WithPublishHook(
		func(ctx context.Context, mode htmlgen.Mode, focus, page string) error {
			calls.Add(1)
			entered <- struct{}{}
			<-release
			return nil
		}))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	codes := make(chan int, 2)
	fetch := func() {
		resp, err := ts.Client().Get(ts.URL + "/single")
		if err != nil {
			t.Error(err)
			codes <- 0
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		codes <- resp.StatusCode
	}
	go fetch()
	<-entered  // leader is inside publish
	go fetch() // follower joins the in-flight call
	time.Sleep(50 * time.Millisecond)
	close(release)
	for i := 0; i < 2; i++ {
		if code := <-codes; code != http.StatusOK {
			t.Errorf("request %d: status %d", i, code)
		}
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("publish ran %d times for two concurrent cold requests, want 1", got)
	}
}

func TestPanickingPublishReturns500ThenRecovers(t *testing.T) {
	var calls atomic.Int64
	srv := New(core.SampleSales(), WithPublishHook(
		func(ctx context.Context, mode htmlgen.Mode, focus, page string) error {
			if calls.Add(1) == 1 {
				panic("injected transformation fault")
			}
			return nil
		}))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	code, body, _ := get(t, ts, "/single")
	if code != http.StatusInternalServerError {
		t.Fatalf("panicking publish: status %d, want 500 (%s)", code, body)
	}
	if !strings.Contains(body, "injected transformation fault") {
		t.Errorf("500 body does not name the fault: %q", body)
	}
	// The rest of the site keeps serving, and the same page succeeds on retry.
	if code, _, _ := get(t, ts, "/schema.xsd"); code != http.StatusOK {
		t.Errorf("schema after panic: %d", code)
	}
	if code, _, _ := get(t, ts, "/single"); code != http.StatusOK {
		t.Errorf("retry after panic: %d", code)
	}
}

func TestHangingPublishTimesOutWhileSiteKeepsServing(t *testing.T) {
	hang := make(chan struct{})
	defer close(hang)
	srv := New(core.SampleSales(),
		WithRequestTimeout(100*time.Millisecond),
		WithPublishHook(func(ctx context.Context, mode htmlgen.Mode, focus, page string) error {
			if mode == htmlgen.SinglePage {
				<-hang
			}
			return nil
		}))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	code, _, _ := get(t, ts, "/single")
	if code != http.StatusGatewayTimeout {
		t.Fatalf("hanging publish: status %d, want 504", code)
	}
	// Other pages (different cache keys) are unaffected.
	if code, _, _ := get(t, ts, "/site/index.html"); code != http.StatusOK {
		t.Errorf("multi-page during hang: %d", code)
	}
	if code, _, _ := get(t, ts, "/healthz"); code != http.StatusOK {
		t.Errorf("healthz during hang: %d", code)
	}
}

func TestLimiterShedsWith503AndRetryAfter(t *testing.T) {
	entered := make(chan struct{}, 2)
	release := make(chan struct{})
	srv := New(core.SampleSales(),
		WithMaxInflight(2),
		WithRequestTimeout(0),
		WithPublishHook(func(ctx context.Context, mode htmlgen.Mode, focus, page string) error {
			entered <- struct{}{}
			<-release
			return nil
		}))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var wg sync.WaitGroup
	for _, path := range []string{"/single", "/site/index.html"} {
		wg.Add(1)
		go func(p string) {
			defer wg.Done()
			resp, err := ts.Client().Get(ts.URL + p)
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}(path)
	}
	<-entered
	<-entered // both slots are now held inside publish

	resp, err := ts.Client().Get(ts.URL + "/schema.xsd")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("saturated: status %d, want 503 (%s)", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 is missing Retry-After")
	}
	// Health endpoints bypass the limiter.
	for _, path := range []string{"/healthz", "/readyz"} {
		if code, _, _ := get(t, ts, path); code != http.StatusOK {
			t.Errorf("%s while saturated: %d", path, code)
		}
	}

	close(release)
	wg.Wait()
	if code, _, _ := get(t, ts, "/schema.xsd"); code != http.StatusOK {
		t.Errorf("after release: %d", code)
	}
}

// TestLimiterBoundsConcurrentRequests sends 8·n concurrent requests
// through withLimiter(n, …) to a handler that blocks: no more than n are
// ever inside, the other 7·n are shed at once with 503 + Retry-After,
// and after the release all n slots admit again.
func TestLimiterBoundsConcurrentRequests(t *testing.T) {
	const n = 4
	var inside, peak atomic.Int64
	entered := make(chan struct{}, 8*n) // one send per admitted request
	var gate atomic.Pointer[chan struct{}]
	h := withLimiter(n, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		cur := inside.Add(1)
		for p := peak.Load(); cur > p && !peak.CompareAndSwap(p, cur); p = peak.Load() {
		}
		entered <- struct{}{}
		<-*gate.Load()
		inside.Add(-1)
	}))
	// burst sends requests at once and holds the admitted ones until
	// want have entered and every other request has been answered.
	burst := func(requests, want int) (admitted, shed int) {
		release := make(chan struct{})
		gate.Store(&release)
		recs := make([]*httptest.ResponseRecorder, requests)
		answered := make(chan struct{}, requests)
		var wg sync.WaitGroup
		for i := range recs {
			recs[i] = httptest.NewRecorder()
			wg.Add(1)
			go func(rec *httptest.ResponseRecorder) {
				defer wg.Done()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/", nil))
				answered <- struct{}{}
			}(recs[i])
		}
		timeout := time.After(10 * time.Second)
		for in, out := 0, 0; in < want || out < requests-want; {
			select {
			case <-entered:
				in++
			case <-answered:
				out++
			case <-timeout:
				close(release)
				wg.Wait()
				t.Fatalf("%d requests: %d entered and %d answered, want %d entered and the rest answered", requests, in, out, want)
			}
		}
		close(release)
		wg.Wait()
		for _, rec := range recs {
			switch {
			case rec.Code == http.StatusOK:
				admitted++
			case rec.Code == http.StatusServiceUnavailable && rec.Header().Get("Retry-After") == "1":
				shed++
			default:
				t.Errorf("status %d, Retry-After %q", rec.Code, rec.Header().Get("Retry-After"))
			}
		}
		return admitted, shed
	}
	if admitted, shed := burst(8*n, n); admitted != n || shed != 7*n {
		t.Errorf("burst of %d: %d admitted, %d shed; want %d and %d", 8*n, admitted, shed, n, 7*n)
	}
	if p := peak.Load(); p > n {
		t.Errorf("%d requests inside at once, limit %d", p, n)
	}
	if admitted, shed := burst(n, n); admitted != n || shed != 0 {
		t.Errorf("after release, burst of %d: %d admitted, %d shed; want all admitted", n, admitted, shed)
	}
}

func TestCacheIsBoundedLRU(t *testing.T) {
	var calls atomic.Int64
	srv := New(core.SampleSales(),
		WithCacheSize(1),
		WithPublishHook(countingHook(&calls)))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	get(t, ts, "/single")          // miss → publish #1
	get(t, ts, "/single")          // hit
	get(t, ts, "/site/index.html") // miss → publish #2, evicts /single
	get(t, ts, "/single")          // miss again → publish #3
	if got := calls.Load(); got != 3 {
		t.Errorf("publish count %d, want 3 (size-1 LRU must evict)", got)
	}
	if got := srv.cache.len(); got != 1 {
		t.Errorf("cache length %d, want 1", got)
	}
}

func TestMethodFiltering(t *testing.T) {
	srv := New(core.SampleSales())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := ts.Client().Post(ts.URL+"/single", "text/plain", strings.NewReader("x"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST: status %d, want 405", resp.StatusCode)
	}
	if allow := resp.Header.Get("Allow"); !strings.Contains(allow, "GET") {
		t.Errorf("Allow header %q", allow)
	}

	req, _ := http.NewRequest(http.MethodHead, ts.URL+"/schema.xsd", nil)
	resp, err = ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("HEAD: status %d", resp.StatusCode)
	}
}

func TestHealthEndpoints(t *testing.T) {
	srv := New(core.SampleSales())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	code, body, _ := get(t, ts, "/healthz")
	if code != http.StatusOK || !strings.Contains(body, "ok") {
		t.Errorf("healthz: %d %q", code, body)
	}
	code, body, _ = get(t, ts, "/readyz")
	if code != http.StatusOK || !strings.Contains(body, "ready") {
		t.Errorf("readyz: %d %q", code, body)
	}
}

func TestContentTypesForNonHTMLAssets(t *testing.T) {
	for page, want := range map[string]string{
		"model.xml":  "text/xml",
		"sheet.xsl":  "text/xml",
		"style.css":  "text/css",
		"index.html": "text/html",
		"blob.bin":   "application/octet-stream",
	} {
		if got := contentType(page); !strings.Contains(got, want) {
			t.Errorf("contentType(%q) = %q, want %q", page, got, want)
		}
	}
}

// TestConcurrentRequestsDuringModelSwaps is the -race hammer: every
// endpoint under parallel load while SetModel flips the published model.
func TestConcurrentRequestsDuringModelSwaps(t *testing.T) {
	srv := New(core.SampleSales())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	paths := []string{
		"/site/index.html", "/single", "/model.xml", "/pretty",
		"/schema.xsd", "/validate", "/cwm.xmi", "/client/model.xml",
		"/healthz",
	}
	stop := make(chan struct{})
	var swapper sync.WaitGroup
	swapper.Add(1)
	go func() {
		defer swapper.Done()
		models := []*core.Model{core.SampleHospital(), core.SampleSales()}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
				srv.SetModel(models[i%2])
				time.Sleep(time.Millisecond)
			}
		}
	}()

	var wg sync.WaitGroup
	errs := make(chan error, 256)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				p := paths[(w+i)%len(paths)]
				resp, err := ts.Client().Get(ts.URL + p)
				if err != nil {
					errs <- err
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- errStatus(p, resp.StatusCode)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	swapper.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

type statusErr struct {
	path string
	code int
}

func (e statusErr) Error() string { return e.path + ": status " + http.StatusText(e.code) }

func errStatus(path string, code int) error { return statusErr{path, code} }

func TestGracefulShutdown(t *testing.T) {
	srv := New(core.SampleSales())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- srv.ServeListener(ctx, ln) }()

	url := "http://" + ln.Addr().String()
	var resp *http.Response
	for i := 0; i < 50; i++ {
		resp, err = http.Get(url + "/healthz")
		if err == nil {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("server never came up: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	cancel()
	select {
	case err := <-served:
		if err != nil {
			t.Errorf("shutdown returned %v, want nil", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("server did not shut down within 5s")
	}
}

// discardResponse is a ResponseWriter that throws everything away; the
// header map is allocated once so warm-hit allocation counts measure the
// server, not the test harness.
type discardResponse struct{ h http.Header }

func (d *discardResponse) Header() http.Header         { return d.h }
func (d *discardResponse) WriteHeader(int)             {}
func (d *discardResponse) Write(p []byte) (int, error) { return len(p), nil }

// TestWarmHitAllocations pins the per-request allocation budget of the
// hot cached paths at zero. A warm pageFor lookup — /single, a /site/
// page answered by the Stage probe, a /site/ page entry, focused or not
// — allocates nothing, and neither does a whole ServeApp pass over a
// warm page, the static stylesheet or a built XML view: no request copy,
// no response buffer, no timer. Through the full Handler stack the only
// extra cost is what the root http.ServeMux's match costs, and parsing a
// ?focus= query.
func TestWarmHitAllocations(t *testing.T) {
	m := core.SampleSales()
	focus := m.Facts[0].ID
	srv := NewEmpty()
	st, err := stageCanonical(context.Background(), srv, m)
	if err != nil {
		t.Fatal(err)
	}
	st.Commit()
	snap := srv.snapshot()
	for _, read := range []struct {
		mode        htmlgen.Mode
		focus, page string
	}{
		{htmlgen.SinglePage, "", htmlgen.IndexName},
		{htmlgen.SinglePage, focus, htmlgen.IndexName},
		{htmlgen.MultiPage, "", htmlgen.IndexName},
		{htmlgen.MultiPage, focus, htmlgen.IndexName},
	} {
		// The first read warms the cache (a page entry, or the probe).
		if a, err := srv.pageFor(snap, read.mode, read.focus, read.page); err != nil || a == nil {
			t.Fatalf("%v focus %q: %v, %v", read.mode, read.focus, a, err)
		}
		if allocs := testing.AllocsPerRun(200, func() {
			if _, err := srv.pageFor(snap, read.mode, read.focus, read.page); err != nil {
				t.Fatal(err)
			}
		}); allocs > 0 {
			t.Errorf("warm pageFor(%v, %q, %s): %.1f allocs/op, want 0", read.mode, read.focus, read.page, allocs)
		}
	}

	warm := func(h http.Handler, path string) float64 {
		t.Helper()
		req, err := http.NewRequest(http.MethodGet, path, nil)
		if err != nil {
			t.Fatal(err)
		}
		w := &discardResponse{h: make(http.Header)}
		h.ServeHTTP(w, req) // warm-up: build the page entry or the view
		return testing.AllocsPerRun(200, func() {
			clear(w.h)
			h.ServeHTTP(w, req)
		})
	}
	app := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		srv.ServeApp(w, r, r.URL.Path)
	})
	for _, path := range []string{
		"/site/index.html", "/single", "/style.css",
		"/model.xml", "/pretty", "/client/model.xml", "/cwm.xmi",
	} {
		if allocs := warm(app, path); allocs > 0 {
			t.Errorf("warm ServeApp %s: %.1f allocs/op, want 0", path, allocs)
		}
	}
	// The full stack adds recovery, the method check, the direct route
	// and the limiter, none of which allocates; a ?focus= query is read
	// without building a map.
	h := srv.Handler()
	for _, path := range []string{
		"/site/index.html", "/site/index.html?focus=" + focus, "/single", "/single?focus=" + focus,
		"/model.xml", "/pretty", "/client/model.xml", "/cwm.xmi",
	} {
		if allocs := warm(h, path); allocs > 0 {
			t.Errorf("warm GET %s: %.1f allocs/op, want 0", path, allocs)
		}
	}
}
