package server

import (
	"context"
	"encoding/json"
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

// serve runs one request through h and returns its recorded response.
func serve(h http.Handler, path, accept string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodGet, path, nil)
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// TestFlightHungPublicationTimesOutThenCaches: a request stops waiting
// for a hung publication at the request timeout with a retryable 504,
// while the publication runs on. Once it finishes it has cached its
// page, so the retry is a warm 200 and the page was published once.
func TestFlightHungPublicationTimesOutThenCaches(t *testing.T) {
	release := make(chan struct{})
	var singles atomic.Int64
	srv := New(core.SampleSales(),
		WithRequestTimeout(50*time.Millisecond),
		WithPublishHook(func(ctx context.Context, mode htmlgen.Mode, focus, page string) error {
			if mode == htmlgen.SinglePage && focus == "" && page == htmlgen.IndexName {
				singles.Add(1)
				<-release
			}
			return nil
		}))
	defer srv.Close()
	h := srv.Handler()

	rec := serve(h, "/single", "application/json")
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("hung publication: status %d, want 504 (%s)", rec.Code, rec.Body)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("504 without Retry-After")
	}
	var payload struct {
		Error  string `json:"error"`
		Status int    `json:"status"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &payload); err != nil || payload.Status != http.StatusGatewayTimeout {
		t.Errorf("504 JSON body %q: %+v, %v", rec.Body, payload, err)
	}
	// A plain client joins the same hung publication and gets a text 504.
	rec = serve(h, "/single", "")
	if rec.Code != http.StatusGatewayTimeout || strings.Contains(rec.Header().Get("Content-Type"), "json") {
		t.Fatalf("plain 504: status %d, content type %q", rec.Code, rec.Header().Get("Content-Type"))
	}

	close(release)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if !srv.awaitPublishes(ctx) {
		t.Fatal("released publication never finished")
	}
	if rec := serve(h, "/single", ""); rec.Code != http.StatusOK {
		t.Fatalf("retry after release: status %d (%s)", rec.Code, rec.Body)
	}
	if got := singles.Load(); got != 1 {
		t.Errorf("/single published %d times, want 1 (the retry must be a cache hit)", got)
	}
}

// TestFlightPanicFailsEveryWaiter: a panic on a detached publication's
// goroutine is recovered there and reaches the caller that started it
// and the callers that joined it as a 500 naming the panic; the process
// survives and the next request publishes afresh.
func TestFlightPanicFailsEveryWaiter(t *testing.T) {
	entered := make(chan struct{})
	release := make(chan struct{})
	var calls atomic.Int64
	srv := New(core.SampleSales(), WithPublishHook(
		func(ctx context.Context, mode htmlgen.Mode, focus, page string) error {
			if calls.Add(1) == 1 {
				close(entered)
				<-release
				panic("injected publication fault")
			}
			return nil
		}))
	defer srv.Close()
	h := srv.Handler()

	const followers = 4
	codes := make(chan *httptest.ResponseRecorder, 1+followers)
	var wg sync.WaitGroup
	fetch := func() {
		defer wg.Done()
		codes <- serve(h, "/single", "")
	}
	wg.Add(1)
	go fetch()
	<-entered // the first caller's publication is in the hook
	for i := 0; i < followers; i++ {
		wg.Add(1)
		go fetch()
	}
	time.Sleep(50 * time.Millisecond) // let the followers join the call
	close(release)
	wg.Wait()
	close(codes)

	failed := 0
	for rec := range codes {
		switch rec.Code {
		case http.StatusInternalServerError:
			failed++
			if !strings.Contains(rec.Body.String(), "injected publication fault") {
				t.Errorf("500 body does not name the panic: %q", rec.Body)
			}
		case http.StatusOK: // arrived after the failed call ended
		default:
			t.Errorf("status %d, want 500 or 200 (%s)", rec.Code, rec.Body)
		}
	}
	if failed < 2 {
		t.Errorf("%d callers got the panic's 500, want the first caller and at least one follower", failed)
	}
	if rec := serve(h, "/single", ""); rec.Code != http.StatusOK {
		t.Errorf("request after the panic: status %d (%s)", rec.Code, rec.Body)
	}
}

// TestFlightCloseAwaitsDetachedPublication: a request that gave up on
// a publication leaves it running; Close cancels its context and returns
// only after the publication goroutine has exited.
func TestFlightCloseAwaitsDetachedPublication(t *testing.T) {
	var exited atomic.Bool
	srv := New(core.SampleSales(),
		WithRequestTimeout(20*time.Millisecond),
		WithPublishHook(func(ctx context.Context, mode htmlgen.Mode, focus, page string) error {
			if page == "" {
				return nil
			}
			<-ctx.Done()
			time.Sleep(20 * time.Millisecond) // a slow unwind Close must wait out
			exited.Store(true)
			return ctx.Err()
		}))
	if rec := serve(srv.Handler(), "/single", ""); rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("blocked publication: status %d, want 504 (%s)", rec.Code, rec.Body)
	}
	if exited.Load() {
		t.Fatal("publication exited before Close canceled it")
	}
	srv.Close()
	if !exited.Load() {
		t.Error("Close returned while the detached publication was still running")
	}
}
