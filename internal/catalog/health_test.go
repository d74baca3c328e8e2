package catalog

import (
	"context"
	"errors"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"goldweb/internal/htmlgen"
)

// fakeClock is an injectable clock for breaker tests.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// healthRig is a retry-less catalog on a fake clock whose shadow
// publish fails while fail is set and, while hold is set, blocks until
// release is closed after signalling entered.
type healthRig struct {
	c       *Catalog
	clk     *fakeClock
	src     []byte
	fail    atomic.Bool
	hold    atomic.Bool
	entered chan struct{}
	// publishes counts shadow publishes, the attempts that reached the
	// pipeline's publish stage.
	publishes atomic.Int32
	release   chan struct{}
}

func newHealthRig(t *testing.T, threshold int, cooldown time.Duration) *healthRig {
	r := &healthRig{
		clk:     &fakeClock{t: time.Unix(1_000_000, 0)},
		src:     modelSource(t, "Sales DW"),
		entered: make(chan struct{}, 1),
		release: make(chan struct{}),
	}
	r.c = New(Options{
		DisableRetry:     true,
		BreakerThreshold: threshold,
		BreakerCooldown:  cooldown,
		Now:              r.clk.now,
		PublishHook: func(ctx context.Context, _ htmlgen.Mode, _, page string) error {
			if page != "" {
				return nil
			}
			r.publishes.Add(1)
			if r.hold.Load() {
				r.entered <- struct{}{}
				select {
				case <-r.release:
				case <-ctx.Done():
				}
			}
			if r.fail.Load() {
				return errors.New("pipeline down")
			}
			return nil
		},
	})
	t.Cleanup(r.c.Close)
	return r
}

func (r *healthRig) set() error { return r.c.Set(context.Background(), "m", r.src) }

// failN runs n attempts through the failing pipeline, each of which must
// reach it.
func (r *healthRig) failN(t *testing.T, n int) {
	t.Helper()
	r.fail.Store(true)
	for i := 0; i < n; i++ {
		if err := r.set(); err == nil || errors.Is(err, ErrBreakerOpen) {
			t.Fatalf("failing attempt %d: err = %v, want a pipeline failure", i+1, err)
		}
	}
}

func TestBreakerOpensAfterThresholdConsecutiveFailures(t *testing.T) {
	r := newHealthRig(t, 3, time.Minute)
	r.failN(t, 2)
	if st := statusOf(t, r.c, "m"); st.Breaker != "closed" || st.Failures != 2 {
		t.Fatalf("status after 2 failures = %+v, want closed", st)
	}
	r.failN(t, 1) // the third consecutive failure trips the circuit
	if st := statusOf(t, r.c, "m"); st.Breaker != "open" || st.Failures != 3 {
		t.Fatalf("status after 3 failures = %+v, want open", st)
	}
	r.clk.advance(20 * time.Second)
	err := r.set()
	if !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("open circuit admitted an attempt before the cooldown: %v", err)
	}
	if want := `circuit breaker open: model "m" (cooling down 40s)`; err.Error() != want {
		t.Fatalf("rejection = %q, want %q", err, want)
	}
	if st := statusOf(t, r.c, "m"); st.Failures != 3 {
		t.Fatalf("a rejected attempt counted as a failure: %+v", st)
	}
}

func TestBreakerSuccessResetsConsecutiveCount(t *testing.T) {
	r := newHealthRig(t, 3, time.Minute)
	r.failN(t, 2)
	r.fail.Store(false)
	if err := r.set(); err != nil {
		t.Fatalf("good Set: %v", err)
	}
	r.failN(t, 2)
	if st := statusOf(t, r.c, "m"); st.Breaker != "closed" || st.Failures != 2 {
		t.Fatalf("status = %+v, want closed with 2 failures (success resets the count)", st)
	}
}

// TestBreakerHalfOpenAdmitsExactlyOneProbe holds the probe inside its
// shadow publish: Status reports the circuit half-open meanwhile, and a
// concurrent Set never reaches the pipeline as a second probe. It waits
// behind the probe, and once the probe fails it meets the re-opened
// circuit.
func TestBreakerHalfOpenAdmitsExactlyOneProbe(t *testing.T) {
	r := newHealthRig(t, 1, time.Minute)
	r.failN(t, 1)
	if err := r.set(); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("open circuit admitted an attempt: %v", err)
	}
	r.clk.advance(2 * time.Minute)
	r.hold.Store(true)
	before := r.publishes.Load()
	probe := make(chan error, 1)
	go func() { probe <- r.set() }()
	<-r.entered
	r.hold.Store(false)
	if st := statusOf(t, r.c, "m"); st.Breaker != "half-open" || st.Failures != 1 {
		t.Errorf("status during the probe = %+v, want half-open", st)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	err := r.c.Set(ctx, "m", r.src)
	cancel()
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Set during the probe err = %v, want a swap wait cut short", err)
	}
	second := make(chan error, 1)
	go func() { second <- r.set() }()
	close(r.release)
	if err := <-probe; err == nil || errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("probe err = %v, want a pipeline failure", err)
	}
	if err := <-second; !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("concurrent Set err = %v, want ErrBreakerOpen", err)
	}
	if n := r.publishes.Load() - before; n != 1 {
		t.Fatalf("%d attempts reached the pipeline, want the one probe", n)
	}

	// The next probe succeeds and closes the circuit.
	r.clk.advance(2 * time.Minute)
	r.fail.Store(false)
	if err := r.set(); err != nil {
		t.Fatalf("second probe: %v", err)
	}
	if st := statusOf(t, r.c, "m"); st.Breaker != "closed" || st.Failures != 0 || st.Generation != 1 {
		t.Fatalf("status after the probe = %+v, want closed at generation 1", st)
	}
}

func TestBreakerHalfOpenFailureReopensImmediately(t *testing.T) {
	r := newHealthRig(t, 5, time.Minute)
	r.failN(t, 5)
	r.clk.advance(time.Minute)
	r.failN(t, 1) // one probe failure, not five, re-opens
	if st := statusOf(t, r.c, "m"); st.Breaker != "open" || st.Failures != 6 {
		t.Fatalf("status after the failed probe = %+v, want open", st)
	}
	err := r.set()
	if !errors.Is(err, ErrBreakerOpen) || !strings.HasSuffix(err.Error(), "(cooling down 1m0s)") {
		t.Fatalf("after the failed probe err = %v, want a full fresh cooldown", err)
	}
}

func TestBreakerDisabledAlwaysAllows(t *testing.T) {
	r := newHealthRig(t, -1, time.Minute)
	r.failN(t, 100)
	if st := statusOf(t, r.c, "m"); st.Breaker != "closed" || st.Failures != 100 {
		t.Fatalf("disabled breaker status = %+v, want closed", st)
	}
}

// TestStaleHeadersNameFailingStage: a model serving its last-good site
// while its republish fails marks every response with Warning and an
// X-Goldweb-Stale value naming the stage of the last failure, and the
// marking clears with the next commit.
func TestStaleHeadersNameFailingStage(t *testing.T) {
	r := newHealthRig(t, 100, time.Minute)
	h := r.c.Handler()
	get := func() *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/m/m/model.xml", nil))
		if rec.Code != 200 || !strings.Contains(rec.Body.String(), "<goldmodel") {
			t.Fatalf("model.xml = %d, want the last-good document", rec.Code)
		}
		return rec
	}
	if err := r.set(); err != nil {
		t.Fatalf("good Set: %v", err)
	}
	if rec := get(); rec.Header().Get(StaleHeader) != "" || rec.Header().Get("Warning") != "" {
		t.Fatal("fresh model claims staleness")
	}

	for _, tc := range []struct {
		stage string
		fail  func() error
	}{
		{"parse", func() error { return r.c.Set(context.Background(), "m", tornSource(r.src)) }},
		{"publish", func() error { r.fail.Store(true); return r.set() }},
	} {
		if err := tc.fail(); err == nil {
			t.Fatalf("%s: corrupt Set succeeded", tc.stage)
		}
		want := "republish failing at stage " + tc.stage
		rec := get()
		if got := rec.Header().Get(StaleHeader); got != want {
			t.Errorf("%s = %q, want %q", StaleHeader, got, want)
		}
		if got := rec.Header().Get("Warning"); got != `110 goldweb "stale content: republish failing"` {
			t.Errorf("Warning = %q", got)
		}
		if st := statusOf(t, r.c, "m"); !st.Stale || st.StaleWhy != want {
			t.Errorf("status = %+v, want stale because %q", st, want)
		}
	}

	r.fail.Store(false)
	if err := r.set(); err != nil {
		t.Fatalf("recovery Set: %v", err)
	}
	if rec := get(); rec.Header().Get(StaleHeader) != "" || rec.Header().Get("Warning") != "" {
		t.Error("stale headers survive the recovery")
	}
	if st := statusOf(t, r.c, "m"); st.Stale || st.StaleWhy != "" {
		t.Errorf("status after recovery = %+v", st)
	}
}
