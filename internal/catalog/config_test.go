package catalog

import (
	"context"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"goldweb/internal/core"
	"goldweb/internal/htmlgen"
	"goldweb/internal/server"
)

// TestServingConfigOneRule: a server.Config means the same thing to
// server.New and to a catalog, whose Options carry the same serving
// fields. Zero means the default, a negative bound is off, and a
// CacheSize <= 0 is the default entry cap. For every field at zero,
// positive and negative, the catalog hands its model servers exactly
// the configured fields (server.TestConfigResolve pins how a server
// resolves them), and both builds show the same entry cap and byte
// budget (a page evicted or not), wait bound (504 or not), limiter (503
// or not) and compression.
func TestServingConfigOneRule(t *testing.T) {
	def := server.Config{
		RequestTimeout: server.DefaultRequestTimeout,
		MaxInflight:    server.DefaultMaxInflight,
		CacheSize:      server.DefaultCacheSize,
		CacheBytes:     server.DefaultCacheBytes,
	}
	with := func(set func(*server.Config)) server.Config {
		cfg := def
		set(&cfg)
		return cfg
	}
	for _, tc := range []struct {
		name string
		cfg  server.Config
		want server.Config // the behaviour to show, as resolved settings
	}{
		{"zero", server.Config{}, def},
		{"RequestTimeout>0", server.Config{RequestTimeout: 20 * time.Millisecond},
			with(func(c *server.Config) { c.RequestTimeout = 20 * time.Millisecond })},
		{"RequestTimeout<0", server.Config{RequestTimeout: -1}, with(func(c *server.Config) { c.RequestTimeout = -1 })},
		{"MaxInflight>0", server.Config{MaxInflight: 1}, with(func(c *server.Config) { c.MaxInflight = 1 })},
		{"MaxInflight<0", server.Config{MaxInflight: -1}, with(func(c *server.Config) { c.MaxInflight = -1 })},
		{"CacheSize>0", server.Config{CacheSize: 2}, with(func(c *server.Config) { c.CacheSize = 2 })},
		{"CacheSize<0", server.Config{CacheSize: -1}, def},
		{"CacheBytes>0", server.Config{CacheBytes: 1}, with(func(c *server.Config) { c.CacheBytes = 1 })},
		{"CacheBytes<0", server.Config{CacheBytes: -1}, with(func(c *server.Config) { c.CacheBytes = -1 })},
		{"NoCompress", server.Config{NoCompress: true}, with(func(c *server.Config) { c.NoCompress = true })},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, b := range []struct {
				name  string
				build func(server.PublishHook) (http.Handler, string, func())
			}{
				{"server.New", func(hook server.PublishHook) (http.Handler, string, func()) {
					cfg := tc.cfg
					cfg.PublishHook = hook
					srv, err := server.New(core.SampleSales(), cfg)
					if err != nil {
						t.Fatal(err)
					}
					return srv.Handler(), "", srv.Close
				}},
				{"catalog", func(hook server.PublishHook) (http.Handler, string, func()) {
					c := New(Options{
						RequestTimeout: tc.cfg.RequestTimeout,
						MaxInflight:    tc.cfg.MaxInflight,
						CacheSize:      tc.cfg.CacheSize,
						CacheBytes:     tc.cfg.CacheBytes,
						NoCompress:     tc.cfg.NoCompress,
						PublishHook:    hook,
						DisableRetry:   true,
					})
					if got := c.serving; got.PublishHook == nil {
						t.Error("the catalog dropped the publish hook")
					} else if got.PublishHook = nil; !reflect.DeepEqual(got, tc.cfg) {
						t.Errorf("the catalog serves with %+v, want %+v", got, tc.cfg)
					}
					if err := c.Set(context.Background(), "sales", []byte(core.SampleSales().XMLString())); err != nil {
						t.Fatal(err)
					}
					return c.Handler(), "/m/sales", c.Close
				}},
			} {
				t.Run(b.name, func(t *testing.T) {
					checkServingConfig(t, tc.want, b.build)
				})
			}
		})
	}
}

// checkServingConfig builds a server through build and checks its
// behaviour against want.
func checkServingConfig(t *testing.T, want server.Config,
	build func(server.PublishHook) (http.Handler, string, func())) {
	var publishes atomic.Int64
	var block atomic.Bool
	entered, release := make(chan struct{}), make(chan struct{})
	hook := func(ctx context.Context, _ htmlgen.Mode, _, page string) error {
		if page == "" {
			return nil // a stage's shadow publish
		}
		publishes.Add(1)
		if block.Load() {
			close(entered)
			<-release
		}
		return nil
	}
	h, prefix, closeFn := build(hook)
	defer closeFn()
	get := func(path string) *httptest.ResponseRecorder {
		req := httptest.NewRequest("GET", prefix+path, nil)
		req.Header.Set("Accept-Encoding", "gzip")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec
	}

	// Entry cap and byte budget: three pages, then the first again. It is
	// published again only if a cap below three entries, or a byte budget
	// below any page, evicted it.
	for _, p := range []string{"/single", "/single?focus=f1", "/site/index.html?focus=f1", "/single"} {
		if rec := get(p); rec.Code != http.StatusOK {
			t.Fatalf("GET %s: %d", p, rec.Code)
		}
	}
	evicts := want.CacheSize < 3 || (want.CacheBytes > 0 && want.CacheBytes < 1<<10)
	if n, wantN := publishes.Load(), map[bool]int64{false: 3, true: 4}[evicts]; n != wantN {
		t.Errorf("entry cap %d, byte budget %d: %d publications, want %d", want.CacheSize, want.CacheBytes, n, wantN)
	}

	// Compression.
	if enc := get("/site/index.html").Header().Get("Content-Encoding"); (enc == "gzip") == want.NoCompress {
		t.Errorf("NoCompress %v: Content-Encoding %q", want.NoCompress, enc)
	}

	// Wait bound and limiter: one request waits on a held publication
	// while a second one arrives. A bound of 20 ms must end the wait; an
	// unbounded or 30 s wait must outlast 50 ms.
	block.Store(true)
	first := make(chan int, 1)
	go func() { first <- get("/site/f1.html?focus=f1").Code }()
	<-entered
	second := get("/model.xml").Code
	if shed := want.MaxInflight == 1; (second == http.StatusServiceUnavailable) != shed {
		t.Errorf("MaxInflight %d: a second request got %d", want.MaxInflight, second)
	}
	timesOut := want.RequestTimeout > 0 && want.RequestTimeout < time.Second
	wait := 50 * time.Millisecond
	if timesOut {
		wait = 10 * time.Second
	}
	code := 0
	select {
	case code = <-first:
	case <-time.After(wait):
	}
	close(release)
	if code == 0 {
		code = <-first
	}
	if (code == http.StatusGatewayTimeout) != timesOut {
		t.Errorf("RequestTimeout %v: the waiting request got %d", want.RequestTimeout, code)
	}
}
