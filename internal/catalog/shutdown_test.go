package catalog

import (
	"context"
	"io"
	"net"
	"net/http"
	"testing"
	"time"

	"goldweb/internal/htmlgen"
)

// TestCatalogShutdownCancelsInflightPublish: a request waiting on a
// publication that hangs until its context ends must not hold the
// catalog's shutdown for the whole grace. The shutdown cancels every
// model's publications before it drains the handlers, so ServeListener
// returns nil at once and the publication's context is canceled.
func TestCatalogShutdownCancelsInflightPublish(t *testing.T) {
	entered := make(chan struct{})
	released := make(chan struct{})
	c := New(Options{
		DisableRetry:   true,
		RequestTimeout: -1, // no request timeout: only shutdown can stop the publish
		PublishHook: func(ctx context.Context, _ htmlgen.Mode, _, page string) error {
			if page == "" {
				return nil // Stage's shadow publish
			}
			close(entered)
			<-ctx.Done() // a context-aware pipeline stops here
			close(released)
			return ctx.Err()
		},
	})
	defer c.Close()
	if err := c.Set(context.Background(), "m", modelSource(t, "Sales DW")); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- c.ServeListener(ctx, ln) }()

	// Fire a request that blocks inside the publish; don't wait for it.
	go func() {
		resp, err := http.Get("http://" + ln.Addr().String() + "/m/m/single")
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

	start := time.Now()
	cancel()
	select {
	case err := <-served:
		if err != nil {
			t.Errorf("shutdown returned %v after %v, want nil", err, time.Since(start))
		}
	case <-time.After(5 * time.Second):
		t.Fatal("catalog did not shut down within 5s while a publish was in flight")
	}
	select {
	case <-released:
	case <-time.After(time.Second):
		t.Fatal("publish context was never canceled: goroutine leaked")
	}
}
