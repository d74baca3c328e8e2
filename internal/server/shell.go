package server

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"strings"
	"sync/atomic"
	"time"
)

// The serving shell: the HTTP front and the listener lifecycle that the
// single-model server and the catalog share. §6 moved the XSLT
// transformation into the server, making this shell the process's
// single point of failure, so there is one of it. The front stacks
//
//	withRecovery  — a panicking handler becomes a 500, not a dead connection
//	withMethods   — the site is read-only: non-GET/HEAD gets 405 + Allow
//	withLimiter   — an in-flight counter sheds load with 503 + Retry-After when full
//
// with the health endpoints outside the limiter. No layer bounds a
// request's wall-clock time: the only request-path work that can wait on
// anything but its own CPU is a publication, and pageFor bounds that wait
// (504 past the request timeout). A warm read therefore runs on the
// serving goroutine with no timer, buffer or copy, and a request with a
// canonical path (DirectPath) under the mount reaches the limiter without
// a ServeMux match, a lock or a channel operation.

// Shell describes one serving process: what differs between the
// single-model server and the catalog. Everything else — the middleware,
// /healthz, the direct route, the http.Server timeouts and the shutdown
// order — is the shell's.
type Shell struct {
	// Mount is the path prefix App answers: "/" for a single model,
	// "/m/" for the catalog.
	Mount string
	// App serves every request under Mount, behind the limiter.
	App http.Handler
	// Config is the serving configuration of the app's servers. The
	// shell reads two of its bounds: MaxInflight bounds concurrent App
	// requests, and the http.Server's write timeout is twice
	// RequestTimeout.
	Config Config
	// Routes registers the caller's other endpoints, /readyz among them,
	// on the ServeMux that answers whatever the direct route does not.
	Routes func(*http.ServeMux)

	// Cancel stops the background publications at shutdown, before the
	// handlers drain; Wait returns once they have stopped.
	Cancel, Wait func()
}

// Handler returns the shell's front.
func (sh Shell) Handler() http.Handler { return sh.front(true) }

// MuxHandler returns the front with the direct route switched off: every
// request goes through the ServeMux. It is the reference the
// differential fuzzers compare Handler against.
func (sh Shell) MuxHandler() http.Handler { return sh.front(false) }

// front wraps the router in recovery and method filtering. The router
// sends a canonical path under the mount, other than the health
// endpoints, straight to the limited app; the ServeMux routes everything
// else and owns the clean-path redirects.
func (sh Shell) front(direct bool) http.Handler {
	app := withLimiter(sh.Config.resolve().MaxInflight, sh.App)
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.Handle(sh.Mount, app)
	if sh.Routes != nil {
		sh.Routes(mux)
	}
	router := http.Handler(mux)
	if direct {
		mount := sh.Mount
		router = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if p := r.URL.Path; strings.HasPrefix(p, mount) && p != "/healthz" && p != "/readyz" && DirectPath(r) {
				app.ServeHTTP(w, r)
				return
			}
			mux.ServeHTTP(w, r)
		})
	}
	return withRecovery(withMethods(router))
}

// Serve runs an http.Server with the shell's front on ln until ctx ends:
// IO timeouts against slow clients, then a graceful shutdown in three
// steps, all within DefaultShutdownGrace:
//
//  1. Cancel in-flight publications. A request blocked behind a hung
//     transformation would otherwise hold the drain for the whole grace.
//  2. Drain the request handlers.
//  3. Wait for the publications, so none outlives the call.
//
// It returns nil on a clean shutdown. A listener failure returns at once
// and leaves the background work to its owner.
func (sh Shell) Serve(ctx context.Context, ln net.Listener) error {
	writeTimeout := 2 * sh.Config.resolve().RequestTimeout
	if writeTimeout <= 0 {
		writeTimeout = 2 * DefaultRequestTimeout
	}
	hs := &http.Server{
		Handler:           sh.Handler(),
		ReadTimeout:       10 * time.Second,
		ReadHeaderTimeout: 5 * time.Second,
		WriteTimeout:      writeTimeout,
		IdleTimeout:       2 * time.Minute,
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), DefaultShutdownGrace)
	defer cancel()
	sh.Cancel()
	if err := hs.Shutdown(shutdownCtx); err != nil {
		hs.Close()
		return err
	}
	<-errc // always http.ErrServerClosed after Shutdown
	if !waitWithin(shutdownCtx, sh.Wait) {
		return fmt.Errorf("shutdown: publication goroutines did not drain within %s", DefaultShutdownGrace)
	}
	return nil
}

// waitWithin runs wait and reports whether it returned before ctx ended.
func waitWithin(ctx context.Context, wait func()) bool {
	done := make(chan struct{})
	go func() {
		wait()
		close(done)
	}()
	select {
	case <-done:
		return true
	case <-ctx.Done():
		return false
	}
}

// wantsJSON reports whether the client asked for a JSON error body.
func wantsJSON(r *http.Request) bool {
	return strings.Contains(r.Header.Get("Accept"), "application/json")
}

// respondError writes an error response consistently across the
// middleware stack: Retry-After when the condition is retryable, and a
// JSON body ({"error": ..., "status": ...}) when the client sends
// Accept: application/json — load shedding (503) and timeouts (504)
// must look the same to an API client.
func respondError(w http.ResponseWriter, r *http.Request, code int, msg, retryAfter string) {
	if retryAfter != "" {
		w.Header().Set("Retry-After", retryAfter)
	}
	if wantsJSON(r) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		w.Header().Set("X-Content-Type-Options", "nosniff")
		w.WriteHeader(code)
		fmt.Fprintf(w, "{\"error\":%q,\"status\":%d}\n", msg, code)
		return
	}
	http.Error(w, msg, code)
}

// RespondError exposes the shared error-response shape (Retry-After +
// JSON body on Accept: application/json) to handlers built on top of
// this package — the catalog's routing errors must look exactly like
// the server's own 503s and 504s.
func RespondError(w http.ResponseWriter, r *http.Request, code int, msg, retryAfter string) {
	respondError(w, r, code, msg, retryAfter)
}

// withRecovery converts a handler panic into a 500 response. It is the
// outermost layer, so a panic anywhere in the stack is caught; a panic
// inside a detached publication is recovered on its own goroutine and
// reaches every waiting request as an error instead (flightGroup.Do).
func withRecovery(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if rec := recover(); rec != nil {
				if rec == http.ErrAbortHandler {
					panic(rec)
				}
				http.Error(w, fmt.Sprintf("internal error: %v", rec), http.StatusInternalServerError)
			}
		}()
		next.ServeHTTP(w, r)
	})
}

// withMethods rejects methods other than GET and HEAD with 405.
func withMethods(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet && r.Method != http.MethodHead {
			w.Header().Set("Allow", "GET, HEAD")
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		next.ServeHTTP(w, r)
	})
}

// withLimiter bounds the number of requests inside the expensive part of
// the stack. Excess requests are shed immediately with 503 + Retry-After
// instead of queueing without bound behind a slow transformation. The
// count is one atomic integer raised only by a compare-and-swap below n,
// so at most n requests are ever inside and admission takes no lock and
// no channel operation.
func withLimiter(n int, next http.Handler) http.Handler {
	if n <= 0 {
		return next
	}
	limit := int64(n)
	var inflight atomic.Int64
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		for {
			cur := inflight.Load()
			if cur >= limit {
				respondError(w, r, http.StatusServiceUnavailable, "server is saturated, retry shortly", "1")
				return
			}
			if inflight.CompareAndSwap(cur, cur+1) {
				break
			}
		}
		defer inflight.Add(-1)
		next.ServeHTTP(w, r)
	})
}

// DirectPath reports whether an http.ServeMux would hand r, unchanged, to
// the handler its path matches: the path is unescaped (no RawPath) and
// already clean — it starts with "/" and no segment is ".", ".." or
// empty, except a trailing slash. Any other path the mux answers itself
// with a redirect to its cleaned form, so routers that bypass the mux
// for hot prefixes send such requests through it, and the mux stays the
// only code that knows the cleaning and redirect rules.
func DirectPath(r *http.Request) bool {
	p := r.URL.Path
	if r.URL.RawPath != "" || p == "" || p[0] != '/' {
		return false
	}
	for i := 1; i <= len(p); {
		j := i
		for j < len(p) && p[j] != '/' {
			j++
		}
		switch seg := p[i:j]; seg {
		case ".", "..":
			return false
		case "":
			if j < len(p) {
				return false
			}
		}
		i = j + 1
	}
	return true
}
