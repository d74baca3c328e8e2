package server

import (
	"fmt"
	"net/http"
	"strings"
	"sync/atomic"
)

// The middleware stack hardening the serving path (§6 moved the XSLT
// transformation into the server, making it the single point of failure):
//
//	withRecovery  — a panicking handler becomes a 500, not a dead connection
//	withMethods   — the site is read-only: non-GET/HEAD gets 405 + Allow
//	withLimiter   — an in-flight counter sheds load with 503 + Retry-After when full
//
// No layer bounds a request's wall-clock time: the only request-path
// work that can wait on anything but its own CPU is a publication, and
// pageFor bounds that wait (504 past the request timeout). A warm read
// therefore runs on the serving goroutine with no timer, buffer or copy,
// and a request with a canonical path (DirectPath) reaches the limiter
// without a ServeMux match, a lock or a channel operation.

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

// HardenOuter wraps h in the outermost middleware layers: panic
// recovery and read-only method enforcement. HardenApp supplies the
// inner layers; the catalog composes both around many model servers so
// the whole fleet shares one consistent stack.
func HardenOuter(h http.Handler) http.Handler {
	return withRecovery(withMethods(h))
}

// HardenApp wraps h in the expensive-path guard: load shedding at
// maxInflight concurrent requests (0 disables), counted with one atomic
// compare-and-swap per admission. It sets no deadline — each model
// server bounds its requests' wait for a publication with its own
// request timeout. Health endpoints belong outside it.
func HardenApp(maxInflight int, h http.Handler) http.Handler {
	return withLimiter(maxInflight, h)
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
