package catalog

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"strings"
	"time"

	"goldweb/internal/server"
)

// Handler returns the catalog's HTTP surface:
//
//	GET /                → redirect to /catalog
//	GET /catalog         → JSON index of registered models
//	GET /healthz         → liveness (200 while the process serves)
//	GET /readyz          → readiness: per-model JSON status; 503 until
//	                       every model has a live last-good snapshot
//	GET /m/{name}/...    → that model's site (the same routes a
//	                       single-model server exposes at /)
//
// Model routes share one recovery/methods/limiter stack; health
// endpoints sit outside the limiter so orchestrators can probe a
// saturated catalog. A request for a canonical path under /m/
// (server.DirectPath) reaches the model's server through the limiter
// with no ServeMux match, lock or channel operation, and a warm read
// allocates nothing; an http.ServeMux routes everything else — health,
// /catalog, /, /m, and the unclean or escaped paths it redirects. Each
// model's server bounds a request's wait for a publication by
// Options.RequestTimeout (504 past it). A model whose republish pipeline
// is failing keeps serving its last-good site with Warning and
// X-Goldweb-Stale headers; a model that never loaded answers 503.
//
// Every model's pages are served as content-addressed artifacts from
// the shared store: hash-keyed ETags answer If-None-Match with 304s,
// gzip-capable clients get the precompressed variant, and pages that
// are byte-identical across models or across hot-swap generations are
// interned once with stable ETags (see internal/artifact).
func (c *Catalog) Handler() http.Handler {
	models := server.HardenApp(c.opts.MaxInflight, http.HandlerFunc(c.serveModel))
	root := c.mux(models)
	return server.HardenOuter(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, "/m/") && server.DirectPath(r) {
			models.ServeHTTP(w, r)
			return
		}
		root.ServeHTTP(w, r)
	}))
}

// mux routes every endpoint of Handler through one http.ServeMux, with
// models mounted at /m/.
func (c *Catalog) mux(models http.Handler) *http.ServeMux {
	root := http.NewServeMux()
	root.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	root.HandleFunc("/readyz", c.handleReadyz)
	root.HandleFunc("/catalog", c.handleIndex)
	root.Handle("/m/", models)
	root.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		http.Redirect(w, r, "/catalog", http.StatusFound)
	})
	return root
}

// serveModel routes /m/{name}/... to the model's server, handing it the
// rest of the path as a slice of the request's own: the request is not
// copied. The bare /m/{name} (with or without trailing slash) redirects
// to the model's index page with an absolute path, which no relative
// Location could spell for both forms.
func (c *Catalog) serveModel(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/m/")
	name, sub, _ := strings.Cut(rest, "/")
	if name == "" {
		server.RespondError(w, r, http.StatusNotFound, "model name missing: use /m/{name}/...", "")
		return
	}
	e := c.get(name)
	if e == nil {
		server.RespondError(w, r, http.StatusNotFound, fmt.Sprintf("unknown model %q", name), "")
		return
	}
	if sub == "" {
		http.Redirect(w, r, "/m/"+name+"/site/index.html", http.StatusFound)
		return
	}
	e.srv.ServeApp(w, r, rest[len(name):])
}

// readyzBody is the /readyz JSON document.
type readyzBody struct {
	Ready  bool          `json:"ready"`
	Models []ModelStatus `json:"models"`
}

func (c *Catalog) handleReadyz(w http.ResponseWriter, r *http.Request) {
	body := readyzBody{Ready: true, Models: c.Status()}
	for _, st := range body.Models {
		if !st.Ready {
			body.Ready = false
			break
		}
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	if !body.Ready {
		w.Header().Set("Retry-After", "1")
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(body)
}

// Serve runs the catalog's HTTP surface on addr until ctx ends, then
// shuts down gracefully: stop accepting, drain in-flight handlers, and
// finally Close the catalog (stopping retry loops and closing every
// model server, which cancels their in-flight publications).
func (c *Catalog) Serve(ctx context.Context, addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return c.ServeListener(ctx, ln)
}

// ServeListener is Serve on an existing listener (tests use it to bind
// port 0).
func (c *Catalog) ServeListener(ctx context.Context, ln net.Listener) error {
	writeTimeout := 2 * c.opts.RequestTimeout
	if writeTimeout <= 0 {
		writeTimeout = 2 * server.DefaultRequestTimeout
	}
	hs := &http.Server{
		Handler:           c.Handler(),
		ReadTimeout:       10 * time.Second,
		ReadHeaderTimeout: 5 * time.Second,
		WriteTimeout:      writeTimeout,
		IdleTimeout:       2 * time.Minute,
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case err := <-errc:
		c.Close()
		return err
	case <-ctx.Done():
		shutdownCtx, cancel := context.WithTimeout(context.Background(), server.DefaultShutdownGrace)
		defer cancel()
		if err := hs.Shutdown(shutdownCtx); err != nil {
			hs.Close()
			c.Close()
			return err
		}
		<-errc // always http.ErrServerClosed after Shutdown
		c.Close()
		return nil
	}
}

func (c *Catalog) handleIndex(w http.ResponseWriter, r *http.Request) {
	type item struct {
		Name       string `json:"name"`
		URL        string `json:"url"`
		Ready      bool   `json:"ready"`
		Stale      bool   `json:"stale"`
		Generation uint64 `json:"generation"`
	}
	items := []item{}
	for _, st := range c.Status() {
		items = append(items, item{
			Name:       st.Name,
			URL:        "/m/" + st.Name + "/site/index.html",
			Ready:      st.Ready,
			Stale:      st.Stale,
			Generation: st.Generation,
		})
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(struct {
		Models []item `json:"models"`
	}{items})
}
