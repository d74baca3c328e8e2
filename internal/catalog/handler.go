package catalog

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"strings"

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
// It is the serving shell's front (server.Shell) with the models mounted
// at /m/: one recovery/methods/limiter stack for every model, health
// endpoints outside the limiter so orchestrators can probe a saturated
// catalog, and a request for a canonical path under /m/
// (server.DirectPath) reaching the model's server through the limiter
// with no ServeMux match, lock or channel operation — a warm read
// allocates nothing. Each model's server bounds a request's wait for a
// publication by Options.RequestTimeout (504 past it). A model whose
// republish pipeline is failing keeps serving its last-good site with
// Warning and X-Goldweb-Stale headers; a model that never loaded answers
// 503.
//
// Every model's pages are served as content-addressed artifacts from
// the shared store: hash-keyed ETags answer If-None-Match with 304s,
// gzip-capable clients get the precompressed variant, and pages that
// are byte-identical across models or across hot-swap generations are
// interned once with stable ETags (see internal/artifact).
func (c *Catalog) Handler() http.Handler { return c.shell().Handler() }

// shell is the catalog's serving shell: the models at /m/, a JSON
// /readyz, the /catalog index and the / redirect to it. Its shutdown
// cancels every model's publications and the retry loops before the
// drain and closes the catalog after it.
func (c *Catalog) shell() server.Shell {
	return server.Shell{
		Mount:  "/m/",
		App:    http.HandlerFunc(c.serveModel),
		Config: c.serving,
		Routes: func(mux *http.ServeMux) {
			mux.HandleFunc("/readyz", c.handleReadyz)
			mux.HandleFunc("/catalog", c.handleIndex)
			mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
				if r.URL.Path != "/" {
					http.NotFound(w, r)
					return
				}
				http.Redirect(w, r, "/catalog", http.StatusFound)
			})
		},
		Cancel: c.cancelWork,
		Wait:   c.waitWork,
	}
}

// serveModel routes /m/{name}/... to the model's server, handing it the
// rest of the path as a slice of the request's own: the request is not
// copied. A stale model's responses carry Warning and X-Goldweb-Stale
// headers, set from its health record. The bare /m/{name} (with or
// without trailing slash) redirects to the model's index page with an
// absolute path, which no relative Location could spell for both forms.
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
	if rec := e.state.Load(); rec.stale() {
		w.Header().Set("Warning", `110 goldweb "stale content: republish failing"`)
		w.Header().Set(StaleHeader, rec.staleReason())
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
// shuts down gracefully (see server.Shell.Serve): cancel the retry loops
// and every model's in-flight publications, drain the handlers, and
// close the catalog.
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
	return c.shell().Serve(ctx, ln)
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
