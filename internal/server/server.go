// Package server implements the web architecture of the paper's §6: the
// XSLT stylesheet is applied to the XML document *in the server* and the
// resulting HTML is returned to the client browser — plus endpoints for
// the raw and pretty-printed XML, the canonical schema, and an on-demand
// validation report.
//
// The serving path is hardened for production traffic: the published
// model lives in an immutable snapshot behind an atomic pointer,
// presentations are generated through a singleflight group (concurrent
// cold-cache requests for the same page share one transformation,
// detached from the requests that wait for it) into a bounded LRU
// cache, a request's wait for a publication is bounded by the request
// timeout (504 past it), and every request passes a middleware stack
// providing panic recovery, load shedding with 503 + Retry-After, and
// method filtering. /healthz and /readyz expose liveness and readiness,
// and Serve runs a full http.Server lifecycle with IO timeouts and
// graceful shutdown.
//
// Every model goes live through a staged swap — Stage validates nothing
// itself but refuses an invalid document, builds and shadow-publishes a
// new snapshot without touching the live pointer, and Commit installs it
// with an atomic generation bump. New stages and commits a model built
// in Go; the hot-swap catalog (internal/catalog) each model it loads. A
// generation header on every snapshot-derived response lets clients and
// soak harnesses assert that generations never regress. Whether a
// model's republish is failing is the catalog's record, not the
// server's: the catalog's router marks those responses stale.
//
// Content delivery is content-addressed (internal/artifact): every
// published page and XML view is an interned artifact
// with a hash-keyed strong ETag, answered conditionally (If-None-Match
// → 304) with lazily materialized precompressed gzip variants selected
// by Accept-Encoding. Byte-identical pages are shared across
// generations and across models, so a hot swap that does not change a
// page's bytes keeps its ETag — and the clients' 304s — alive, and a
// page republished after a cache eviction gets back its artifact and
// gzip variant while anything still holds them. The presentation cache
// is accounted in bytes (Config.CacheBytes), not entries.
package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/url"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"goldweb/internal/artifact"
	"goldweb/internal/core"
	"goldweb/internal/cwm"
	"goldweb/internal/htmlgen"
	"goldweb/internal/xmldom"
	"goldweb/internal/xsd"
)

// GenerationHeader carries the snapshot generation a response was
// served from. Within one model it is strictly monotonic: a client
// that saw generation N is never served N-1 afterwards.
const GenerationHeader = "X-Goldweb-Generation"

// snapshot is one immutable published state. Handlers load the current
// snapshot from an atomic pointer and then work without any lock at all;
// a concurrent swap builds a fresh snapshot and swaps the pointer.
// The publication document is frozen (xmldom.Freeze), so every
// concurrent publication reads it without cloning or re-indexing.
type snapshot struct {
	model *core.Model
	// gen is the generation this snapshot was installed as; genHeader is
	// its pre-rendered header value. Keeping the generation inside the
	// snapshot means a handler's body and generation header always come
	// from the same published state, however the swap races the request.
	gen       uint64
	genHeader string
	// genVal is the pre-rendered single-value header slice for the
	// generation header, assigned (not Set) on every response so the
	// warm path does not allocate for it.
	genVal []string
	// pubDoc is the publication source: the document the model was read
	// from, validated against the GOLD schema once without errors, with
	// its defaults applied, and frozen.
	pubDoc *xmldom.Node
	// focuses is the set of fact class ids that are valid ?focus= values;
	// anything else is a 404 before it can touch the cache.
	focuses map[string]bool
	// pageSets holds, by focus, the page names of each multi-page
	// presentation once a run has reported them: the unfocused set from
	// Stage's shadow publish, a focused set from a targeted run. A /site/
	// read for a page outside the set is a 404 that runs no transform
	// (pageGate). Single-page runs never note: their only page is the
	// principal output.
	pageMu   sync.Mutex
	pageSets map[string][]string

	// views holds the XML views once the first GET of any of them has
	// built them (viewsFor). A swap does not build them: serving reads
	// the published pages, and most snapshots never serve a view.
	viewOnce sync.Once
	views    *xmlViews
}

// hasPages reports whether a run has recorded the page names of the
// multi-page presentation of focus.
func (snap *snapshot) hasPages(focus string) bool {
	snap.pageMu.Lock()
	defer snap.pageMu.Unlock()
	_, ok := snap.pageSets[focus]
	return ok
}

// notePages records the page names a run reported for the multi-page
// presentation of focus.
func (snap *snapshot) notePages(focus string, order []string) {
	snap.pageMu.Lock()
	defer snap.pageMu.Unlock()
	if _, ok := snap.pageSets[focus]; !ok {
		snap.pageSets[focus] = order
	}
}

// pageGate reports whether the multi-page presentation of focus may have
// page. A focused presentation's pages are a subset of the unfocused
// one's, which Stage recorded, so the unfocused set gates every focus
// until the focus has its own.
func (snap *snapshot) pageGate(focus, page string) bool {
	snap.pageMu.Lock()
	defer snap.pageMu.Unlock()
	set, ok := snap.pageSets[focus]
	if !ok {
		set = snap.pageSets[""]
	}
	return slices.Contains(set, page)
}

// xmlViews are a snapshot's pre-rendered XML responses, serialized once
// and served as content-addressed artifacts: request hits serve frozen
// bytes with hash-keyed ETags (and precompressed variants) instead of
// re-serializing the document on every GET.
type xmlViews struct {
	model  *artifact.Artifact // /model.xml
	pretty *artifact.Artifact // /pretty
	client *artifact.Artifact // /client/model.xml
	cwm    *artifact.Artifact // /cwm.xmi
}

// viewsFor returns snap's XML views, building them on first use and
// interning them into the store, so a swap that does not change the
// document re-resolves to the same artifacts while the old snapshot's
// are still held — same ETags, no duplicate bytes. A replaced snapshot's
// views leave the store once nothing holds them.
func (s *Server) viewsFor(snap *snapshot) *xmlViews {
	snap.viewOnce.Do(func() { snap.views = buildViews(snap.model, s.cfg.Store) })
	return snap.views
}

// buildViews renders the model's XML views from its canonical document.
func buildViews(m *core.Model, store *artifact.Store) *xmlViews {
	const xmlCT = "text/xml; charset=utf-8"
	doc := m.ToXML()
	modelXML := []byte(xmldom.SerializeToString(doc, xmldom.WriteOptions{}))
	return &xmlViews{
		model:  store.Intern(xmlCT, modelXML),
		pretty: store.Intern("text/plain; charset=utf-8", []byte(xmldom.Pretty(doc))),
		client: store.Intern(xmlCT, clientModelXML(modelXML)),
		cwm:    store.Intern(xmlCT, []byte(cwm.ExportString(m))),
	}
}

// PublishHook runs at the start of every publication the server makes:
// Stage's shadow publish of the whole multi-page presentation (page "")
// and each request-path publication of one page. It runs inside the
// publication — under its singleflight call, awaited at shutdown, with
// its context — before the pipeline, so it can fail, block or panic the
// publication but never replaces its output. A request-path
// publication's context is canceled when the server shuts down (a
// waiting request gives up at its timeout, the publication does not),
// so a hung publication never outlives the process teardown;
// fault-injection harnesses set the hook to prove exactly that.
type PublishHook func(ctx context.Context, mode htmlgen.Mode, focus, page string) error

// Server publishes one conceptual model over HTTP.
type Server struct {
	// mu serializes installs; readers never take it. snap is the live
	// snapshot, whose generation is part of every cache key.
	mu   sync.Mutex
	snap atomic.Pointer[snapshot]

	cache  *siteCache
	flight *flightGroup

	// baseCtx parents every publication; baseCancel fires at shutdown so
	// in-flight publications stop instead of leaking their goroutines,
	// and pubWG lets the shutdown path await them.
	baseCtx    context.Context
	baseCancel context.CancelFunc
	pubWG      sync.WaitGroup

	cfg Config // resolved
}

// Defaults of the Config fields a zero value leaves unset.
const (
	DefaultRequestTimeout = 30 * time.Second
	DefaultMaxInflight    = 64
	DefaultCacheSize      = 64
	DefaultCacheBytes     = 64 << 20 // 64 MiB of identity bytes per model
)

// DefaultShutdownGrace bounds a shutdown: the handler drain and the wait
// for publications share it (Shell.Serve), and Close waits at most this
// long for a server's publications.
const DefaultShutdownGrace = 10 * time.Second

// Config holds a server's settings, and the catalog's for its shell and
// each of its model servers. A zero field takes its default, so the zero
// value means every default. A negative RequestTimeout, MaxInflight or
// CacheBytes turns that bound off; CacheSize <= 0 means DefaultCacheSize,
// because the entry cap cannot be turned off.
type Config struct {
	// RequestTimeout bounds how long a request waits for a publication:
	// past it the request gets 504 + Retry-After while the publication
	// runs on and caches its page. Warm reads and the XML views never
	// wait, so nothing else is bounded by it.
	RequestTimeout time.Duration
	// MaxInflight bounds concurrently served requests; excess load is
	// shed with 503 + Retry-After.
	MaxInflight int
	// CacheSize caps the presentation cache's entries, each a whole
	// presentation or a single page of a multi-page presentation.
	CacheSize int
	// CacheBytes bounds the presentation cache by summed identity bytes,
	// the unit that matters under memory pressure: per-focus sites of a
	// large model dwarf a small model's whole site.
	CacheBytes int64
	// NoCompress stops serving precompressed gzip variants: every
	// response is identity whatever the Accept-Encoding.
	NoCompress bool
	// PublishHook runs before every publication (may be nil): the
	// fault-injection seam of resilience tests and soaks.
	PublishHook PublishHook
	// Store is the content store pages intern into; nil means the
	// process-global artifact.Shared, so byte-identical content is
	// shared across every model server in the process.
	Store *artifact.Store
}

// resolve fills cfg's zero fields with their defaults. A negative bound
// stays negative, and every reader takes a bound <= 0 as off, so
// resolving twice changes nothing.
func (cfg Config) resolve() Config {
	cfg.RequestTimeout = orDefault(cfg.RequestTimeout, DefaultRequestTimeout)
	cfg.MaxInflight = orDefault(cfg.MaxInflight, DefaultMaxInflight)
	cfg.CacheBytes = orDefault(cfg.CacheBytes, DefaultCacheBytes)
	if cfg.CacheSize <= 0 {
		cfg.CacheSize = DefaultCacheSize
	}
	if cfg.Store == nil {
		cfg.Store = artifact.Shared
	}
	return cfg
}

// orDefault returns def for a zero v, else v.
func orDefault[T int | int64 | time.Duration](v, def T) T {
	if v == 0 {
		return def
	}
	return v
}

// New creates a server publishing m, a model built in Go: it stages m's
// canonical document (Model.ToXML) and commits it, so a model whose
// document fails the GOLD schema is refused with Stage's error.
func New(m *core.Model, cfg Config) (*Server, error) {
	s := NewEmpty(cfg)
	st, err := s.Stage(context.Background(), m, core.ValidateAndFreeze(m.ToXML()))
	if err != nil {
		s.baseCancel()
		return nil, err
	}
	st.Commit()
	return s, nil
}

// NewEmpty creates a server with no published model yet: every
// model-derived endpoint answers 503 until the first Stage/Commit.
// Catalogs use it so a model whose very first load is failing still has
// an addressable (if not-ready) server.
func NewEmpty(cfg Config) *Server {
	s := &Server{cfg: cfg.resolve()}
	s.baseCtx, s.baseCancel = context.WithCancel(context.Background())
	s.flight = newFlightGroup(&s.pubWG)
	s.cache = newSiteCache(s.cfg.CacheSize, s.cfg.CacheBytes)
	return s
}

// install publishes snap as the new current snapshot under the next
// generation and invalidates cached presentations. The probe seeds the
// multi-page cache entry for the new generation before the pointer
// store that makes the generation visible — otherwise a request landing
// between the snapshot swap and the seeding would miss the cache and
// redundantly re-publish a site that was just built. Returns the new
// generation.
func (s *Server) install(snap *snapshot, probe *publishedSite) uint64 {
	s.mu.Lock()
	old := s.snap.Load()
	gen := uint64(1)
	if old != nil {
		gen = old.gen + 1
	}
	snap.gen = gen
	snap.genHeader = strconv.FormatUint(gen, 10)
	snap.genVal = []string{snap.genHeader}
	s.cache.purge(gen)
	s.cache.add(siteKey{gen: gen, mode: htmlgen.MultiPage}, probe)
	s.snap.Store(snap)
	s.mu.Unlock()
	return gen
}

// StagedModel is a built, shadow-verified snapshot that has not been
// installed yet. Commit makes it live; a stage that is never committed
// is garbage like any other value.
type StagedModel struct {
	s     *Server
	snap  *snapshot
	probe *publishedSite
}

// Stage builds the full snapshot for m and shadow-publishes its
// multi-page presentation — the server's only whole-presentation
// publication — without touching the live snapshot. It is the only way
// a snapshot goes live: New and the catalog both stage and Commit. val
// is the GOLD-schema validation (core.ValidateAndFreeze) of the document
// m was read from, and that document is what the snapshot publishes:
// Stage validates nothing itself, and it refuses a val with errors, such
// as key/keyref violations. Any failure — those errors, a publication
// error, ctx cancellation — returns an error and leaves the server
// serving exactly what it served before. Concurrent Stage calls are
// safe; external callers (the catalog) serialize commits per model. The
// XML views are left to their first GET (viewsFor).
func (s *Server) Stage(ctx context.Context, m *core.Model, val *xsd.Validated) (*StagedModel, error) {
	if errs := val.Errors; len(errs) > 0 {
		return nil, fmt.Errorf("document is invalid: %v (%d problems)", errs[0], len(errs))
	}
	s.pubWG.Add(1)
	defer s.pubWG.Done()
	err := s.beforePublish(ctx, htmlgen.MultiPage, "", "")
	if err != nil {
		return nil, fmt.Errorf("shadow publish: %w", err)
	}
	buf := pageBufs.Get().(*[]byte)
	defer pageBufs.Put(buf)
	site, out, err := htmlgen.PublishInto(ctx, (*buf)[:0], val.Doc,
		htmlgen.Options{Mode: htmlgen.MultiPage, SkipValidation: true})
	*buf = out
	if err != nil {
		return nil, fmt.Errorf("shadow publish: %w", err)
	}
	snap := &snapshot{model: m, focuses: htmlgen.FocusTargets(m), pubDoc: val.Doc,
		pageSets: map[string][]string{"": site.Order}}
	// Interning the shadow-published site here — while the previous
	// generation is still live — is what makes the swap memory-flat for
	// unchanged pages: byte-identical content resolves to the already
	// interned artifacts instead of a second copy. The pages are still in
	// the lent buffer; the store copies only those it keeps.
	return &StagedModel{s: s, snap: snap, probe: newPublishedSite(s.cfg.Store, site.Pages)}, nil
}

// pageBufs lends every publication the buffer it renders into: Stage's
// whole site, one page of a request-path miss. The publication interns
// its pages from the buffer — the store copies a page only when it keeps
// it — before the buffer goes back, so a republish the store already
// holds allocates no page bytes.
var pageBufs = sync.Pool{New: func() any { return new([]byte) }}

// Commit atomically installs the staged snapshot, bumps the
// generation, and seeds the presentation cache with the
// shadow-published site (so the first request after a swap is a warm
// hit). Returns the new generation.
func (st *StagedModel) Commit() uint64 {
	return st.s.install(st.snap, st.probe)
}

// Generation returns the current snapshot generation (0 before any
// model is published). It only ever increases.
func (s *Server) Generation() uint64 {
	if snap := s.snap.Load(); snap != nil {
		return snap.gen
	}
	return 0
}

// Ready reports whether a published model is being served: a snapshot
// is live, the rule the catalog's readiness reads too.
func (s *Server) Ready() bool { return s.snap.Load() != nil }

// Cancel cancels every in-flight publication without waiting for them.
// The handler keeps answering (from caches and snapshots), but a miss
// can no longer publish. The catalog's shutdown cancels every model's
// publications this way before it drains the handlers.
func (s *Server) Cancel() { s.baseCancel() }

// Close cancels every in-flight publication and waits for them up to
// DefaultShutdownGrace — reclaiming background work when the catalog
// evicts a model or closes.
func (s *Server) Close() {
	s.baseCancel()
	ctx, cancel := context.WithTimeout(context.Background(), DefaultShutdownGrace)
	defer cancel()
	s.awaitPublishes(ctx)
}

// awaitPublishes waits for in-flight publications, bounded by ctx.
// Reports whether everything drained.
func (s *Server) awaitPublishes(ctx context.Context) bool {
	return waitWithin(ctx, s.pubWG.Wait)
}

// clientStylesheetPI is the processing instruction that points an
// XSLT-capable browser at /client/single.xsl (the paper's §6
// client-side future work).
const clientStylesheetPI = `<?xml-stylesheet type="text/xsl" href="/client/single.xsl"?>`

// clientModelXML returns a model document's compact serialization — an
// XML declaration followed by the root element, the shape Model.ToXML
// produces — with clientStylesheetPI spliced in after the declaration.
func clientModelXML(serialized []byte) []byte {
	decl := bytes.Index(serialized, []byte("?>")) + len("?>")
	out := make([]byte, 0, len(serialized)+len(clientStylesheetPI))
	out = append(out, serialized[:decl]...)
	out = append(out, clientStylesheetPI...)
	return append(out, serialized[decl:]...)
}

// snapshot returns the current published state (nil before the first
// install on an empty server).
func (s *Server) snapshot() *snapshot { return s.snap.Load() }

// errUnknownFocus marks a ?focus= naming no fact class of the model.
var errUnknownFocus = errors.New("unknown focus")

// beforePublish runs the publish hook, if any, for one publication.
func (s *Server) beforePublish(ctx context.Context, mode htmlgen.Mode, focus, page string) error {
	if s.cfg.PublishHook == nil {
		return nil
	}
	return s.cfg.PublishHook(ctx, mode, focus, page)
}

// pageFor returns the artifact serving page of the presentation of mode
// and focus (/single reads index.html of the single-page one), or nil
// for a page the presentation does not have. The focus is validated
// against the snapshot's fact ids before any cache lookup, so
// attacker-chosen values never become cache keys. A cached whole
// presentation answers first — the Stage probe — and then the page's own
// entry, both under one cache lock, so a warm read is one lookup.
// A miss renders just the page with a targeted run, shared among
// concurrent misses and detached from them: it runs under the server's
// lifetime context (canceled at shutdown), not any request's, so one
// client leaving or timing out fails no other and the finished page is
// still cached. A request waits for it at most the request timeout
// (errPublishTimeout). A failed publication is never cached, so the next
// request retries under the same generation key. A multi-page name
// outside the page set a run reported is a 404 without a transform or a
// cache entry; a focus's first multi-page run reports its set.
func (s *Server) pageFor(snap *snapshot, mode htmlgen.Mode, focus, page string) (*artifact.Artifact, error) {
	if focus != "" && !snap.focuses[focus] {
		return nil, fmt.Errorf("%w %q: no such fact class", errUnknownFocus, focus)
	}
	if page == "style.css" {
		return staticStyleCSS, nil // the same bytes every presentation writes
	}
	key := siteKey{gen: snap.gen, mode: mode, focus: focus, page: page}
	if a, ok := s.cache.page(key); ok {
		return a, nil
	}
	multi := mode == htmlgen.MultiPage
	if multi && !snap.pageGate(focus, page) {
		return nil, nil
	}
	site, err := s.flight.Do(key, s.cfg.RequestTimeout, func() (*publishedSite, error) {
		if err := s.beforePublish(s.baseCtx, mode, focus, page); err != nil {
			return nil, err
		}
		buf := pageBufs.Get().(*[]byte)
		defer pageBufs.Put(buf)
		// Only a focus's first multi-page run reports the page set.
		pg, out, err := htmlgen.PublishPage(s.baseCtx, (*buf)[:0], snap.pubDoc,
			htmlgen.Options{Mode: mode, Focus: focus, SkipValidation: true,
				PageOrder: multi && !snap.hasPages(focus)}, page)
		*buf = out
		if err != nil {
			return nil, err
		}
		if pg.Order != nil {
			snap.notePages(focus, pg.Order)
		}
		if !pg.Found {
			return nil, nil
		}
		p := newPublishedPage(s.cfg.Store, page, pg.Content)
		s.cache.add(key, p)
		return p, nil
	})
	if site == nil {
		return nil, err
	}
	return site.page(page), nil
}

// siteError maps a publication error onto the right status code. A
// timed-out wait is retryable, with the same shape as the limiter's 503.
func siteError(w http.ResponseWriter, r *http.Request, err error) {
	switch {
	case errors.Is(err, errUnknownFocus):
		http.Error(w, err.Error(), http.StatusNotFound)
	case errors.Is(err, errPublishTimeout):
		respondError(w, r, http.StatusGatewayTimeout, "request timed out", "1")
	default:
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// Handler returns the full HTTP handler, middleware included:
//
//	GET /                  redirect to /site/index.html
//	GET /site/<page>       multi-page presentation (?focus=<factid>)
//	GET /single            single-page presentation (?focus=<factid>)
//	GET /model.xml         the XML document (Fig. 3)
//	GET /pretty            pretty-printed XML, a browser's raw view (Fig. 4)
//	GET /schema.xsd        the canonical XML Schema
//	GET /validate          plain-text validation report
//	GET /client/model.xml  XML + xml-stylesheet PI for client-side XSLT (§6 future work)
//	GET /client/single.xsl the stylesheet the browser applies
//	GET /cwm.xmi           CWM OLAP interchange document (§6 future work)
//	GET /healthz           liveness (always 200 while the process serves)
//	GET /readyz            readiness (503 until a model is published)
//
// It is the serving shell's front (Shell) with the app mounted at /: a
// request whose path is canonical (DirectPath) and is neither health
// endpoint goes straight to the limiter and ServeApp, so a warm read
// matches no pattern and allocates nothing.
func (s *Server) Handler() http.Handler { return s.shell().Handler() }

// shell is the server's serving shell: ServeApp on the request path,
// mounted at /, with a plain-text /readyz.
func (s *Server) shell() Shell {
	return Shell{
		Mount: "/",
		App: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			s.ServeApp(w, r, r.URL.Path)
		}),
		Config: s.cfg,
		Routes: func(mux *http.ServeMux) {
			mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
				if !s.Ready() {
					respondError(w, r, http.StatusServiceUnavailable, "no model published yet", "1")
					return
				}
				w.Header().Set("Content-Type", "text/plain; charset=utf-8")
				fmt.Fprintln(w, "ready")
			})
		},
		Cancel: s.baseCancel,
		Wait:   s.pubWG.Wait,
	}
}

// snapFor fetches the current snapshot for a handler, answering 503
// (with Retry-After) when no model has been published yet — an empty
// catalog entry whose first load keeps failing. Returns nil after
// writing the response.
func (s *Server) snapFor(w http.ResponseWriter, r *http.Request) *snapshot {
	snap := s.snapshot()
	if snap == nil {
		respondError(w, r, http.StatusServiceUnavailable, "no model published yet", "1")
		return nil
	}
	// Assigning the pre-rendered slice (the header name is already in
	// canonical form) keeps the warm path allocation-free.
	w.Header()[GenerationHeader] = snap.genVal
	return snap
}

// Static artifacts: process-constant content served with the same
// conditional/variant discipline as published pages.
var (
	staticSchemaXSD = artifact.New("text/xml; charset=utf-8", []byte(core.SchemaXSD))
	staticStyleCSS  = artifact.New("text/css; charset=utf-8", []byte(core.StyleCSS))
	staticSingleXSL = artifact.New("text/xml; charset=utf-8", []byte(core.SingleXSL))
)

// servePage answers a read of page of the presentation of mode, focused
// by the request's ?focus=.
func (s *Server) servePage(w http.ResponseWriter, r *http.Request, mode htmlgen.Mode, page string) {
	snap := s.snapFor(w, r)
	if snap == nil {
		return
	}
	if page == "." || page == ".." || strings.Contains(page, "/") {
		http.NotFound(w, r)
		return
	}
	a, err := s.pageFor(snap, mode, queryValue(r.URL.RawQuery, "focus"), page)
	if err != nil {
		siteError(w, r, err)
		return
	}
	if a == nil {
		http.NotFound(w, r)
		return
	}
	a.Serve(w, r, !s.cfg.NoCompress)
}

// queryValue returns the first value of key in the raw query, exactly as
// url.ParseQuery(raw).Get(key) does: pairs split on "&", a pair holding
// ";" is skipped, and so is a pair whose key or value fails to unescape.
// It builds no map, so it allocates only to unescape a "%" or "+".
func queryValue(raw, key string) string {
	for raw != "" {
		var pair string
		pair, raw, _ = strings.Cut(raw, "&")
		if pair == "" || strings.Contains(pair, ";") {
			continue
		}
		k, v, _ := strings.Cut(pair, "=")
		if k, err := url.QueryUnescape(k); err != nil || k != key {
			continue
		}
		if v, err := url.QueryUnescape(v); err == nil {
			return v
		}
	}
	return ""
}

// ServeApp answers r on the application route p, the request path
// relative to where the server is mounted (r.URL.Path for a server at
// the root; the catalog passes what follows /m/{name}). It applies no
// middleware and never copies the request. Redirects are relative, so
// they stay inside the mount point.
func (s *Server) ServeApp(w http.ResponseWriter, r *http.Request, p string) {
	if page, ok := strings.CutPrefix(p, "/site/"); ok {
		if page == "" {
			page = htmlgen.IndexName
		}
		s.servePage(w, r, htmlgen.MultiPage, page)
		return
	}
	switch p {
	case "/":
		http.Redirect(w, r, "site/index.html", http.StatusFound)
	case "/site":
		to := "site/"
		if r.URL.RawQuery != "" {
			to += "?" + r.URL.RawQuery
		}
		http.Redirect(w, r, to, http.StatusMovedPermanently)
	case "/single":
		s.servePage(w, r, htmlgen.SinglePage, htmlgen.IndexName)
	case "/style.css":
		staticStyleCSS.Serve(w, r, !s.cfg.NoCompress)
	case "/schema.xsd":
		staticSchemaXSD.Serve(w, r, !s.cfg.NoCompress)
	case "/model.xml":
		if snap := s.snapFor(w, r); snap != nil {
			s.viewsFor(snap).model.Serve(w, r, !s.cfg.NoCompress)
		}
	case "/pretty":
		if snap := s.snapFor(w, r); snap != nil {
			s.viewsFor(snap).pretty.Serve(w, r, !s.cfg.NoCompress)
		}
	// The paper's §6 future work: "when the browsers completely support
	// XML and XSLT, the transformation will be able to be performed in the
	// browser ... removing some of the processing load from the server."
	// /client/model.xml carries an xml-stylesheet processing instruction,
	// and the stylesheet itself is served next to it, so an XSLT-capable
	// browser renders the model client-side.
	case "/client/model.xml":
		if snap := s.snapFor(w, r); snap != nil {
			s.viewsFor(snap).client.Serve(w, r, !s.cfg.NoCompress)
		}
	case "/client/single.xsl":
		staticSingleXSL.Serve(w, r, !s.cfg.NoCompress)
	case "/cwm.xmi":
		if snap := s.snapFor(w, r); snap != nil {
			s.viewsFor(snap).cwm.Serve(w, r, !s.cfg.NoCompress)
		}
	case "/validate":
		s.serveValidate(w, r)
	default:
		http.NotFound(w, r)
	}
}

// serveValidate writes the plain-text validation report of the live
// model. Its document passed the XML Schema before it went live (Stage
// refuses any other), so a GET validates no document: the report is the
// model's metamodel checks.
func (s *Server) serveValidate(w http.ResponseWriter, r *http.Request) {
	snap := s.snapFor(w, r)
	if snap == nil {
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	semErrs := snap.model.Validate()
	if len(semErrs) == 0 {
		fmt.Fprintf(w, "VALID: %s conforms to the XML Schema and the metamodel constraints\n", snap.model.Name)
		return
	}
	var lines []string
	for _, e := range semErrs {
		lines = append(lines, "model: "+e.Error())
	}
	sort.Strings(lines)
	fmt.Fprintf(w, "INVALID: %d problems\n", len(lines))
	for _, l := range lines {
		fmt.Fprintln(w, l)
	}
}

func contentType(page string) string {
	switch {
	case strings.HasSuffix(page, ".css"):
		return "text/css; charset=utf-8"
	case strings.HasSuffix(page, ".html"):
		return "text/html; charset=utf-8"
	case strings.HasSuffix(page, ".xml"), strings.HasSuffix(page, ".xsl"):
		return "text/xml; charset=utf-8"
	default:
		return "application/octet-stream"
	}
}

// Serve runs a production http.Server on addr until ctx ends (see
// Shell.Serve for the timeouts and the shutdown order). It returns nil on
// a clean shutdown.
func (s *Server) Serve(ctx context.Context, addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.ServeListener(ctx, ln)
}

// ServeListener is Serve on an existing listener (tests use it to bind
// port 0).
func (s *Server) ServeListener(ctx context.Context, ln net.Listener) error {
	return s.shell().Serve(ctx, ln)
}
