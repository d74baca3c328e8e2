package main

import (
	"bytes"
	"compress/gzip"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"goldweb/internal/artifact"
	"goldweb/internal/catalog"
	"goldweb/internal/core"
	"goldweb/internal/htmlgen"
	"goldweb/internal/server"
)

// workload is one traffic mix over the 13 frozen models.
type workload struct {
	name string
	why  string
	loop string // loop type and load, as the report states it

	readers   int     // closed-loop read clients (capped at nproc)
	ownModels bool    // each reader reads only the models it owns
	writers   int     // closed-loop writers, each owning alternate models
	writeRate float64 // open-loop revisions per second across all models
	cacheSize int     // catalog.Options.CacheSize; 0 keeps the server default
	warm      bool    // set-up requests every read target with gzip
	timeSwaps bool    // op_p50_us times the revisions, not the reads
	reads     func(p *plan, model int) []pageRef
}

var workloads = []*workload{
	{
		name:    "browse-warm",
		why:     "Warm reads only: every page and gzip variant is cached in set-up, so only routing and artifact.Serve run; transform, validation and swap changes must read flat.",
		loop:    "closed loop, 2 readers, every multi-page page of all 13 models",
		readers: 2, warm: true, reads: multiPages,
	},
	{
		name:    "browse-cold",
		why:     "A 2-entry presentation cache below each model's 3-9 read keys: most reads publish on the request path (transform, intern, gzip) with no parse, validation or lint.",
		loop:    "closed loop, 2 readers owning alternate models, focused and single-page presentations",
		readers: 2, ownModels: true, cacheSize: 2, reads: coldPresentations,
	},
	{
		name:    "swap",
		why:     "Revisions only: each op is Catalog.Set of a model's next revision, the whole write path from parse through validation, lint, shadow publish, intern and commit.",
		loop:    "closed loop, 2 writers owning alternate models, no reads",
		writers: 2, timeSwaps: true,
	},
	{
		name:      "browse-during-swaps",
		why:       "Open-loop revisions at 20/s beside 2 closed-loop readers: op_p50_us times each revision from its due time under read load, and each commit purges a model's cache.",
		loop:      "closed loop, 2 readers over every presentation; open loop, 20 revisions/s across all models, staged by reader 0 when due",
		readers:   2,
		writeRate: 20,
		timeSwaps: true,
		reads:     allPresentations,
	},
}

func workloadNamed(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// The browser mix every reader sends.
const (
	gzipShare   = 0.9 // requests that accept gzip
	condShare   = 0.6 // requests that revalidate with an ETag learned earlier
	sampleEvery = 64  // one request in this many keeps its body for the gzip check
	maxStamp    = 1 << 20
)

// pageRef is one page of one presentation.
type pageRef struct {
	key  presKey
	page string
}

func multi(focus string) presKey  { return presKey{htmlgen.MultiPage, focus} }
func single(focus string) presKey { return presKey{htmlgen.SinglePage, focus} }

// multiPages is every page of the unfocused multi-page site.
func multiPages(p *plan, model int) []pageRef {
	var refs []pageRef
	for _, page := range p.multiOrder[model] {
		refs = append(refs, pageRef{multi(""), page})
	}
	return refs
}

// coldPresentations is the index of each focused multi-page site, each
// focused single page, and the unfocused single page.
func coldPresentations(p *plan, model int) []pageRef {
	refs := []pageRef{{single(""), htmlgen.IndexName}}
	for _, f := range p.facts[model] {
		refs = append(refs, pageRef{multi(f), htmlgen.IndexName}, pageRef{single(f), htmlgen.IndexName})
	}
	return refs
}

// allPresentations is every key a model serves: all multi-page pages plus
// the focused and single-page presentations.
func allPresentations(p *plan, model int) []pageRef {
	return append(multiPages(p, model), coldPresentations(p, model)...)
}

// probePresentations are read at set-up on every workload: one index page
// per presentation kind, so every layer a read can reach runs at least
// once whatever the workload.
func probePresentations(p *plan, model int) []pageRef {
	f := p.facts[model][0]
	return []pageRef{
		{multi(""), htmlgen.IndexName}, {multi(f), htmlgen.IndexName},
		{single(""), htmlgen.IndexName}, {single(f), htmlgen.IndexName},
	}
}

// target is one URL a reader requests.
type target struct {
	model int
	pageRef
	url *url.URL
	uri string
}

// plan is everything a workload needs before a catalog exists: the
// inputs, the oracle's revision-0 answers, and the read targets.
type plan struct {
	w          *workload
	models     []*model
	facts      [][]string // fact class ids per model
	multiOrder [][]string // pages of the unfocused multi-page site per model
	oracle     *oracle
	targets    []target
	byURI      map[string]int
	load       []int // targets the workload reads
	probes     []int // targets the set-up probes
}

func newPlan(w *workload) (*plan, error) {
	models, err := loadModels()
	if err != nil {
		return nil, err
	}
	p := &plan{w: w, models: models, oracle: newOracle(models), byURI: map[string]int{}}
	for mi, m := range models {
		mod, err := core.ModelFromXMLString(string(m.base))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", m.name, err)
		}
		var facts []string
		for _, fc := range mod.Facts {
			facts = append(facts, fc.ID)
		}
		p.facts = append(p.facts, facts)
		site, err := p.oracle.site(mi, 0, multi(""))
		if err != nil {
			return nil, err
		}
		p.multiOrder = append(p.multiOrder, site.order)
	}
	for mi := range models {
		if w.reads != nil {
			for _, ref := range w.reads(p, mi) {
				p.load = append(p.load, p.target(mi, ref))
			}
		}
		for _, ref := range probePresentations(p, mi) {
			p.probes = append(p.probes, p.target(mi, ref))
		}
	}
	for _, t := range p.targets {
		if _, err := p.oracle.page(t.model, 0, t.key, t.page); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// target returns the index of the target for (model, ref), adding it on
// first use.
func (p *plan) target(model int, ref pageRef) int {
	u := &url.URL{Path: "/m/" + p.models[model].name + "/single"}
	if ref.key.mode == htmlgen.MultiPage {
		u.Path = "/m/" + p.models[model].name + "/site/" + ref.page
	}
	if ref.key.focus != "" {
		u.RawQuery = "focus=" + url.QueryEscape(ref.key.focus)
	}
	uri := u.RequestURI()
	if i, ok := p.byURI[uri]; ok {
		return i
	}
	p.targets = append(p.targets, target{model: model, pageRef: ref, url: u, uri: uri})
	p.byURI[uri] = len(p.targets) - 1
	return len(p.targets) - 1
}

// fixture is a loaded catalog plus the bookkeeping the oracle needs.
type fixture struct {
	*plan
	cat     *catalog.Catalog
	handler http.Handler
	setup   time.Duration
	tr      *tracer // nil when untraced

	// stamps[m][g-1] is the revision stamp model m went live with at
	// generation g. Each model's history is appended only by the one
	// client that owns the model's writes.
	stamps [][]int
}

// setUp builds the catalog, loads every model at revision 0, probes every
// presentation kind and, for a warm workload, requests every read target
// with gzip. It returns the set-up client, whose ops the caller checks.
func (p *plan) setUp(tr *tracer) (*fixture, *client, error) {
	f := &fixture{plan: p, tr: tr, stamps: make([][]int, len(p.models))}
	c := f.newClient()
	if tr != nil {
		c.spans = tr.newSpanBuf()
	}
	runtime.GC()
	start := time.Now()
	f.cat = catalog.New(catalog.Options{CacheSize: p.w.cacheSize, DisableRetry: true})
	for mi := range p.models {
		c.swap(mi, 0, time.Time{})
	}
	f.handler = f.cat.Handler()
	for _, ti := range p.probes {
		c.read(ti, true, false, true)
		c.read(ti, false, false, false)
		c.read(ti, false, true, false)
	}
	if p.w.warm {
		for _, ti := range p.load {
			c.read(ti, true, false, false)
		}
	}
	f.setup = time.Since(start)
	if c.failed() > 0 {
		f.cat.Close()
		return nil, nil, fmt.Errorf("set-up: %d failed operations, first: %s", c.failed(), c.problems[0])
	}
	return f, c, nil
}

// sink is the in-process ResponseWriter: headers are kept so the client
// can check them, body bytes are counted and, when asked, copied.
type sink struct {
	header http.Header
	status int
	n      int64
	keep   bool
	body   []byte
}

func (s *sink) Header() http.Header { return s.header }

func (s *sink) WriteHeader(code int) {
	if s.status == 0 {
		s.status = code
	}
}

func (s *sink) Write(p []byte) (int, error) {
	if s.status == 0 {
		s.status = http.StatusOK
	}
	s.n += int64(len(p))
	if s.keep {
		s.body = append(s.body, p...)
	}
	return len(p), nil
}

func (s *sink) reset(keep bool) {
	clear(s.header)
	s.status, s.n, s.keep, s.body = 0, 0, keep, nil
}

// opStats counts one client's operations.
type opStats struct {
	reads, readFails int
	swaps, swapFails int
	n304             int
	wire             int64 // body bytes written to readers
}

// observation is a read whose check waits for the run to end, because
// the revision it was served from is known only then.
type observation struct {
	target int32
	gen    uint32
	size   int32 // identity body size, or -1 when the body was gzip or empty
	etag   string
}

type gzipSample struct {
	target int
	gen    uint64
	body   []byte
}

// client is one load goroutine's state: its request, its response sink,
// the ETags it learned, its latency samples and its pending checks.
type client struct {
	f      *fixture
	lat    *latencies
	late   *latencies // open loop only: how late each op started
	req    *http.Request
	inm    []string
	sink   *sink
	etags  []string
	stats  opStats
	spans  *spanBuf // non-nil while tracing
	replay *sink    // the serve replay's ResponseWriter
	mirror bool     // keep the tracer's cache mirror in step

	deferred map[observation]int
	samples  []gzipSample
	problems []string
}

var acceptGzip = []string{"gzip"}

func (f *fixture) newClient() *client {
	req := (&http.Request{
		Method: http.MethodGet,
		Proto:  "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
		Header:     make(http.Header, 2),
		Host:       "bench.local",
		RemoteAddr: "127.0.0.1:0",
	}).WithContext(context.Background())
	return &client{
		f:        f,
		lat:      newLatencies(),
		late:     newLatencies(),
		req:      req,
		inm:      make([]string, 1),
		sink:     &sink{header: make(http.Header, 8)},
		etags:    make([]string, len(f.targets)),
		deferred: map[observation]int{},
		mirror:   f.tr != nil,
	}
}

func (c *client) failed() int { return c.stats.readFails + c.stats.swapFails }

func (c *client) problem(format string, args ...any) {
	if len(c.problems) < 5 {
		c.problems = append(c.problems, fmt.Sprintf(format, args...))
	}
}

// read sends one GET for target ti through the catalog handler and checks
// the response.
func (c *client) read(ti int, gz, cond, sample bool) {
	t := &c.f.targets[ti]
	req := c.req
	req.URL, req.RequestURI = t.url, t.uri
	delete(req.Header, "Accept-Encoding")
	delete(req.Header, "If-None-Match")
	if gz {
		req.Header["Accept-Encoding"] = acceptGzip
	}
	inm := ""
	if cond && c.etags[ti] != "" {
		inm = c.etags[ti]
		c.inm[0] = inm
		req.Header["If-None-Match"] = c.inm
	}
	c.sink.reset(sample)
	start := time.Now()
	c.f.handler.ServeHTTP(c.sink, req)
	end := time.Now()
	c.stats.reads++
	if err := c.check(ti, gz, inm); err != nil {
		c.stats.readFails++
		c.lat.fail()
		c.problem("GET %s: %v", t.uri, err)
		return
	}
	c.lat.add(end.Sub(start))
	if c.spans != nil {
		c.traceRead(ti, start, end)
	} else if c.mirror {
		c.f.tr.mirror.read(t.model, t.key)
	}
}

// check validates one response against the oracle. Reads served from
// revision 0 are checked at once; later revisions are recorded and
// checked when the run ends.
func (c *client) check(ti int, gz bool, inm string) error {
	s := c.sink
	t := &c.f.targets[ti]
	gen, err := strconv.ParseUint(first(s.header[server.GenerationHeader]), 10, 32)
	if err != nil || gen == 0 {
		return fmt.Errorf("status %d without a generation header", s.status)
	}
	etag := first(s.header["Etag"])
	if etag == "" {
		return fmt.Errorf("status %d without an ETag", s.status)
	}
	size := int32(-1)
	switch s.status {
	case http.StatusNotModified:
		if inm == "" || inm != etag {
			return fmt.Errorf("304 for If-None-Match %q, ETag %s", inm, etag)
		}
		c.stats.n304++
	case http.StatusOK:
		switch enc := first(s.header["Content-Encoding"]); {
		case enc == "gzip" && !gz:
			return fmt.Errorf("gzip body without Accept-Encoding")
		case enc == "gzip":
			if s.keep {
				c.samples = append(c.samples, gzipSample{target: ti, gen: gen, body: s.body})
			}
		case enc != "":
			return fmt.Errorf("unexpected Content-Encoding %q", enc)
		default:
			size = int32(s.n)
		}
		c.stats.wire += s.n
		c.etags[ti] = etag
	default:
		return fmt.Errorf("status %d", s.status)
	}
	if gen != 1 {
		c.deferred[observation{target: int32(ti), gen: uint32(gen), size: size, etag: etag}]++
		return nil
	}
	want, err := c.f.oracle.page(t.model, 0, t.key, t.page)
	if err != nil {
		return err
	}
	if etag != want.ETag() {
		return fmt.Errorf("generation 1: ETag %s, want %s", etag, want.ETag())
	}
	if size >= 0 && int64(size) != want.Size() {
		return fmt.Errorf("generation 1: %d body bytes, want %d", size, want.Size())
	}
	return nil
}

func first(vs []string) string {
	if len(vs) == 0 {
		return ""
	}
	return vs[0]
}

// swap stages revision stamp of model mi through Catalog.Set. An
// open-loop op's latency counts from due, when it was scheduled; a
// closed-loop op passes the zero time and counts from its start.
func (c *client) swap(mi, stamp int, due time.Time) {
	f := c.f
	m := f.models[mi]
	src := m.source(stamp)
	start := time.Now()
	if due.IsZero() {
		due = start
	} else {
		c.late.add(start.Sub(due))
	}
	err := f.cat.Set(context.Background(), m.name, src)
	end := time.Now()
	c.stats.swaps++
	gen := f.cat.Server(m.name).Generation()
	want := uint64(len(f.stamps[mi]) + 1)
	if err == nil && gen != want {
		err = fmt.Errorf("generation %d after commit, want %d", gen, want)
	}
	if err != nil {
		c.stats.swapFails++
		c.lat.fail()
		c.problem("Set %s revision %d: %v", m.name, stamp, err)
		return
	}
	f.stamps[mi] = append(f.stamps[mi], stamp)
	c.lat.add(end.Sub(due))
	if c.spans != nil {
		c.traceSwap(mi, stamp, src, start, end)
	} else if c.mirror {
		f.tr.mirror.commit(mi, stamp, nil, nil)
	}
}

// readGen draws one reader's requests from the seed: the target, and
// whether the request accepts gzip, revalidates with a learned ETag, and
// keeps its body for the gzip check.
type readGen struct {
	rng     *rand.Rand
	targets []int
}

func (g *readGen) next() (ti int, gz, cond, sample bool) {
	ti = g.targets[g.rng.Intn(len(g.targets))]
	gz = g.rng.Float64() < gzipShare
	cond = g.rng.Float64() < condShare
	sample = g.rng.Intn(sampleEvery) == 0
	return
}

// swapGen draws one writer's revisions from the seed: which model each
// targets and its revision stamp.
type swapGen struct {
	rng    *rand.Rand
	models []int
}

func (g *swapGen) next() (model, stamp int) {
	return g.models[g.rng.Intn(len(g.models))], 1 + g.rng.Intn(maxStamp)
}

// load is a workload's clients and their generators. It lives across
// the phases of a run, so each client's sequence continues where the
// previous phase stopped it.
type load struct {
	readers  []*client
	readGens []*readGen
	writers  []*client
	swapGens []*swapGen
	open     *client // the open-loop writer, if any; reader 0 drives it
	openGen  *swapGen
}

// newLoad splits the workload among goroutines: never more readers or
// closed-loop writers than CPUs, readers that own models read only those
// models' targets, and writers own alternate models so no two revise
// one model. Generators are seeded per goroutine, so each client's
// sequence depends only on the seed and its own index.
func (f *fixture) newLoad(seed int64) *load {
	l := &load{}
	nproc := runtime.NumCPU()
	if n := min(f.w.readers, nproc); n > 0 {
		targets := make([][]int, n)
		for _, ti := range f.load {
			if f.w.ownModels {
				r := f.targets[ti].model % n
				targets[r] = append(targets[r], ti)
				continue
			}
			for r := range targets {
				targets[r] = append(targets[r], ti)
			}
		}
		for id, ts := range targets {
			l.readers = append(l.readers, f.newClient())
			l.readGens = append(l.readGens, newReadGen(seed, id, ts))
		}
	}
	if n := min(f.w.writers, nproc); n > 0 {
		models := make([][]int, n)
		for mi := range f.models {
			models[mi%n] = append(models[mi%n], mi)
		}
		for id, ms := range models {
			l.writers = append(l.writers, f.newClient())
			l.swapGens = append(l.swapGens, newSwapGen(seed, id, ms))
		}
	}
	if f.w.writeRate > 0 {
		all := make([]int, len(f.models))
		for mi := range all {
			all[mi] = mi
		}
		l.open = f.newClient()
		l.openGen = newSwapGen(seed, len(l.writers), all)
	}
	return l
}

func newReadGen(seed int64, id int, targets []int) *readGen {
	return &readGen{rng: rand.New(rand.NewSource(seed*7919 + int64(id))), targets: targets}
}

func newSwapGen(seed int64, id int, models []int) *swapGen {
	return &swapGen{rng: rand.New(rand.NewSource(seed*7919 + 1000 + int64(id))), models: models}
}

// phaseResult is one measured phase: its wall time, and per role the
// latency samples and op counts of that phase alone.
type phaseResult struct {
	elapsed          time.Duration
	reads, swaps     []*latencies
	late             []*latencies
	readOps, swapOps opStats
}

// run drives the load for d and waits for every client to stop. A
// closed-loop client stops at its first look at the stop flag after d;
// a traced client also stops when its span buffer is full.
func (f *fixture) run(l *load, d time.Duration, traced bool) *phaseResult {
	var stop atomic.Bool
	var wg sync.WaitGroup
	reset := func(c *client) {
		c.lat, c.late, c.stats = newLatencies(), newLatencies(), opStats{}
		if traced && c.spans == nil {
			c.spans = f.tr.newSpanBuf()
		}
	}
	start := time.Now()
	for i, c := range l.readers {
		g := l.readGens[i]
		// Reader 0 also issues the open-loop revisions: before each read it
		// stages every revision that has fallen due on the schedule, each
		// timed from its due time. The writer needs no goroutine of its
		// own, so the load never runs more goroutines than CPUs.
		var w *client
		var interval time.Duration
		if i == 0 && l.open != nil {
			w, interval = l.open, time.Duration(float64(time.Second)/f.w.writeRate)
			reset(w)
		}
		reset(c)
		wg.Add(1)
		go func() {
			defer wg.Done()
			due := start
			for !stop.Load() && !c.spans.full() {
				for w != nil && !time.Now().Before(due) && !stop.Load() && !w.spans.full() {
					mi, stamp := l.openGen.next()
					w.swap(mi, stamp, due)
					due = due.Add(interval)
				}
				c.read(g.next())
			}
		}()
	}
	for i, c := range l.writers {
		g := l.swapGens[i]
		reset(c)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() && !c.spans.full() {
				mi, stamp := g.next()
				c.swap(mi, stamp, time.Time{})
			}
		}()
	}
	timer := time.AfterFunc(d, func() { stop.Store(true) })
	wg.Wait()
	res := &phaseResult{elapsed: time.Since(start)}
	timer.Stop()
	for _, c := range l.readers {
		res.reads = append(res.reads, c.lat)
		res.readOps.add(c.stats)
	}
	for _, c := range l.all()[len(l.readers):] {
		res.swaps = append(res.swaps, c.lat)
		res.late = append(res.late, c.late)
		res.swapOps.add(c.stats)
	}
	return res
}

func (s *opStats) add(o opStats) {
	s.reads += o.reads
	s.readFails += o.readFails
	s.swaps += o.swaps
	s.swapFails += o.swapFails
	s.n304 += o.n304
	s.wire += o.wire
}

// all lists every client of the load, readers first.
func (l *load) all() []*client {
	cs := append(append([]*client{}, l.readers...), l.writers...)
	if l.open != nil {
		cs = append(cs, l.open)
	}
	return cs
}

// verify runs the checks that had to wait for the run to end: each
// deferred read against the revision live at its generation, each gzip
// sample decompressed against the identity bytes, and each model's final
// status against the revisions its writer committed. It returns the
// number of failed operations it found.
func (f *fixture) verify(clients []*client) (int, []string) {
	failed := 0
	var problems []string
	bad := func(n int, format string, args ...any) {
		failed += n
		if len(problems) < 5 {
			problems = append(problems, fmt.Sprintf(format, args...))
		}
	}
	expect := func(ti int, gen uint64) (*target, int, error) {
		t := &f.targets[ti]
		if gen == 0 || gen > uint64(len(f.stamps[t.model])) {
			return t, 0, fmt.Errorf("generation %d was never committed", gen)
		}
		return t, f.stamps[t.model][gen-1], nil
	}
	for _, c := range clients {
		for ob, n := range c.deferred {
			t, stamp, err := expect(int(ob.target), uint64(ob.gen))
			if err != nil {
				bad(n, "GET %s: %v", t.uri, err)
				continue
			}
			want, err := f.oracle.page(t.model, stamp, t.key, t.page)
			switch {
			case err != nil:
				bad(n, "GET %s: %v", t.uri, err)
			case ob.etag != want.ETag():
				bad(n, "GET %s generation %d: ETag %s, want %s", t.uri, ob.gen, ob.etag, want.ETag())
			case ob.size >= 0 && int64(ob.size) != want.Size():
				bad(n, "GET %s generation %d: %d body bytes, want %d", t.uri, ob.gen, ob.size, want.Size())
			}
		}
		for _, s := range c.samples {
			t, stamp, err := expect(s.target, s.gen)
			if err == nil {
				var want *artifact.Artifact
				if want, err = f.oracle.page(t.model, stamp, t.key, t.page); err == nil {
					err = gunzipEquals(s.body, want.Bytes())
				}
			}
			if err != nil {
				bad(1, "GET %s gzip body: %v", t.uri, err)
			}
		}
	}
	for _, st := range f.cat.Status() {
		mi := f.modelIndex(st.Name)
		stamps := f.stamps[mi]
		sum := sha256.Sum256(f.models[mi].source(stamps[len(stamps)-1]))
		switch {
		case !st.Ready || st.Stale:
			bad(1, "model %s: ready=%v stale=%v (%s)", st.Name, st.Ready, st.Stale, st.LastError)
		case st.Generation != uint64(len(stamps)):
			bad(1, "model %s: generation %d, want %d", st.Name, st.Generation, len(stamps))
		case st.SourceSum != hex.EncodeToString(sum[:8]):
			bad(1, "model %s: source sum %s, want the last committed revision's", st.Name, st.SourceSum)
		}
	}
	return failed, problems
}

func gunzipEquals(gz, want []byte) error {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return err
	}
	got, err := io.ReadAll(zr)
	if err != nil {
		return err
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("decompresses to %d bytes that differ from the %d identity bytes", len(got), len(want))
	}
	return nil
}

func (p *plan) modelIndex(name string) int {
	for i, m := range p.models {
		if m.name == name {
			return i
		}
	}
	return -1
}
