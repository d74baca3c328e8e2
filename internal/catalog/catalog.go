// Package catalog manages a registry of named multidimensional models,
// each served by its own internal/server instance, with resilient hot
// swaps: every model transition runs a staged pipeline (parse →
// xsd-validate → lint gate → shadow publish → atomic generation bump)
// and any stage failure rolls back to the last-good snapshot. Each
// transition validates its input once, in one pass whose result the lint
// gate reuses and whose document the snapshot publishes. A
// background reloader retries failed loads with exponential backoff and
// seeded jitter under a per-model circuit breaker, so one corrupt model
// file degrades exactly one model — which keeps serving its last-good
// site, marked stale — and never takes the catalog down.
package catalog

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"goldweb/internal/analysis"
	"goldweb/internal/core"
	"goldweb/internal/server"
	"goldweb/internal/xmldom"
	"goldweb/internal/xsd"
)

// Sentinel errors callers can test with errors.Is.
var (
	// ErrUnknownModel: the name is not registered in the catalog.
	ErrUnknownModel = errors.New("unknown model")
	// ErrBreakerOpen: the model's circuit breaker is rejecting publish
	// attempts; retry after the cooldown.
	ErrBreakerOpen = errors.New("circuit breaker open")
)

// LoadFunc fetches the raw XML source for a named model. The catalog
// calls it on Add, Reload, and from the background retry loop.
type LoadFunc func(ctx context.Context, name string) ([]byte, error)

// DirLoader returns a LoadFunc reading <dir>/<name>.xml.
func DirLoader(dir string) LoadFunc {
	return func(_ context.Context, name string) ([]byte, error) {
		return os.ReadFile(filepath.Join(dir, name+".xml"))
	}
}

// DirModels lists the model names (*.xml basenames) under dir, sorted.
func DirModels(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, ent := range ents {
		if ent.IsDir() || !strings.HasSuffix(ent.Name(), ".xml") {
			continue
		}
		names = append(names, strings.TrimSuffix(ent.Name(), ".xml"))
	}
	sort.Strings(names)
	return names, nil
}

// LintPolicy controls the lint gate stage of a staged swap.
type LintPolicy string

const (
	// LintStrict (the default): error-severity lint findings fail the
	// swap and roll back — a model that lints dirty never goes live.
	LintStrict LintPolicy = "strict"
	// LintWarn: findings are reported via the event hook but don't gate.
	LintWarn LintPolicy = "warn"
	// LintOff: the lint stage is skipped entirely.
	LintOff LintPolicy = "off"
)

// EventType classifies catalog lifecycle events.
type EventType int

const (
	// EventSwapCommitted: a staged swap went live (Gen is the new generation).
	EventSwapCommitted EventType = iota
	// EventStageFailed: a pipeline stage failed and the swap rolled back
	// (Stage names the stage, Err the cause).
	EventStageFailed
	// EventRetryScheduled: the background reloader scheduled the next
	// attempt (Attempt counts failures so far, Delay the backoff chosen).
	EventRetryScheduled
	// EventBreakerOpened: the model's circuit breaker tripped open.
	EventBreakerOpened
	// EventBreakerClosed: a successful publish closed the breaker again.
	EventBreakerClosed
	// EventLintFindings: the lint stage produced findings under LintWarn
	// (Err carries a summary; the swap proceeds).
	EventLintFindings
)

func (t EventType) String() string {
	switch t {
	case EventSwapCommitted:
		return "swap-committed"
	case EventStageFailed:
		return "stage-failed"
	case EventRetryScheduled:
		return "retry-scheduled"
	case EventBreakerOpened:
		return "breaker-opened"
	case EventBreakerClosed:
		return "breaker-closed"
	case EventLintFindings:
		return "lint-findings"
	}
	return "unknown"
}

// Event is one catalog lifecycle observation, delivered synchronously
// to Options.OnEvent. Handlers must be fast and must not call back into
// the catalog for the same model (the entry lock is held).
type Event struct {
	Model   string
	Type    EventType
	Stage   string // pipeline stage for failures: load, parse, validate, lint, publish, commit
	Gen     uint64
	Err     error
	Attempt int
	Delay   time.Duration
}

// Options configures a Catalog. The zero value works for a loader-less
// catalog fed via Set.
type Options struct {
	// Loader fetches model source by name; required for Add/Reload and
	// the background retry loop.
	Loader LoadFunc
	// PublishHook runs before every publication of each model server:
	// the shadow publish of a swap (page "") and each request-path page
	// publication. It can fail, block or panic a publication but never
	// replaces its output (the fault-injection seam; may be nil).
	PublishHook server.PublishHook
	// Lint is the lint-gate policy (default LintStrict).
	Lint LintPolicy
	// Schema is the XML Schema models validate and lint against. Nil
	// means the embedded GOLD schema; set it (e.g. via xsd.LoadSchemaFile)
	// to refine that vocabulary: a document whose root is not goldmodel
	// still fails the validate stage. The stylesheets read GOLD
	// documents, so with a schema of its own the catalog publishes each
	// model's canonical GOLD document, not the input.
	Schema *xsd.Schema

	// BreakerThreshold is K: consecutive publish failures before the
	// model's circuit opens. 0 means the default; negative disables the
	// breaker.
	BreakerThreshold int
	// BreakerCooldown is how long an open circuit rejects attempts
	// before admitting a half-open probe.
	BreakerCooldown time.Duration

	// DisableRetry turns the background reloader off: failed loads are
	// reported but only retried on explicit Reload.
	DisableRetry bool
	// RetryBase and RetryMax bound the exponential backoff between
	// automatic retries of a failing model.
	RetryBase time.Duration
	RetryMax  time.Duration
	// Seed makes retry jitter (and nothing else) deterministic.
	Seed int64

	// StageTimeout bounds one staged swap end to end, so a hung publish
	// rolls back instead of wedging the model's swap lock.
	StageTimeout time.Duration

	// RequestTimeout, MaxInflight and CacheSize are passed through to
	// each model's server (zero means that server default). RequestTimeout
	// bounds how long a request waits for a publication: 504 past it,
	// negative disables. CacheSize counts cache entries, each a whole
	// presentation or a single page of a multi-page presentation.
	RequestTimeout time.Duration
	MaxInflight    int
	CacheSize      int
	// CacheBytes bounds each model server's presentation cache by
	// summed artifact bytes (zero means the server default; negative
	// disables the byte budget). All model servers intern into the
	// shared content store, so byte-identical pages across models or
	// generations are stored once and keep stable ETags.
	CacheBytes int64
	// NoCompress disables precompressed gzip variants: every response
	// is served as identity regardless of Accept-Encoding.
	NoCompress bool

	// OnEvent observes catalog lifecycle events (may be nil).
	OnEvent func(Event)
	// Now is the clock used by circuit breakers (tests inject one).
	Now func() time.Time
	// ParseLimits bounds model XML parsing (zero value: xmldom defaults).
	ParseLimits xmldom.Limits
}

// Catalog-level defaults.
const (
	DefaultBreakerThreshold = 5
	DefaultBreakerCooldown  = 5 * time.Second
	DefaultRetryBase        = 100 * time.Millisecond
	DefaultRetryMax         = 30 * time.Second
	DefaultStageTimeout     = 30 * time.Second
)

// entry is one registered model: its dedicated server plus the
// resilience state around it.
type entry struct {
	name    string
	srv     *server.Server
	breaker *breaker

	// swapMu serializes staged swaps and retry bookkeeping for this
	// model: a capacity-1 token channel rather than a sync.Mutex so
	// acquisition can observe context cancellation. Swaps hold the lock
	// for a full pipeline run (up to StageTimeout), so a caller whose
	// context dies while queued must unblock with an error instead of
	// joining an unbounded convoy. Neither the serving path nor Status
	// takes it.
	swapMu chan struct{}
	// state is the outcome of the last finished attempt, replaced whole
	// where an attempt ends. It is written only under the swap lock and
	// read without it, so a status read never waits for a swap.
	state    atomic.Pointer[entryState]
	retrying bool // a retry loop goroutine is active (under the swap lock)
}

// entryState is one model's record as of its last finished attempt.
type entryState struct {
	hasGood bool   // a last-good snapshot is live
	gen     uint64 // generation of the last committed swap
	srcSum  string // sha256 (truncated) of the last committed source
	consec  int    // consecutive failed attempts since last success
	lastErr error
}

// lock acquires the swap lock unconditionally. Hold times are bounded
// by the stage timeout, so unconditional acquisition is safe where no
// caller context exists (retry bookkeeping).
func (e *entry) lock() { <-e.swapMu }

// lockCtx acquires the swap lock or gives up when ctx ends, so a
// canceled caller never queues behind a slow pipeline run.
func (e *entry) lockCtx(ctx context.Context) error {
	select {
	case <-e.swapMu:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (e *entry) unlock() { e.swapMu <- struct{}{} }

// Catalog is a resilient registry of named models.
type Catalog struct {
	opts   Options
	schema *xsd.Schema

	// mu serializes writers of the entry map. Readers load entries, a
	// copy-on-write map republished after each change, without a lock.
	mu      sync.Mutex
	entries atomic.Pointer[map[string]*entry]

	// ctx parents retry loops; cancel fires in Close.
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	rngMu sync.Mutex
	rng   *rand.Rand
}

// New creates a catalog. Close releases its background work.
func New(opts Options) *Catalog {
	if opts.Lint == "" {
		opts.Lint = LintStrict
	}
	if opts.BreakerThreshold == 0 {
		opts.BreakerThreshold = DefaultBreakerThreshold
	}
	if opts.BreakerCooldown <= 0 {
		opts.BreakerCooldown = DefaultBreakerCooldown
	}
	if opts.RetryBase <= 0 {
		opts.RetryBase = DefaultRetryBase
	}
	if opts.RetryMax < opts.RetryBase {
		opts.RetryMax = DefaultRetryMax
	}
	if opts.StageTimeout <= 0 {
		opts.StageTimeout = DefaultStageTimeout
	}
	if opts.ParseLimits == (xmldom.Limits{}) {
		opts.ParseLimits = xmldom.DefaultLimits
	}
	// Zero means the server default; negative disables the knob.
	if opts.RequestTimeout == 0 {
		opts.RequestTimeout = server.DefaultRequestTimeout
	} else if opts.RequestTimeout < 0 {
		opts.RequestTimeout = 0
	}
	if opts.MaxInflight == 0 {
		opts.MaxInflight = server.DefaultMaxInflight
	} else if opts.MaxInflight < 0 {
		opts.MaxInflight = 0
	}
	if opts.CacheSize == 0 {
		opts.CacheSize = server.DefaultCacheSize
	}
	schema := opts.Schema
	if schema == nil {
		schema = core.MustSchema()
	}
	c := &Catalog{
		opts:   opts,
		schema: schema,
		rng:    rand.New(rand.NewSource(opts.Seed)),
	}
	c.entries.Store(&map[string]*entry{})
	c.ctx, c.cancel = context.WithCancel(context.Background())
	return c
}

// Close stops the background reloader, waits for retry loops to exit,
// and closes every model server (canceling in-flight publications).
func (c *Catalog) Close() {
	c.cancelWork()
	c.waitWork()
}

// cancelWork stops the catalog's background work without waiting for
// it: the retry loops and every model's in-flight publications.
func (c *Catalog) cancelWork() {
	c.cancel()
	for _, e := range *c.entries.Load() {
		e.srv.Cancel()
	}
}

// waitWork waits for the retry loops to exit and closes every model
// server, each waiting at most server.DefaultShutdownGrace for its
// publications.
func (c *Catalog) waitWork() {
	c.wg.Wait()
	for _, e := range *c.entries.Load() {
		e.srv.Close()
	}
}

// serverOptions builds the per-model server configuration.
func (c *Catalog) serverOptions() []server.Option {
	// The catalog's shared middleware applies the limiter once for all
	// models; per-model servers only need the pipeline hook, cache sizing,
	// and the request timeout that bounds a wait for a publication.
	opts := []server.Option{
		server.WithMaxInflight(0),
		server.WithRequestTimeout(c.opts.RequestTimeout),
	}
	if c.opts.CacheSize > 0 {
		opts = append(opts, server.WithCacheSize(c.opts.CacheSize))
	}
	if c.opts.CacheBytes != 0 {
		opts = append(opts, server.WithCacheBytes(c.opts.CacheBytes))
	}
	if c.opts.NoCompress {
		opts = append(opts, server.WithCompression(false))
	}
	if c.opts.PublishHook != nil {
		opts = append(opts, server.WithPublishHook(c.opts.PublishHook))
	}
	return opts
}

// ensure returns the entry for name, registering it if new.
func (c *Catalog) ensure(name string) *entry {
	c.mu.Lock()
	defer c.mu.Unlock()
	old := *c.entries.Load()
	if e, ok := old[name]; ok {
		return e
	}
	e := &entry{
		name:    name,
		srv:     server.NewEmpty(c.serverOptions()...),
		breaker: newBreaker(c.opts.BreakerThreshold, c.opts.BreakerCooldown, c.opts.Now),
		swapMu:  make(chan struct{}, 1),
	}
	e.swapMu <- struct{}{} // the unlocked token
	e.state.Store(&entryState{})
	next := maps.Clone(old)
	next[name] = e
	c.entries.Store(&next)
	return e
}

// get returns the entry for name, or nil.
func (c *Catalog) get(name string) *entry { return (*c.entries.Load())[name] }

// Names returns the registered model names, sorted.
func (c *Catalog) Names() []string {
	entries := *c.entries.Load()
	names := make([]string, 0, len(entries))
	for name := range entries {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Server returns the underlying server for name (nil if unknown) —
// mainly for tests and diagnostics.
func (c *Catalog) Server(name string) *server.Server {
	if e := c.get(name); e != nil {
		return e.srv
	}
	return nil
}

// Add registers name and attempts its first load through the staged
// pipeline. On failure the model stays registered (serving 503 until a
// retry succeeds) and the background reloader takes over; the error
// describes the failed stage.
func (c *Catalog) Add(ctx context.Context, name string) error {
	if c.opts.Loader == nil {
		return errors.New("catalog: Add requires a Loader")
	}
	return c.attempt(ctx, c.ensure(name), nil)
}

// Set stages data as the source of model name (registering it if new)
// through the full pipeline. On any stage failure the model keeps
// serving its last-good snapshot (marked stale) and the error reports
// the stage that failed.
func (c *Catalog) Set(ctx context.Context, name string, data []byte) error {
	return c.attempt(ctx, c.ensure(name), data)
}

// Reload re-fetches name through the Loader and stages the result.
// Returns ErrUnknownModel for unregistered names and ErrBreakerOpen
// while the model's circuit is rejecting attempts.
func (c *Catalog) Reload(ctx context.Context, name string) error {
	e := c.get(name)
	if e == nil {
		return fmt.Errorf("%w: %q", ErrUnknownModel, name)
	}
	if c.opts.Loader == nil {
		return errors.New("catalog: Reload requires a Loader")
	}
	return c.attempt(ctx, e, nil)
}

// attempt runs one breaker-gated load+stage attempt for e. data == nil
// means "fetch via the Loader". The swap lock serializes swaps; a
// caller whose context ends while queued fails without touching the
// breaker — like a breaker rejection, nothing was attempted.
func (c *Catalog) attempt(ctx context.Context, e *entry, data []byte) error {
	if err := e.lockCtx(ctx); err != nil {
		return fmt.Errorf("swap wait: model %q: %w", e.name, err)
	}
	defer e.unlock()
	return c.attemptLocked(ctx, e, data)
}

func (c *Catalog) attemptLocked(ctx context.Context, e *entry, data []byte) (err error) {
	if !e.breaker.Allow() {
		return fmt.Errorf("%w: model %q (cooling down %v)", ErrBreakerOpen, e.name, e.breaker.wait().Round(time.Millisecond))
	}
	stage := "load"
	var committed entryState // what a successful attempt publishes
	defer func() {
		// A panicking loader or publish pipeline must roll back like any
		// other stage failure, not crash the catalog. The panic value is
		// preserved as an error so fault classification (errors.Is on
		// faultinject.ErrInjected) still works through the recovery.
		if rec := recover(); rec != nil {
			if rerr, ok := rec.(error); ok {
				err = fmt.Errorf("%s: panic: %w", stage, rerr)
			} else {
				err = fmt.Errorf("%s: panic: %v", stage, rec)
			}
		}
		if err != nil {
			c.noteFailureLocked(e, stage, err)
		} else {
			c.noteSuccessLocked(e, &committed)
		}
	}()

	sctx, cancel := context.WithTimeout(ctx, c.opts.StageTimeout)
	defer cancel()

	if data == nil {
		data, err = c.opts.Loader(sctx, e.name)
		if err != nil {
			return fmt.Errorf("load: %w", err)
		}
	}

	// Stage 1: parse (bounded, cancelable).
	stage = "parse"
	doc, perr := xmldom.ParseContext(sctx, data, c.opts.ParseLimits)
	if perr != nil {
		return fmt.Errorf("parse: %w", perr)
	}

	// Stage 2: validation — one pass over the input that applies schema
	// defaults, freezes the document and evaluates key/keyref on the
	// frozen tree — plus model construction. Only structural and type
	// errors fail here; referential (key/keyref) violations are the lint
	// gate's to report, with the governing key named.
	stage = "validate"
	val := c.schema.ValidateAndFreeze(doc, xsd.ValidateOptions{ApplyDefaults: true})
	if verrs := val.StructuralErrors(); len(verrs) > 0 {
		return fmt.Errorf("validate: %v (%d problems)", verrs[0], len(verrs))
	}
	m, merr := core.ModelFromXML(val.Doc)
	if merr != nil {
		return fmt.Errorf("validate: %w", merr)
	}

	// Stage 3: lint gate, over the validation result (no second pass).
	stage = "lint"
	if c.opts.Lint != LintOff {
		diags := analysis.LintValidated(e.name+".xml", val)
		if analysis.HasErrors(diags) {
			summary := fmt.Errorf("lint: %d findings, first: %s", len(diags), diags[0])
			if c.opts.Lint == LintStrict {
				return summary
			}
			c.emit(Event{Model: e.name, Type: EventLintFindings, Err: summary})
		}
	}

	// Stage 4: shadow publish of the document stage 2 validated, with its
	// key/keyref errors: they are the backstop when the gate is off or
	// only warns. The server runs the full publication pipeline without
	// touching the live snapshot, so a failure here leaves last-good
	// untouched. The stylesheets read GOLD documents, so a catalog with
	// its own schema publishes the model's canonical GOLD document.
	stage = "publish"
	pub := val
	if c.schema != core.MustSchema() {
		pub = core.ValidateAndFreeze(m.ToXML())
	}
	staged, serr := e.srv.Stage(sctx, m, pub)
	if serr != nil {
		return fmt.Errorf("publish: %w", serr)
	}

	// Stage 5: atomic generation bump.
	stage = "commit"
	sum := sha256.Sum256(data)
	committed = entryState{hasGood: true, gen: staged.Commit(), srcSum: hex.EncodeToString(sum[:8])}
	return nil
}

// noteFailureLocked records a failed attempt: breaker accounting, stale
// marking (the last-good site keeps serving), events, and — when a
// Loader is configured — scheduling the background retry.
func (c *Catalog) noteFailureLocked(e *entry, stage string, err error) {
	wasOpen := e.breaker.State() == BreakerOpen
	e.breaker.Failure()
	st := *e.state.Load()
	st.consec++
	st.lastErr = err
	e.state.Store(&st)
	if st.hasGood {
		e.srv.MarkStale(fmt.Sprintf("republish failing at stage %s", stage))
	}
	c.emit(Event{Model: e.name, Type: EventStageFailed, Stage: stage, Err: err, Attempt: st.consec})
	if !wasOpen && e.breaker.State() == BreakerOpen {
		c.emit(Event{Model: e.name, Type: EventBreakerOpened, Err: err, Attempt: st.consec})
	}
	c.scheduleRetryLocked(e)
}

// noteSuccessLocked records a committed swap: the breaker closes, the
// stale flag clears, and the model is last-good at st.gen.
func (c *Catalog) noteSuccessLocked(e *entry, st *entryState) {
	wasBroken := e.breaker.State() != BreakerClosed
	e.breaker.Success()
	e.state.Store(st)
	e.srv.ClearStale()
	c.emit(Event{Model: e.name, Type: EventSwapCommitted, Gen: st.gen})
	if wasBroken {
		c.emit(Event{Model: e.name, Type: EventBreakerClosed, Gen: st.gen})
	}
}

func (c *Catalog) emit(ev Event) {
	if c.opts.OnEvent != nil {
		c.opts.OnEvent(ev)
	}
}

// scheduleRetryLocked starts the per-model retry loop unless retries
// are disabled, no loader exists, or a loop is already running.
func (c *Catalog) scheduleRetryLocked(e *entry) {
	if c.opts.DisableRetry || c.opts.Loader == nil || e.retrying {
		return
	}
	if c.ctx.Err() != nil {
		return
	}
	e.retrying = true
	c.wg.Add(1)
	go c.retryLoop(e)
}

// retryLoop re-attempts a failing model with exponential backoff and
// seeded jitter until it recovers, the catalog closes, or the entry is
// removed. When the circuit is open the sleep stretches to at least the
// remaining cooldown so the wakeup lands on an admissible half-open probe.
func (c *Catalog) retryLoop(e *entry) {
	defer c.wg.Done()
	for {
		attempt := e.state.Load().consec
		delay := c.backoff(attempt)
		if bw := e.breaker.wait(); bw > delay {
			delay = bw
		}
		c.emit(Event{Model: e.name, Type: EventRetryScheduled, Attempt: attempt, Delay: delay})
		select {
		case <-c.ctx.Done():
			e.lock()
			e.retrying = false
			e.unlock()
			return
		case <-time.After(delay):
		}
		if c.get(e.name) != e {
			// The entry was removed (or replaced) while we slept.
			e.lock()
			e.retrying = false
			e.unlock()
			return
		}
		// ErrBreakerOpen is not a new failure: the attempt was rejected
		// before doing work, so consec (and hence the backoff) is
		// unchanged and the next sleep is dominated by breaker.wait.
		c.attempt(c.ctx, e, nil)
		e.lock()
		if e.state.Load().consec == 0 {
			// Recovered — or a concurrent Set/Reload succeeded while we
			// were sleeping. Checking under the swap lock closes the
			// race against a failure slipping in between our attempt and
			// this decision: any such failure bumps consec first.
			e.retrying = false
			e.unlock()
			return
		}
		e.unlock()
	}
}

// backoff returns RetryBase·2^(attempt-1) capped at RetryMax, with
// equal jitter (half fixed, half uniformly random) from the seeded
// generator so tests replay identical schedules.
func (c *Catalog) backoff(attempt int) time.Duration {
	if attempt < 1 {
		attempt = 1
	}
	d := c.opts.RetryBase
	for i := 1; i < attempt && d < c.opts.RetryMax; i++ {
		d *= 2
	}
	if d > c.opts.RetryMax {
		d = c.opts.RetryMax
	}
	half := d / 2
	c.rngMu.Lock()
	j := time.Duration(c.rng.Int63n(int64(half) + 1))
	c.rngMu.Unlock()
	return half + j
}

// Remove evicts name from the catalog and closes its server. The
// background retry loop (if any) exits on its next wakeup.
func (c *Catalog) Remove(name string) error {
	c.mu.Lock()
	old := *c.entries.Load()
	e, ok := old[name]
	if ok {
		next := maps.Clone(old)
		delete(next, name)
		c.entries.Store(&next)
	}
	c.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownModel, name)
	}
	e.srv.Close()
	return nil
}

// ModelStatus is one model's health snapshot as reported by Status and
// the /readyz endpoint.
type ModelStatus struct {
	Name       string `json:"name"`
	Ready      bool   `json:"ready"`
	Stale      bool   `json:"stale"`
	StaleWhy   string `json:"stale_reason,omitempty"`
	Generation uint64 `json:"generation"`
	Breaker    string `json:"breaker"`
	Failures   int    `json:"consecutive_failures,omitempty"`
	LastError  string `json:"last_error,omitempty"`
	SourceSum  string `json:"source_sum,omitempty"`
}

// Status reports every model's health, sorted by name, as of each
// model's last finished attempt: it never waits for a swap in progress.
func (c *Catalog) Status() []ModelStatus {
	entries := *c.entries.Load()
	out := make([]ModelStatus, 0, len(entries))
	for _, e := range entries {
		rec := e.state.Load()
		st := ModelStatus{
			Name:       e.name,
			Ready:      rec.hasGood,
			Generation: rec.gen,
			Breaker:    e.breaker.State().String(),
			Failures:   rec.consec,
			SourceSum:  rec.srcSum,
		}
		if rec.lastErr != nil {
			st.LastError = rec.lastErr.Error()
		}
		st.Stale, st.StaleWhy = e.srv.Stale()
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Ready reports whether every registered model has a live last-good
// snapshot (an empty catalog is ready).
func (c *Catalog) Ready() bool {
	for _, st := range c.Status() {
		if !st.Ready {
			return false
		}
	}
	return true
}
