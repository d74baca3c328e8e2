// Package catalog manages a registry of named multidimensional models,
// each served by its own internal/server instance, with resilient hot
// swaps: every model transition runs a staged pipeline (load → parse →
// validate → shadow publish → atomic generation bump) and any stage
// failure rolls back to the last-good snapshot. Each transition
// validates its input once, identity constraints included, and the
// snapshot publishes the document that pass validated. A
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
	}
	return "unknown"
}

// Event is one catalog lifecycle observation, delivered synchronously
// to Options.OnEvent. Handlers must be fast and must not call back into
// the catalog for the same model (the entry lock is held).
type Event struct {
	Model   string
	Type    EventType
	Stage   string // pipeline stage for failures: load, parse, validate, publish, commit
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
	// Schema is the XML Schema models validate against. Nil
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

	// RequestTimeout, MaxInflight, CacheSize, CacheBytes and NoCompress
	// are the serving settings, read as the server.Config fields of the
	// same names: zero means the default and a negative bound is off.
	// MaxInflight bounds the catalog's requests across all models; the
	// others apply to each model server. All model servers intern into
	// the shared content store, so byte-identical pages across models or
	// generations are stored once and keep stable ETags.
	RequestTimeout time.Duration
	MaxInflight    int
	CacheSize      int
	CacheBytes     int64
	NoCompress     bool

	// OnEvent observes catalog lifecycle events (may be nil).
	OnEvent func(Event)
	// Now is the clock the circuit breakers read (tests inject one); nil
	// means time.Now.
	Now func() time.Time
}

// Catalog-level defaults.
const (
	DefaultBreakerThreshold = 5
	DefaultBreakerCooldown  = 5 * time.Second
	DefaultRetryBase        = 100 * time.Millisecond
	DefaultRetryMax         = 30 * time.Second
	DefaultStageTimeout     = 30 * time.Second
)

// StaleHeader marks a response served from a model's last-good
// snapshot while its republish pipeline is failing; its value names the
// stage where the last attempt stopped.
const StaleHeader = "X-Goldweb-Stale"

// BreakerState is the circuit state of one model's publish pipeline.
type BreakerState int

const (
	// BreakerClosed: publishes flow normally.
	BreakerClosed BreakerState = iota
	// BreakerOpen: K consecutive publish failures tripped the circuit;
	// attempts are rejected until the cooldown elapses.
	BreakerOpen
	// BreakerHalfOpen: the cooldown elapsed and exactly one probe
	// attempt is in flight; its outcome closes or re-opens the circuit.
	BreakerHalfOpen
)

func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	}
	return "unknown"
}

// entry is one registered model: its dedicated server plus the
// resilience state around it.
type entry struct {
	name string
	srv  *server.Server

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

// entryState is one model's record as of its last finished attempt and
// the only record of its health: the router, Status and the retry loop
// read breaker state, failures and staleness from one value.
type entryState struct {
	hasGood bool   // a last-good snapshot is live
	gen     uint64 // generation of the last committed swap
	srcSum  string // sha256 (truncated) of the last committed source
	consec  int    // consecutive failed attempts since last success
	lastErr error
	stage   string // stage where the last failed attempt stopped

	// A circuit opens after BreakerThreshold consecutive failures, so a
	// model whose every republish fails does not run the whole pipeline
	// on each retry tick. It rejects attempts until BreakerCooldown has
	// passed since openedAt, then admits a single half-open probe.
	breaker  BreakerState
	openedAt time.Time
}

// stale reports whether the model serves its last-good site while its
// republish is failing.
func (st *entryState) stale() bool { return st.hasGood && st.consec > 0 }

// staleReason is the X-Goldweb-Stale value of a stale model.
func (st *entryState) staleReason() string {
	if !st.stale() {
		return ""
	}
	return "republish failing at stage " + st.stage
}

// cooldownLeft returns how long st's open circuit still rejects attempts
// (0 when an attempt would be admitted now).
func (c *Catalog) cooldownLeft(st *entryState) time.Duration {
	if st.breaker != BreakerOpen {
		return 0
	}
	return max(0, c.opts.BreakerCooldown-c.opts.Now().Sub(st.openedAt))
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
	// serving configures the catalog's shell and every model server.
	serving server.Config

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
	if opts.Now == nil {
		opts.Now = time.Now
	}
	schema := opts.Schema
	if schema == nil {
		schema = core.MustSchema()
	}
	c := &Catalog{
		opts:   opts,
		schema: schema,
		serving: server.Config{
			RequestTimeout: opts.RequestTimeout,
			MaxInflight:    opts.MaxInflight,
			CacheSize:      opts.CacheSize,
			CacheBytes:     opts.CacheBytes,
			NoCompress:     opts.NoCompress,
			PublishHook:    opts.PublishHook,
		},
		rng: rand.New(rand.NewSource(opts.Seed)),
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

// ensure returns the entry for name, registering it if new.
func (c *Catalog) ensure(name string) *entry {
	c.mu.Lock()
	defer c.mu.Unlock()
	old := *c.entries.Load()
	if e, ok := old[name]; ok {
		return e
	}
	e := &entry{
		name:   name,
		srv:    server.NewEmpty(c.serving),
		swapMu: make(chan struct{}, 1),
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

// Server returns the underlying server for name (nil if unknown):
// serve <file> serves its one model through it.
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

// Reload re-fetches name through the Loader and stages the result. The
// bytes of a healthy model that match its last commit are live already:
// Reload then returns nil without staging, a new generation, a cache
// purge or an event. Returns ErrUnknownModel for unregistered names and
// ErrBreakerOpen while the model's circuit is rejecting attempts.
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
// record — like a breaker rejection, nothing was attempted.
func (c *Catalog) attempt(ctx context.Context, e *entry, data []byte) error {
	if err := e.lockCtx(ctx); err != nil {
		return fmt.Errorf("swap wait: model %q: %w", e.name, err)
	}
	defer e.unlock()
	return c.attemptLocked(ctx, e, data)
}

func (c *Catalog) attemptLocked(ctx context.Context, e *entry, data []byte) (err error) {
	// The breaker gate. An open circuit whose cooldown has passed admits
	// this attempt as its probe, recorded half-open so Status shows the
	// probe. The swap lock keeps any other attempt out until the probe's
	// outcome replaces that record, so no attempt finds it half-open.
	if st := e.state.Load(); st.breaker != BreakerClosed {
		if wait := c.cooldownLeft(st); wait > 0 {
			return fmt.Errorf("%w: model %q (cooling down %v)", ErrBreakerOpen, e.name, wait.Round(time.Millisecond))
		}
		probe := *st
		probe.breaker = BreakerHalfOpen
		e.state.Store(&probe)
	}
	stage := "load"
	var committed *entryState // what a committed attempt publishes
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
		} else if committed != nil {
			c.noteSuccessLocked(e, committed)
		}
	}()

	sctx, cancel := context.WithTimeout(ctx, c.opts.StageTimeout)
	defer cancel()

	if data == nil {
		data, err = c.opts.Loader(sctx, e.name)
		if err != nil {
			return fmt.Errorf("load: %w", err)
		}
		if st := e.state.Load(); st.hasGood && st.consec == 0 && sourceSum(data) == st.srcSum {
			return nil // unchanged: the live generation is this source's
		}
	}

	// Stage 1: parse (bounded, cancelable).
	stage = "parse"
	doc, perr := xmldom.ParseContext(sctx, data, xmldom.DefaultLimits)
	if perr != nil {
		return fmt.Errorf("parse: %w", perr)
	}

	// Stage 2: validation plus model construction (ValidateModel).
	stage = "validate"
	m, val, verr := ValidateModel(e.name, doc, c.schema)
	if verr != nil {
		return verr
	}

	// Stage 3: shadow publish of the document stage 2 validated. The
	// server runs the full publication pipeline without touching the live
	// snapshot, so a failure here leaves last-good untouched. The
	// stylesheets read GOLD documents, so a catalog with its own schema
	// publishes the model's canonical GOLD document.
	stage = "publish"
	pub := val
	if c.schema != core.MustSchema() {
		pub = core.ValidateAndFreeze(m.ToXML())
	}
	staged, serr := e.srv.Stage(sctx, m, pub)
	if serr != nil {
		return fmt.Errorf("publish: %w", serr)
	}

	// Stage 4: atomic generation bump.
	stage = "commit"
	committed = &entryState{hasGood: true, gen: staged.Commit(), srcSum: sourceSum(data)}
	return nil
}

// ValidateModel is the validate stage every model document passes on
// its way to a core.Model: one pass over doc against schema that applies
// schema defaults, freezes the document and evaluates the identity
// constraints (key, unique, keyref) on the frozen tree, then model
// construction from the validated document. The verdict refuses
// structural and type errors first, with their count only; a document
// without them fails on any identity violation, reported as the GW402
// finding (in file name.xml) that names the governing constraint; then
// on a document that builds no model. Every refusal reads "validate: …".
//
// The model comes back whenever the document builds one, refused or
// not, so a report can list its problems beside the schema errors;
// anything that acts on the model checks the verdict first.
func ValidateModel(name string, doc *xmldom.Node, schema *xsd.Schema) (*core.Model, *xsd.Validated, error) {
	val := schema.ValidateAndFreeze(doc, xsd.ValidateOptions{ApplyDefaults: true})
	m, merr := core.ModelFromXML(val.Doc)
	if verrs := val.StructuralErrors(); len(verrs) > 0 {
		return m, val, fmt.Errorf("validate: %v (%d problems)", verrs[0], len(verrs))
	}
	if len(val.Errors) > 0 {
		diags := analysis.LintValidated(name+".xml", val)
		return m, val, fmt.Errorf("validate: %d findings, first: %s", len(diags), diags[0])
	}
	if merr != nil {
		return nil, val, fmt.Errorf("validate: %w", merr)
	}
	return m, val, nil
}

// sourceSum is the truncated sha256 a record keeps of a model's source.
func sourceSum(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:8])
}

// noteFailureLocked records a failed attempt in one new record — the
// failure count, the stage, the circuit and so staleness, while the
// last-good site keeps serving — then emits its events and, when a
// Loader is configured, schedules the background retry. The circuit
// opens once the count reaches the threshold; a half-open probe's count
// is past it already, so its failure re-opens the circuit for a fresh
// cooldown.
func (c *Catalog) noteFailureLocked(e *entry, stage string, err error) {
	old := e.state.Load()
	st := *old
	st.consec++
	st.lastErr = err
	st.stage = stage
	if c.opts.BreakerThreshold > 0 && st.consec >= c.opts.BreakerThreshold {
		st.breaker = BreakerOpen
		st.openedAt = c.opts.Now()
	}
	e.state.Store(&st)
	c.emit(Event{Model: e.name, Type: EventStageFailed, Stage: stage, Err: err, Attempt: st.consec})
	if old.breaker != BreakerOpen && st.breaker == BreakerOpen {
		c.emit(Event{Model: e.name, Type: EventBreakerOpened, Err: err, Attempt: st.consec})
	}
	c.scheduleRetryLocked(e)
}

// noteSuccessLocked records a committed swap: st, a fresh record with a
// closed circuit and no failures, makes the model last-good at st.gen.
func (c *Catalog) noteSuccessLocked(e *entry, st *entryState) {
	wasBroken := e.state.Load().breaker != BreakerClosed
	e.state.Store(st)
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
// seeded jitter until it recovers or the catalog closes. When the
// circuit is open the sleep stretches to at least the remaining
// cooldown so the wakeup lands on an admissible half-open probe.
func (c *Catalog) retryLoop(e *entry) {
	defer c.wg.Done()
	for {
		rec := e.state.Load()
		attempt := rec.consec
		delay := max(c.backoff(attempt), c.cooldownLeft(rec))
		c.emit(Event{Model: e.name, Type: EventRetryScheduled, Attempt: attempt, Delay: delay})
		select {
		case <-c.ctx.Done():
			e.lock()
			e.retrying = false
			e.unlock()
			return
		case <-time.After(delay):
		}
		// ErrBreakerOpen is not a new failure: the attempt was rejected
		// before doing work, so consec (and hence the backoff) is
		// unchanged and the next sleep is dominated by the cooldown.
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
			Stale:      rec.stale(),
			StaleWhy:   rec.staleReason(),
			Breaker:    rec.breaker.String(),
			Failures:   rec.consec,
			SourceSum:  rec.srcSum,
		}
		if rec.lastErr != nil {
			st.LastError = rec.lastErr.Error()
		}
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
