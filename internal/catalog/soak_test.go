package catalog

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"goldweb/internal/core"
	"goldweb/internal/faultinject"
	"goldweb/internal/htmlgen"
	"goldweb/internal/server"
	"goldweb/internal/xmldom"
)

// The chaos soak hammers a multi-model catalog with concurrent readers
// while hot swaps race injected faults — failing, hanging, panicking
// and torn-input loads plus failing/hanging/panicking publishes — and
// asserts the catalog's availability contract:
//
//  1. zero non-injected 5xx: faults are injected only into the swap
//     pipeline, so after warm-up no client may ever see a 5xx — not even
//     from the pages the request path publishes with targeted runs;
//  2. no torn content: every served page byte-equals one canonically
//     published version;
//  3. no generation regression: per client per model, the
//     X-Goldweb-Generation header never decreases;
//  4. full recovery: once faults stop, every model converges to the
//     latest source version, unmarked, with a closed breaker.
//
// GOLDWEB_SOAK_DURATION stretches the fault window (CI: 30s);
// GOLDWEB_SOAK_REPORT names a JSON file for the soak summary.

const (
	soakModels   = 10
	soakVersions = 3 // versions 1..soakVersions-1 cycle; soakVersions is final
	soakClients  = 10
	soakSeed     = 42
)

// soakSource builds version v of soak model i. The version is baked
// into served content (measure name and description) so a page's bytes
// identify exactly which committed version produced it.
func soakSource(t *testing.T, i, v int) []byte {
	t.Helper()
	b := core.NewModel(fmt.Sprintf("Soak DW %02d", i)).
		Describe(fmt.Sprintf("chaos soak model %d at version %d", i, v))
	d := b.Dimension("Region").Key("region_id", "OID").Descriptor("region_name", "String")
	d.Level("City").Key("city_id", "OID").Descriptor("city_name", "String")
	d.Rollup("City")
	f := b.Fact("Facts").Aggregates("Region")
	f.Measure(fmt.Sprintf("qty_v%d", v), "Integer")
	m, err := b.Build()
	if err != nil {
		t.Fatalf("building soak model %d v%d: %v", i, v, err)
	}
	return []byte(xmldom.SerializeToString(m.ToXML(), xmldom.WriteOptions{}))
}

// soakStore is the mutable "web source" the loader reads from.
type soakStore struct {
	mu  sync.Mutex
	src map[string][]byte
	ver map[string]int
}

func (s *soakStore) set(name string, v int, src []byte) {
	s.mu.Lock()
	s.src[name], s.ver[name] = src, v
	s.mu.Unlock()
}

func (s *soakStore) get(name string) []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.src[name]
}

// soakViolations collects contract violations without unbounded growth.
type soakViolations struct {
	mu    sync.Mutex
	count int
	msgs  []string
}

func (v *soakViolations) add(format string, args ...any) {
	v.mu.Lock()
	v.count++
	if len(v.msgs) < 20 {
		v.msgs = append(v.msgs, fmt.Sprintf(format, args...))
	}
	v.mu.Unlock()
}

func (v *soakViolations) report() (int, []string) {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.count, v.msgs
}

func soakDuration() time.Duration {
	if s := os.Getenv("GOLDWEB_SOAK_DURATION"); s != "" {
		if d, err := time.ParseDuration(s); err == nil {
			return d
		}
	}
	return 2 * time.Second
}

func TestChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak skipped in -short mode")
	}
	ctx := context.Background()
	names := make([]string, soakModels)
	for i := range names {
		names[i] = fmt.Sprintf("soak-%02d", i)
	}

	// Canonical pages: publish every (model, version) through a quiet
	// catalog and record the exact bytes a correct swap serves. During
	// the storm, any served body outside this set is torn or phantom.
	// The focused index and /single are rendered on the request path by
	// targeted runs; the unfocused index comes from the swap's probe.
	focus := make([]string, soakModels)
	canonIndex := make([]map[string]int, soakModels) // body -> version
	canonFocus := make([]map[string]int, soakModels)
	canonSingle := make([]map[string]int, soakModels)
	canonModel := make([]map[string]int, soakModels)
	{
		quiet := New(Options{DisableRetry: true})
		h := quiet.Handler()
		canon := func(path string, into map[string]int, v int) {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("GET", "/m/canon"+path, nil))
			if rec.Code != 200 {
				t.Fatalf("canonical %s v%d: %d", path, v, rec.Code)
			}
			into[rec.Body.String()] = v
		}
		for i := range names {
			m, err := core.ModelFromXMLString(string(soakSource(t, i, 1)))
			if err != nil {
				t.Fatal(err)
			}
			focus[i] = m.Facts[0].ID
			canonIndex[i] = map[string]int{}
			canonFocus[i] = map[string]int{}
			canonSingle[i] = map[string]int{}
			canonModel[i] = map[string]int{}
			for v := 1; v <= soakVersions; v++ {
				if err := quiet.Set(ctx, "canon", soakSource(t, i, v)); err != nil {
					t.Fatalf("canonical publish %d v%d: %v", i, v, err)
				}
				canon("/site/index.html", canonIndex[i], v)
				canon("/site/index.html?focus="+focus[i], canonFocus[i], v)
				canon("/single", canonSingle[i], v)
				canon("/model.xml", canonModel[i], v)
			}
		}
		quiet.Close()
	}

	store := &soakStore{src: map[string][]byte{}, ver: map[string]int{}}
	for i, name := range names {
		store.set(name, 1, soakSource(t, i, 1))
	}

	inj := faultinject.New(soakSeed)
	inj.Stop() // quiet warm-up; the storm arms it
	loader := func(ctx context.Context, name string) ([]byte, error) {
		return inj.Apply(ctx, "load:"+name, store.get(name))
	}
	var pagePublishes atomic.Int64
	hook := func(ctx context.Context, _ htmlgen.Mode, _, page string) error {
		// Only swap-time publishes (page "": Stage's shadow publish) get
		// faults; the request path stays clean so every client-visible
		// 5xx is by definition non-injected.
		if page != "" {
			pagePublishes.Add(1)
			return nil
		}
		return inj.Step(ctx, "publish")
	}

	log := &eventLog{}
	c := New(Options{
		Loader:           loader,
		PublishHook:      hook,
		Seed:             soakSeed,
		BreakerThreshold: 3,
		BreakerCooldown:  100 * time.Millisecond,
		RetryBase:        10 * time.Millisecond,
		RetryMax:         100 * time.Millisecond,
		StageTimeout:     250 * time.Millisecond,
		OnEvent:          log.add,
	})
	defer c.Close()

	// Warm-up: every model must be last-good before any fault fires, so
	// the storm can never excuse a 5xx as "not loaded yet".
	for _, name := range names {
		if err := c.Add(ctx, name); err != nil {
			t.Fatalf("warm-up Add %s: %v", name, err)
		}
	}
	if !c.Ready() {
		t.Fatal("catalog not ready after warm-up")
	}

	// Arm the storm: chaos on every loader and the publish hook, plus a
	// scripted consecutive-failure burst on model 0 to guarantee at
	// least one breaker open/recover cycle per run.
	for _, name := range names {
		inj.Chaos("load:"+name, 0.35, faultinject.Fail, faultinject.Hang, faultinject.Torn, faultinject.Panic)
	}
	inj.Chaos("publish", 0.25, faultinject.Fail, faultinject.Hang, faultinject.Panic)
	inj.Script("load:"+names[0], faultinject.FailN(5))
	inj.Resume()

	h := c.Handler()
	viol := &soakViolations{}
	var requests atomic.Int64
	stopClients := make(chan struct{})
	var clientWG sync.WaitGroup

	for cl := 0; cl < soakClients; cl++ {
		clientWG.Add(1)
		go func(id int) {
			defer clientWG.Done()
			rng := rand.New(rand.NewSource(int64(id)))
			lastGen := map[string]uint64{}
			for {
				select {
				case <-stopClients:
					return
				default:
				}
				i := rng.Intn(soakModels)
				name := names[i]
				var path string
				checkBody := (map[string]int)(nil)
				switch d := rng.Intn(10); {
				case d < 4:
					path, checkBody = "/m/"+name+"/site/index.html", canonIndex[i]
				case d < 6:
					path, checkBody = "/m/"+name+"/site/index.html?focus="+focus[i], canonFocus[i]
				case d < 8:
					path, checkBody = "/m/"+name+"/model.xml", canonModel[i]
				case d < 9:
					path, checkBody = "/m/"+name+"/single", canonSingle[i]
				default:
					path = "/readyz"
				}
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
				requests.Add(1)
				if rec.Code >= 500 && path != "/readyz" {
					viol.add("non-injected %d at %s: %.120s", rec.Code, path, rec.Body.String())
					continue
				}
				if rec.Code != 200 {
					continue
				}
				if gh := rec.Header().Get(server.GenerationHeader); gh != "" {
					gen, err := strconv.ParseUint(gh, 10, 64)
					if err != nil {
						viol.add("unparseable generation header %q at %s", gh, path)
					} else {
						if gen < lastGen[name] {
							viol.add("generation regressed on %s: %d after %d", name, gen, lastGen[name])
						}
						lastGen[name] = gen
					}
				}
				if checkBody != nil {
					if _, ok := checkBody[rec.Body.String()]; !ok {
						viol.add("torn/non-canonical body on %s (%d bytes)", path, rec.Body.Len())
					}
				}
			}
		}(cl)
	}

	// Swappers: hot-swap model sources through the faulty loader for the
	// whole fault window, cycling among the non-final versions.
	stormCtx, stopStorm := context.WithTimeout(ctx, soakDuration())
	defer stopStorm()
	var swapWG sync.WaitGroup
	for sw := 0; sw < 2; sw++ {
		swapWG.Add(1)
		go func(id int) {
			defer swapWG.Done()
			rng := rand.New(rand.NewSource(int64(1000 + id)))
			for {
				select {
				case <-stormCtx.Done():
					return
				case <-time.After(time.Duration(2+rng.Intn(8)) * time.Millisecond):
				}
				i := rng.Intn(soakModels)
				v := 1 + rng.Intn(soakVersions-1)
				store.set(names[i], v, soakSource(t, i, v))
				// Reload errors are the storm working as intended —
				// rejected by the breaker or failed by an injected fault.
				_ = c.Reload(stormCtx, names[i])
			}
		}(sw)
	}
	swapWG.Wait()

	// Quiet-down: faults off, final sources in place; every model must
	// converge to the final version with a clean bill of health while
	// clients keep hammering.
	inj.Stop()
	for i, name := range names {
		store.set(name, soakVersions, soakSource(t, i, soakVersions))
	}
	recovered := map[string]bool{}
	deadline := time.Now().Add(30 * time.Second)
	for len(recovered) < soakModels && time.Now().Before(deadline) {
		for i, name := range names {
			if recovered[name] {
				continue
			}
			// Nudge; breaker-open rejections resolve via cooldown and the
			// background retry loop.
			_ = c.Reload(ctx, name)
			st := statusOf(t, c, name)
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("GET", "/m/"+name+"/site/index.html", nil))
			if st.Ready && !st.Stale && st.Breaker == "closed" &&
				rec.Code == 200 && canonIndex[i][rec.Body.String()] == soakVersions {
				recovered[name] = true
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	close(stopClients)
	clientWG.Wait()

	// The verdict.
	counts := inj.Counts()
	if n, msgs := viol.report(); n > 0 {
		t.Errorf("%d contract violations, first %d:", n, len(msgs))
		for _, m := range msgs {
			t.Errorf("  %s", m)
		}
	}
	if len(recovered) < soakModels {
		missing := []string{}
		for _, name := range names {
			if !recovered[name] {
				missing = append(missing, fmt.Sprintf("%s=%+v", name, statusOf(t, c, name)))
			}
		}
		t.Errorf("models never recovered after faults stopped: %v", missing)
	}
	if counts.Total() == 0 {
		t.Error("the storm injected zero faults — the soak tested nothing")
	}
	if log.count(EventBreakerOpened) == 0 {
		t.Error("scripted failure burst never opened a breaker")
	}
	if pagePublishes.Load() == 0 {
		t.Error("no read published a page on the request path — the soak never ran a targeted publication")
	}
	t.Logf("soak: %d requests, %d swaps committed, %d stage failures, %d request-path page publications, faults %v",
		requests.Load(), log.count(EventSwapCommitted), log.count(EventStageFailed), pagePublishes.Load(), counts)

	if path := os.Getenv("GOLDWEB_SOAK_REPORT"); path != "" {
		nviol, msgs := viol.report()
		report := map[string]any{
			"fault_window":    soakDuration().String(),
			"models":          soakModels,
			"clients":         soakClients,
			"requests":        requests.Load(),
			"swaps_committed": log.count(EventSwapCommitted),
			"stage_failures":  log.count(EventStageFailed),
			"breaker_opened":  log.count(EventBreakerOpened),
			"breaker_closed":  log.count(EventBreakerClosed),
			"retries":         log.count(EventRetryScheduled),
			"page_publishes":  pagePublishes.Load(),
			"injected_faults": map[string]int64{
				"fail":  counts[faultinject.Fail],
				"panic": counts[faultinject.Panic],
				"hang":  counts[faultinject.Hang],
				"torn":  counts[faultinject.Torn],
			},
			"violations":     nviol,
			"violation_msgs": msgs,
			"recovered":      len(recovered),
		}
		data, err := json.MarshalIndent(report, "", "  ")
		if err == nil {
			err = os.WriteFile(path, data, 0o644)
		}
		if err != nil {
			t.Logf("writing soak report: %v", err)
		}
	}
}
