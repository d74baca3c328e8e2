package catalog

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"goldweb/internal/core"
	"goldweb/internal/htmlgen"
	"goldweb/internal/server"
	"goldweb/internal/xmldom"
	"goldweb/internal/xsd"
)

// modelSource builds a small valid model named name and returns its
// serialized XML, the raw material every pipeline test corrupts in its
// own way.
func modelSource(t testing.TB, name string) []byte {
	t.Helper()
	b := core.NewModel(name)
	d := b.Dimension("Region").Key("region_id", "OID").Descriptor("region_name", "String")
	d.Level("City").Key("city_id", "OID").Descriptor("city_name", "String")
	d.Rollup("City")
	f := b.Fact("Facts").Aggregates("Region")
	f.Measure("qty", "Integer")
	m, err := b.Build()
	if err != nil {
		t.Fatalf("building test model: %v", err)
	}
	return []byte(xmldom.SerializeToString(m.ToXML(), xmldom.WriteOptions{}))
}

// Corruptions hitting distinct pipeline stages.
func tornSource(src []byte) []byte {
	return src[:len(src)/2]
}

func structuralBad(src []byte) []byte {
	return bytes.Replace(src, []byte("</goldmodel>"), []byte("<bogus/></goldmodel>"), 1)
}

// keyrefBroken retargets the dimension's rollup association at a
// dimension attribute instead of a level. The value is still a valid
// ID in the document, so structural validation (IDREF) passes; only
// the levelKey keyref is violated.
func keyrefBroken(src []byte) []byte {
	return bytes.Replace(src, []byte(`child="l1"`), []byte(`child="da1"`), 1)
}

// eventLog collects catalog events concurrently.
type eventLog struct {
	mu  sync.Mutex
	evs []Event
}

func (l *eventLog) add(ev Event) {
	l.mu.Lock()
	l.evs = append(l.evs, ev)
	l.mu.Unlock()
}

func (l *eventLog) count(t EventType) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for _, ev := range l.evs {
		if ev.Type == t {
			n++
		}
	}
	return n
}

func (l *eventLog) total() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.evs)
}

func statusOf(t *testing.T, c *Catalog, name string) ModelStatus {
	t.Helper()
	for _, st := range c.Status() {
		if st.Name == name {
			return st
		}
	}
	t.Fatalf("model %q not in status", name)
	return ModelStatus{}
}

func TestSetCommitsAndServes(t *testing.T) {
	c := New(Options{DisableRetry: true})
	defer c.Close()
	if err := c.Set(context.Background(), "sales", modelSource(t, "Sales DW")); err != nil {
		t.Fatalf("Set: %v", err)
	}
	st := statusOf(t, c, "sales")
	if !st.Ready || st.Generation != 1 || st.Stale || st.Breaker != "closed" {
		t.Fatalf("status after first commit = %+v", st)
	}

	h := c.Handler()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/m/sales/site/index.html", nil))
	if rec.Code != 200 {
		t.Fatalf("GET model index: %d %s", rec.Code, rec.Body.String())
	}
	if got := rec.Header().Get(server.GenerationHeader); got != "1" {
		t.Fatalf("generation header = %q, want 1", got)
	}
	if rec.Header().Get(StaleHeader) != "" {
		t.Fatal("fresh content carries a stale header")
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/readyz", nil))
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), `"ready": true`) {
		t.Fatalf("readyz = %d %s", rec.Code, rec.Body.String())
	}
}

func TestStageFailuresRollBackToLastGood(t *testing.T) {
	good := modelSource(t, "Sales DW")
	cases := []struct {
		name  string
		bad   []byte
		stage string
	}{
		{"torn input fails parse", tornSource(good), "parse"},
		{"unknown element fails structural validation", structuralBad(good), "validate"},
		{"broken keyref fails validation", keyrefBroken(good), "validate"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			log := &eventLog{}
			c := New(Options{DisableRetry: true, OnEvent: log.add})
			defer c.Close()
			ctx := context.Background()
			if err := c.Set(ctx, "m", good); err != nil {
				t.Fatalf("good Set: %v", err)
			}
			h := c.Handler()
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("GET", "/m/m/site/index.html", nil))
			before := rec.Body.String()

			err := c.Set(ctx, "m", tc.bad)
			if err == nil {
				t.Fatal("corrupt Set succeeded")
			}
			if !strings.HasPrefix(err.Error(), tc.stage+":") {
				t.Fatalf("error %q does not name stage %q", err, tc.stage)
			}

			// Rollback: the last-good site keeps serving, same bytes, same
			// generation, now marked stale.
			st := statusOf(t, c, "m")
			if !st.Ready || st.Generation != 1 || !st.Stale {
				t.Fatalf("status after rollback = %+v", st)
			}
			rec = httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("GET", "/m/m/site/index.html", nil))
			if rec.Code != 200 || rec.Body.String() != before {
				t.Fatalf("rolled-back model serves different content (code %d)", rec.Code)
			}
			if rec.Header().Get(StaleHeader) == "" || rec.Header().Get("Warning") == "" {
				t.Fatal("stale snapshot served without Warning/X-Goldweb-Stale headers")
			}
			if got := rec.Header().Get(server.GenerationHeader); got != "1" {
				t.Fatalf("generation after rollback = %q, want 1", got)
			}

			// Recovery: a good republish bumps the generation and clears
			// the stale marking.
			if err := c.Set(ctx, "m", good); err != nil {
				t.Fatalf("recovery Set: %v", err)
			}
			st = statusOf(t, c, "m")
			if !st.Ready || st.Generation != 2 || st.Stale {
				t.Fatalf("status after recovery = %+v", st)
			}
			if log.count(EventStageFailed) != 1 || log.count(EventSwapCommitted) != 2 {
				t.Fatalf("events: %d failures, %d commits", log.count(EventStageFailed), log.count(EventSwapCommitted))
			}
		})
	}
}

// TestStageErrorMessages pins the exact stage errors a failed swap
// reports, and that the swap's one stage-failed event carries the same
// error. A structural error fails validation with the count of
// structural errors only, even when key/keyref violations are present
// too; key/keyref violations alone fail validation as GW402 findings,
// naming the governing key and the input node.
func TestStageErrorMessages(t *testing.T) {
	good := modelSource(t, "Sales DW")
	const structural = "validate: /goldmodel/bogus (line 1): element <bogus> is not allowed here in goldmodel (content model (factclasses, dimclasses, cubeclasses?)) (1 problems)"
	cases := []struct {
		name string
		src  []byte
		want string
	}{
		{"structural", structuralBad(good), structural},
		{"structural and keyref", structuralBad(keyrefBroken(good)), structural},
		{"keyref", keyrefBroken(good), "validate: 1 findings, first: m.xml:1:699: error GW402: keyref 'relationAsocChildKey': value 'da1' matches no 'levelKey' key value within dimclass (key selects asoclevels/asoclevel, field @id; declared values: l1)"},
	}
	for _, tc := range cases {
		log := &eventLog{}
		c := New(Options{DisableRetry: true, OnEvent: log.add})
		err := c.Set(context.Background(), "m", tc.src)
		c.Close()
		if err == nil || err.Error() != tc.want {
			t.Errorf("%s: err = %v\nwant %s", tc.name, err, tc.want)
		}
		if len(log.evs) != 1 || log.evs[0].Type != EventStageFailed || log.evs[0].Stage != "validate" || log.evs[0].Err != err {
			t.Errorf("%s: events %+v, want one validate stage failure carrying the error", tc.name, log.evs)
		}
	}
}

// TestSetValidatesEachDocumentOnce: a swap walks its input document once
// and nothing else, on the first load and on a hot swap: the key/keyref
// verdict reads that validation, and the snapshot publishes the document
// it validated.
func TestSetValidatesEachDocumentOnce(t *testing.T) {
	c := New(Options{DisableRetry: true})
	defer c.Close()
	src := modelSource(t, "Sales DW")
	for _, step := range []string{"first load", "hot swap"} {
		before := xsd.ValidationWalks()
		if err := c.Set(context.Background(), "m", src); err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		if walks := xsd.ValidationWalks() - before; walks != 1 {
			t.Errorf("%s: %d validation walks, want 1 (the input)", step, walks)
		}
	}
}

// TestCustomSchemaPublishesCanonicalDocument: a catalog with its own
// schema publishes the model's canonical GOLD document, not the input
// its schema validated, because the stylesheets read GOLD documents.
// The custom schema is a GOLD copy whose sharedagg rolea defaults to ""
// instead of "M": ModelFromXML reads the empty value as M, and the GOLD
// document says so, while the input would mark no aggregation many-to-
// many.
func TestCustomSchemaPublishesCanonicalDocument(t *testing.T) {
	const goldRoleA = `<xsd:attribute name="rolea" type="Multiplicity" default="M"/>`
	if strings.Count(core.SchemaXSD, goldRoleA) != 1 {
		t.Fatal("the GOLD schema no longer declares sharedagg's rolea default as expected")
	}
	schema, err := xsd.ParseSchemaString(strings.Replace(core.SchemaXSD, goldRoleA,
		`<xsd:attribute name="rolea" type="xsd:string" default=""/>`, 1))
	if err != nil {
		t.Fatal(err)
	}
	src := []byte(strings.ReplaceAll(core.SampleHospital().XMLString(), ` rolea="M"`, ""))
	doc, err := xmldom.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	input := schema.ValidateAndFreeze(doc, xsd.ValidateOptions{ApplyDefaults: true})
	m, err := core.ModelFromXML(input.Doc)
	if err != nil {
		t.Fatal(err)
	}
	want, err := htmlgen.Publish(m, htmlgen.Options{Mode: htmlgen.MultiPage})
	if err != nil {
		t.Fatal(err)
	}
	fromInput, err := htmlgen.PublishDocument(input.Doc, htmlgen.Options{Mode: htmlgen.MultiPage, SkipValidation: true})
	if err != nil {
		t.Fatal(err)
	}

	c := New(Options{DisableRetry: true, Schema: schema})
	defer c.Close()
	if err := c.Set(context.Background(), "m", src); err != nil {
		t.Fatal(err)
	}
	h := c.Handler()
	differs := false
	for _, page := range want.Order {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/m/m/site/"+page, nil))
		if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), want.Pages[page]) {
			t.Errorf("%s: status %d, body is not the canonical document's page", page, rec.Code)
		}
		differs = differs || !bytes.Equal(fromInput.Pages[page], want.Pages[page])
	}
	if !differs {
		t.Error("the input publishes the same pages: the test no longer tells the documents apart")
	}
}

// TestCustomSchemaIdentityErrorsRefuseTheModel: a custom schema's own
// identity constraints refuse a model at the validate stage, although
// the canonical GOLD document that would publish is valid. The schema is
// the GOLD schema plus an xsd:unique on fact class names; a model whose
// two facts share a name fails it, the generation does not move, and
// the last-good model keeps serving.
func TestCustomSchemaIdentityErrorsRefuseTheModel(t *testing.T) {
	const anchor = `<xsd:key name="dimClassKey">`
	if strings.Count(core.SchemaXSD, anchor) != 1 {
		t.Fatal("the GOLD schema no longer declares dimClassKey as expected")
	}
	schema, err := xsd.ParseSchemaString(strings.Replace(core.SchemaXSD, anchor,
		`<xsd:unique name="factNameUnique"><xsd:selector xpath="factclasses/factclass"/><xsd:field xpath="@name"/></xsd:unique>`+anchor, 1))
	if err != nil {
		t.Fatal(err)
	}
	b := core.NewModel("Twin facts")
	b.Dimension("Region").Key("region_id", "OID")
	b.Fact("Sales").Aggregates("Region").Measure("qty", "Integer")
	b.Fact("Returns").Aggregates("Region").Measure("qty", "Integer")
	m, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	good := []byte(m.XMLString())
	if !bytes.Contains(good, []byte(`name="Returns"`)) {
		t.Fatal("the model does not name its second fact Returns")
	}
	twins := bytes.Replace(good, []byte(`name="Returns"`), []byte(`name="Sales"`), 1)
	doc, err := xmldom.Parse(twins)
	if err != nil {
		t.Fatal(err)
	}
	if v := core.ValidateAndFreeze(doc); len(v.Errors) != 0 {
		t.Fatalf("the twin-named model is invalid against the GOLD schema too: %v", v.Errors[0])
	}

	c := New(Options{DisableRetry: true, Schema: schema})
	defer c.Close()
	ctx := context.Background()
	if err := c.Set(ctx, "m", good); err != nil {
		t.Fatalf("good Set: %v", err)
	}
	h := c.Handler()
	get := func() *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/m/m/site/index.html", nil))
		return rec
	}
	before := get().Body.String()
	err = c.Set(ctx, "m", twins)
	if err == nil || !strings.HasPrefix(err.Error(), "validate: ") || !strings.Contains(err.Error(), "GW402: unique 'factNameUnique'") {
		t.Fatalf("twin-named Set: err = %v, want a validate failure naming factNameUnique", err)
	}
	if st := statusOf(t, c, "m"); st.Generation != 1 || !st.Stale {
		t.Fatalf("status after the refused Set = %+v, want generation 1, stale", st)
	}
	if rec := get(); rec.Code != http.StatusOK || rec.Body.String() != before || rec.Header().Get(server.GenerationHeader) != "1" {
		t.Fatalf("last-good model no longer serves: status %d, generation %q", rec.Code, rec.Header().Get(server.GenerationHeader))
	}
}

func TestBreakerGatesPublishAndRecovers(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1_000_000, 0)}
	var fail atomic.Bool
	fail.Store(true)
	hook := func(ctx context.Context, mode htmlgen.Mode, focus, page string) error {
		if fail.Load() {
			return errors.New("pipeline down")
		}
		return nil
	}
	log := &eventLog{}
	c := New(Options{
		DisableRetry:     true,
		PublishHook:      hook,
		BreakerThreshold: 3,
		BreakerCooldown:  time.Hour,
		Now:              clk.now,
		OnEvent:          log.add,
	})
	defer c.Close()
	ctx := context.Background()
	src := modelSource(t, "Sales DW")

	for i := 0; i < 3; i++ {
		if err := c.Set(ctx, "m", src); err == nil {
			t.Fatalf("Set %d succeeded with a failing pipeline", i)
		}
	}
	st := statusOf(t, c, "m")
	if st.Breaker != "open" || st.Failures != 3 {
		t.Fatalf("status after threshold = %+v", st)
	}
	if log.count(EventBreakerOpened) != 1 {
		t.Fatalf("breaker-opened events = %d, want 1", log.count(EventBreakerOpened))
	}

	// While open, attempts are rejected without reaching the pipeline.
	if err := c.Set(ctx, "m", src); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("open-circuit Set err = %v, want ErrBreakerOpen", err)
	}

	// A failed half-open probe re-opens for a fresh cooldown.
	clk.advance(2 * time.Hour)
	if err := c.Set(ctx, "m", src); err == nil || errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("half-open probe err = %v, want a pipeline failure", err)
	}
	if err := c.Set(ctx, "m", src); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("Set after failed probe err = %v, want ErrBreakerOpen", err)
	}

	// A successful probe closes the circuit and publishes.
	clk.advance(2 * time.Hour)
	fail.Store(false)
	if err := c.Set(ctx, "m", src); err != nil {
		t.Fatalf("recovery Set: %v", err)
	}
	st = statusOf(t, c, "m")
	if st.Breaker != "closed" || !st.Ready || st.Stale || st.Generation != 1 {
		t.Fatalf("status after recovery = %+v", st)
	}
	if log.count(EventBreakerClosed) != 1 {
		t.Fatalf("breaker-closed events = %d, want 1", log.count(EventBreakerClosed))
	}
}

func TestReloaderRecoversAfterTransientLoadFailures(t *testing.T) {
	good := modelSource(t, "Sales DW")
	var calls atomic.Int32
	loader := func(ctx context.Context, name string) ([]byte, error) {
		if n := calls.Add(1); n <= 3 {
			return nil, fmt.Errorf("transient io error %d", n)
		}
		return good, nil
	}
	log := &eventLog{}
	c := New(Options{
		Loader:           loader,
		RetryBase:        2 * time.Millisecond,
		RetryMax:         10 * time.Millisecond,
		BreakerThreshold: 100, // keep the circuit out of this test's way
		Seed:             1,
		OnEvent:          log.add,
	})
	defer c.Close()

	if err := c.Add(context.Background(), "m"); err == nil {
		t.Fatal("first Add succeeded despite the failing loader")
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if st := statusOf(t, c, "m"); st.Ready && !st.Stale {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("model never recovered; status %+v, loader calls %d", statusOf(t, c, "m"), calls.Load())
		}
		time.Sleep(2 * time.Millisecond)
	}
	if n := calls.Load(); n < 4 {
		t.Fatalf("loader called %d times, want >= 4", n)
	}
	if log.count(EventRetryScheduled) < 3 {
		t.Fatalf("retry-scheduled events = %d, want >= 3", log.count(EventRetryScheduled))
	}
	if st := statusOf(t, c, "m"); st.Generation != 1 {
		t.Fatalf("recovered generation = %d, want 1", st.Generation)
	}
}

func TestBackoffIsDeterministicPerSeedAndCapped(t *testing.T) {
	delays := func(seed int64) []time.Duration {
		c := New(Options{Seed: seed, RetryBase: 10 * time.Millisecond, RetryMax: 80 * time.Millisecond, DisableRetry: true})
		defer c.Close()
		var out []time.Duration
		for a := 1; a <= 8; a++ {
			out = append(out, c.backoff(a))
		}
		return out
	}
	a, b := delays(7), delays(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at attempt %d: %v vs %v", i+1, a[i], b[i])
		}
	}
	for i, d := range a {
		if d > 80*time.Millisecond {
			t.Fatalf("attempt %d backoff %v exceeds the cap", i+1, d)
		}
		if d < 5*time.Millisecond {
			t.Fatalf("attempt %d backoff %v below half the base", i+1, d)
		}
	}
}

func TestHandlerRoutingAndErrors(t *testing.T) {
	c := New(Options{DisableRetry: true})
	defer c.Close()
	if err := c.Set(context.Background(), "sales", modelSource(t, "Sales DW")); err != nil {
		t.Fatalf("Set: %v", err)
	}
	h := c.Handler()

	// Bare model path redirects inside the /m/{name} namespace.
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/m/sales", nil))
	if rec.Code != http.StatusFound || rec.Header().Get("Location") != "/m/sales/site/index.html" {
		t.Fatalf("bare model path: %d -> %q", rec.Code, rec.Header().Get("Location"))
	}

	// Unknown model: 404, JSON when asked for.
	req := httptest.NewRequest("GET", "/m/nope/site/index.html", nil)
	req.Header.Set("Accept", "application/json")
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != 404 || !strings.Contains(rec.Header().Get("Content-Type"), "application/json") {
		t.Fatalf("unknown model: %d, Content-Type %q", rec.Code, rec.Header().Get("Content-Type"))
	}
	if !strings.Contains(rec.Body.String(), `"status":404`) {
		t.Fatalf("unknown model JSON body: %s", rec.Body.String())
	}

	// The catalog is read-only, like the single-model server.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/m/sales/site/index.html", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("POST = %d, want 405", rec.Code)
	}

	// Root redirects to the index document.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/", nil))
	if rec.Code != http.StatusFound || rec.Header().Get("Location") != "/catalog" {
		t.Fatalf("root: %d -> %q", rec.Code, rec.Header().Get("Location"))
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/catalog", nil))
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), `"/m/sales/site/index.html"`) {
		t.Fatalf("catalog index: %d %s", rec.Code, rec.Body.String())
	}
}

// TestModelSiteRedirectStaysInNamespace: /m/{name}/site redirects to
// the model's own /site/, keeping the query, the way a single-model
// server's /site redirects to /site/ — not to the catalog root's /site/,
// which does not exist.
func TestModelSiteRedirectStaysInNamespace(t *testing.T) {
	c := New(Options{DisableRetry: true})
	defer c.Close()
	if err := c.Set(context.Background(), "sales", modelSource(t, "Sales DW")); err != nil {
		t.Fatalf("Set: %v", err)
	}
	h := c.Handler()
	for path, want := range map[string]string{
		"/m/sales/site":          "/m/sales/site/",
		"/m/sales/site?focus=f1": "/m/sales/site/?focus=f1",
	} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if rec.Code != http.StatusMovedPermanently || rec.Header().Get("Location") != want {
			t.Errorf("GET %s: %d -> %q, want 301 -> %q", path, rec.Code, rec.Header().Get("Location"), want)
		}
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/m/sales/site/", nil))
	if rec.Code != http.StatusOK {
		t.Errorf("GET /m/sales/site/: %d, want 200", rec.Code)
	}
}

func TestReadyzReportsPerModelHealth(t *testing.T) {
	c := New(Options{DisableRetry: true})
	defer c.Close()
	ctx := context.Background()
	if err := c.Set(ctx, "good", modelSource(t, "Sales DW")); err != nil {
		t.Fatalf("Set good: %v", err)
	}
	if err := c.Set(ctx, "broken", []byte("<not-xml")); err == nil {
		t.Fatal("broken Set succeeded")
	}
	h := c.Handler()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/readyz", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("readyz with a never-loaded model = %d, want 503", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("not-ready readyz lacks Retry-After")
	}
	body := rec.Body.String()
	for _, want := range []string{`"name": "broken"`, `"ready": false`, `"name": "good"`, `"last_error"`, `"breaker"`} {
		if !strings.Contains(body, want) {
			t.Fatalf("readyz body missing %q:\n%s", want, body)
		}
	}

	// The never-loaded model's endpoints answer 503, not a torn page.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/m/broken/site/index.html", nil))
	if rec.Code != http.StatusServiceUnavailable || rec.Header().Get("Retry-After") == "" {
		t.Fatalf("never-loaded model page = %d, want 503 + Retry-After", rec.Code)
	}
}

// TestReadyzDoesNotWaitForSwaps: /readyz reads each model's last
// finished attempt, so a swap held inside its shadow publish does not
// stall the readiness probe, which reports the last committed generation.
func TestReadyzDoesNotWaitForSwaps(t *testing.T) {
	var hold atomic.Bool
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	c := New(Options{DisableRetry: true, PublishHook: func(ctx context.Context, _ htmlgen.Mode, _, page string) error {
		if page == "" && hold.Load() {
			entered <- struct{}{}
			select {
			case <-release:
			case <-ctx.Done():
			}
		}
		return nil
	}})
	defer c.Close()
	ctx := context.Background()
	if err := c.Set(ctx, "sales", modelSource(t, "Sales DW")); err != nil {
		t.Fatal(err)
	}
	next := modelSource(t, "Sales DW 2")
	hold.Store(true)
	swapped := make(chan error, 1)
	go func() { swapped <- c.Set(ctx, "sales", next) }()
	<-entered

	rec := httptest.NewRecorder()
	answered := make(chan struct{})
	go func() {
		c.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/readyz", nil))
		close(answered)
	}()
	select {
	case <-answered:
	case <-time.After(time.Second):
		close(release)
		<-swapped
		t.Fatal("/readyz unanswered after 1s while a swap is held")
	}
	close(release)
	if err := <-swapped; err != nil {
		t.Fatalf("held swap: %v", err)
	}
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"generation": 1`) {
		t.Fatalf("/readyz during a swap: %d\n%s", rec.Code, rec.Body)
	}
	if st := statusOf(t, c, "sales"); st.Generation != 2 {
		t.Fatalf("generation after the swap = %d, want 2", st.Generation)
	}
}

// TestRegistryConcurrentChanges registers models while
// readers route requests and read the status: the copy-on-write entry
// map must never lose a registration or hand a reader a torn map.
func TestRegistryConcurrentChanges(t *testing.T) {
	c := New(Options{DisableRetry: true})
	defer c.Close()
	src := modelSource(t, "Sales DW")
	h := c.Handler()
	const writers, perWriter = 4, 3
	var wg sync.WaitGroup
	done := make(chan struct{})
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest("GET", fmt.Sprintf("/m/w%d-%d/site/index.html", i%writers, i%perWriter), nil))
				if rec.Code != http.StatusOK && rec.Code != http.StatusNotFound && rec.Code != http.StatusServiceUnavailable {
					t.Errorf("read during registration: %d", rec.Code)
				}
				c.Status()
			}
		}()
	}
	var writes sync.WaitGroup
	for w := 0; w < writers; w++ {
		writes.Add(1)
		go func(w int) {
			defer writes.Done()
			for i := 0; i < perWriter; i++ {
				if err := c.Set(context.Background(), fmt.Sprintf("w%d-%d", w, i), src); err != nil {
					t.Errorf("Set: %v", err)
				}
			}
		}(w)
	}
	writes.Wait()
	close(done)
	wg.Wait()
	if got := len(c.Names()); got != writers*perWriter {
		t.Fatalf("%d models registered, want %d: %v", got, writers*perWriter, c.Names())
	}
}

// allReady reports whether every model in the catalog's Status is
// ready, as /readyz does.
func allReady(c *Catalog) bool {
	for _, st := range c.Status() {
		if !st.Ready {
			return false
		}
	}
	return true
}

func TestDirModelsAndDirLoader(t *testing.T) {
	dir := t.TempDir()
	writeFile(t, dir+"/sales.xml", modelSource(t, "Sales DW"))
	writeFile(t, dir+"/stores.xml", modelSource(t, "Stores DW"))
	names, err := DirModels(dir)
	if err != nil {
		t.Fatalf("DirModels: %v", err)
	}
	if len(names) != 2 || names[0] != "sales" || names[1] != "stores" {
		t.Fatalf("DirModels = %v", names)
	}
	c := New(Options{Loader: DirLoader(dir), DisableRetry: true})
	defer c.Close()
	ctx := context.Background()
	for _, name := range names {
		if err := c.Add(ctx, name); err != nil {
			t.Fatalf("Add %s: %v", name, err)
		}
	}
	if !allReady(c) {
		t.Fatal("catalog not ready after loading both models")
	}
	if got := c.Names(); len(got) != 2 || got[0] != "sales" || got[1] != "stores" {
		t.Fatalf("Names = %v", got)
	}
}

// TestReloadSkipsUnchangedSource: a Reload whose Loader returns the
// bytes of a healthy model's last commit stages nothing — the generation
// stays, no event fires, and a cached page stays warm (the publish hook
// is not called, not even for a shadow publish). Edited bytes still
// commit, and so do unchanged bytes of a model whose last attempt failed.
func TestReloadSkipsUnchangedSource(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/m.xml"
	writeFile(t, path, modelSource(t, "Sales DW"))
	var publishes atomic.Int64
	var log eventLog
	c := New(Options{
		Loader:       DirLoader(dir),
		DisableRetry: true,
		OnEvent:      log.add,
		PublishHook: func(context.Context, htmlgen.Mode, string, string) error {
			publishes.Add(1)
			return nil
		},
	})
	defer c.Close()
	ctx := context.Background()
	if err := c.Add(ctx, "m"); err != nil {
		t.Fatal(err)
	}
	h := c.Handler()
	read := func() {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/m/m/single", nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("/single: status %d", rec.Code)
		}
	}
	read() // publishes /single and caches it
	pubs, events := publishes.Load(), log.total()
	for range 2 {
		if err := c.Reload(ctx, "m"); err != nil {
			t.Fatalf("Reload of unchanged bytes: %v", err)
		}
	}
	read()
	if st := statusOf(t, c, "m"); st.Generation != 1 {
		t.Errorf("generation %d after Reloads of unchanged bytes, want 1", st.Generation)
	}
	if got := publishes.Load(); got != pubs {
		t.Errorf("%d publications after Reloads of unchanged bytes and a cached read, want none", got-pubs)
	}
	if got := log.total(); got != events {
		t.Errorf("%d events after Reloads of unchanged bytes, want none", got-events)
	}

	edited := modelSource(t, "Edited DW")
	writeFile(t, path, edited)
	if err := c.Reload(ctx, "m"); err != nil {
		t.Fatal(err)
	}
	if st := statusOf(t, c, "m"); st.Generation != 2 {
		t.Fatalf("generation %d after an edit, want 2", st.Generation)
	}
	writeFile(t, path, tornSource(edited))
	if err := c.Reload(ctx, "m"); err == nil {
		t.Fatal("Reload of a torn file succeeded")
	}
	writeFile(t, path, edited) // the bytes generation 2 was built from
	if err := c.Reload(ctx, "m"); err != nil {
		t.Fatal(err)
	}
	if st := statusOf(t, c, "m"); st.Generation != 3 || st.Stale {
		t.Errorf("stale model reloaded with its last-good bytes: generation %d, stale %v; want 3, not stale",
			st.Generation, st.Stale)
	}
}

func TestPanickingPipelineRollsBack(t *testing.T) {
	var boom atomic.Bool
	hook := func(ctx context.Context, mode htmlgen.Mode, focus, page string) error {
		if boom.Load() {
			panic(errors.New("pipeline exploded"))
		}
		return nil
	}
	c := New(Options{DisableRetry: true, PublishHook: hook})
	defer c.Close()
	ctx := context.Background()
	src := modelSource(t, "Sales DW")
	if err := c.Set(ctx, "m", src); err != nil {
		t.Fatalf("good Set: %v", err)
	}
	boom.Store(true)
	err := c.Set(ctx, "m", src)
	if err == nil || !strings.Contains(err.Error(), "panic") || !strings.Contains(err.Error(), "pipeline exploded") {
		t.Fatalf("panicking publish err = %v", err)
	}
	st := statusOf(t, c, "m")
	if !st.Ready || !st.Stale || st.Generation != 1 {
		t.Fatalf("status after panic rollback = %+v", st)
	}
}

func writeFile(t *testing.T, path string, data []byte) {
	t.Helper()
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatalf("writing %s: %v", path, err)
	}
}
