package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"slices"
	"strconv"
	"sync"
	"time"

	"goldweb/internal/analysis"
	"goldweb/internal/artifact"
	"goldweb/internal/core"
	"goldweb/internal/cwm"
	"goldweb/internal/htmlgen"
	"goldweb/internal/server"
	"goldweb/internal/xmldom"
	"goldweb/internal/xpath"
	"goldweb/internal/xsd"
)

// The traced run records spans from the benchmark's own code: one root
// span per op, a child around the op's entry-point call, and one child
// per call of the op's inputs replayed through the public functions the
// entry point is built from. Replay numbers are per-call costs of each
// layer on the workload's inputs, not counts of how often the program
// calls a layer.

type spanName uint8

const (
	opRead spanName = iota
	opSwap
	spanHandle
	spanSet
	spanParse
	spanValidateStructure
	spanModelFromXML
	spanLint
	spanToXML
	spanFreeze
	spanValidateFull
	spanSerialize
	spanCWM
	spanIntern
	spanPublishMulti
	spanPublishFocus
	spanPublishSingle
	spanTransform
	spanGzip
	spanServeIdentity
	spanServeGzip
	spanServe304
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"op.read", "op.swap", "server.handle", "catalog.set",
	"xmldom.parse", "xsd.validate_structure", "core.model_from_xml", "analysis.lint_model",
	"core.to_xml", "xmldom.freeze", "xsd.validate_full", "xmldom.serialize", "cwm.export",
	"artifact.intern", "htmlgen.publish_multi", "htmlgen.publish_focus", "htmlgen.publish_single",
	"xslt.transform", "artifact.gzip",
	"artifact.serve_identity", "artifact.serve_gzip", "artifact.serve_304",
}

// setSteps are the replayed calls that each mirror one step of
// Catalog.Set; their summed time over the summed Set time is
// catalog.replay_coverage. The transform runs inside the multi-page
// publish, so it is timed on its own and left out of the sum.
var setSteps = [numSpanNames]bool{
	spanParse: true, spanValidateStructure: true, spanModelFromXML: true, spanLint: true,
	spanToXML: true, spanFreeze: true, spanValidateFull: true, spanSerialize: true, spanCWM: true,
	spanIntern: true, spanPublishMulti: true,
}

// span is one timed call. a and b are counts taken at the same boundary:
//
//	op.read            a = 1 when the cache mirror classed the read a hit, b = status
//	xmldom.parse       a = input bytes
//	xmldom.serialize   a = bytes produced
//	htmlgen.publish_*  a = pages, b = bytes
//	artifact.intern    a = bytes, b = 1 when the content was already interned
//	artifact.gzip      a = identity bytes, b = gzip bytes (0: not worth compressing)
type span struct {
	op     uint32 // op number within its buffer
	parent int32  // index of the parent in the same buffer; -1 for an op root
	name   spanName
	start  int64 // ns since the trace epoch
	end    int64
	a, b   int64
}

// maxSpans bounds one client's span buffer; a traced client stops when
// its buffer is full, so the traced phase may end before its time.
const maxSpans = 1 << 18

// spanBuf is one client's spans, kept in memory until the run ends.
type spanBuf struct {
	epoch time.Time
	spans []span
	ops   uint32
}

func (b *spanBuf) full() bool { return b != nil && len(b.spans) >= maxSpans }

func (b *spanBuf) ns(t time.Time) int64 { return t.Sub(b.epoch).Nanoseconds() }

// root opens an op's root span; close ends it.
func (b *spanBuf) root(name spanName, start time.Time) int {
	b.ops++
	b.spans = append(b.spans, span{op: b.ops, parent: -1, name: name, start: b.ns(start)})
	return len(b.spans) - 1
}

func (b *spanBuf) close(i int) { b.spans[i].end = b.ns(time.Now()) }

// add records a finished child span of parent.
func (b *spanBuf) add(name spanName, parent int, start, end time.Time) int {
	b.spans = append(b.spans, span{op: b.spans[parent].op, parent: int32(parent), name: name,
		start: b.ns(start), end: b.ns(end)})
	return len(b.spans) - 1
}

// time runs fn as a child span of parent.
func (b *spanBuf) time(name spanName, parent int, fn func()) int {
	start := time.Now()
	fn()
	return b.add(name, parent, start, time.Now())
}

// tracer owns the span buffers, the cache mirror, and the replay's own
// artifact store, kept apart from the program's artifact.Shared.
type tracer struct {
	epoch  time.Time
	mirror *mirror

	mu    sync.Mutex
	bufs  []*spanBuf
	docs  []validatedDoc // latest validated document per model
	store *artifact.Store
}

type validatedDoc struct {
	stamp int
	doc   *xmldom.Node
}

func newTracer(models, cacheSize int) *tracer {
	if cacheSize <= 0 {
		cacheSize = server.DefaultCacheSize
	}
	return &tracer{
		epoch:  time.Now(),
		mirror: &mirror{capacity: cacheSize, models: make([]mirrorModel, models)},
		docs:   make([]validatedDoc, models),
		store:  artifact.NewStore(),
	}
}

func (tr *tracer) newSpanBuf() *spanBuf {
	b := &spanBuf{epoch: tr.epoch, spans: make([]span, 0, 1024)}
	tr.mu.Lock()
	tr.bufs = append(tr.bufs, b)
	tr.mu.Unlock()
	return b
}

// validated returns model mi's publication source at a revision: parsed,
// rebuilt from the model, validated with defaults applied and frozen —
// the document the server publishes from. It is built outside any span.
func (tr *tracer) validated(f *fixture, mi, stamp int) (*xmldom.Node, error) {
	tr.mu.Lock()
	d := tr.docs[mi]
	tr.mu.Unlock()
	if d.doc != nil && d.stamp == stamp {
		return d.doc, nil
	}
	m, err := core.ModelFromXMLString(string(f.models[mi].source(stamp)))
	if err != nil {
		return nil, err
	}
	doc := m.ToXML()
	if errs := core.ValidateDocument(doc); len(errs) > 0 {
		return nil, fmt.Errorf("%s revision %d: %v", f.models[mi].name, stamp, errs[0])
	}
	xmldom.Freeze(doc)
	tr.setDoc(mi, stamp, doc)
	return doc, nil
}

func (tr *tracer) setDoc(mi, stamp int, doc *xmldom.Node) {
	tr.mu.Lock()
	tr.docs[mi] = validatedDoc{stamp, doc}
	tr.mu.Unlock()
}

// intern times one Store.Intern into the replay store and notes whether
// the content was already there (the store's Len did not grow).
func (tr *tracer) intern(b *spanBuf, parent int, ct string, body []byte) *artifact.Artifact {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	before := tr.store.Len()
	start := time.Now()
	a := tr.store.Intern(ct, body)
	i := b.add(spanIntern, parent, start, time.Now())
	b.spans[i].a = int64(len(body))
	if tr.store.Len() == before {
		b.spans[i].b = 1
	}
	return a
}

// traceRead records a read op: its ServeHTTP span, then the replay of
// what the program did for it. A miss publishes the presentation, interns
// its pages and compresses the requested one when the response was gzip;
// every read serves the oracle artifact with the same request.
func (c *client) traceRead(ti int, start, end time.Time) {
	f, tr, b := c.f, c.f.tr, c.spans
	t := &f.targets[ti]
	status := c.sink.status
	gzipped := first(c.sink.header["Content-Encoding"]) == "gzip"
	gen, _ := strconv.ParseUint(first(c.sink.header[server.GenerationHeader]), 10, 32)
	root := b.root(opRead, start)
	defer b.close(root)
	b.add(spanHandle, root, start, end)
	e, hit := tr.mirror.read(t.model, t.key)
	b.spans[root].b = int64(status)
	if hit {
		b.spans[root].a = 1
	}
	stamp, ok := tr.mirror.stamp(t.model, gen)
	if !ok {
		return // the writer has not reported this commit to the mirror yet
	}
	if !hit {
		doc, err := tr.validated(f, t.model, stamp)
		if err != nil {
			c.problem("trace %s: %v", t.uri, err)
			return
		}
		pages := c.replayPublish(root, doc, t.key)
		if a := pages[t.page]; a != nil && gzipped {
			i := b.time(spanGzip, root, func() { a.Gzip() })
			b.spans[i].a, b.spans[i].b = a.Size(), int64(len(a.Gzip()))
		}
		tr.mirror.attach(e, pages)
		c.replayTransform(root, doc, t.key)
	}
	want, err := f.oracle.page(t.model, stamp, t.key, t.page)
	if err != nil {
		c.problem("trace %s: %v", t.uri, err)
		return
	}
	want.Gzip() // materialized outside the span, as a warm artifact is
	rs := c.replaySink()
	serveStart := time.Now()
	want.Serve(rs, c.req, true)
	name := spanServeIdentity
	switch {
	case rs.status == http.StatusNotModified:
		name = spanServe304
	case first(rs.header["Content-Encoding"]) == "gzip":
		name = spanServeGzip
	}
	b.add(name, root, serveStart, time.Now())
}

// replaySink is a second ResponseWriter for serve replays.
func (c *client) replaySink() *sink {
	if c.replay == nil {
		c.replay = &sink{header: make(http.Header, 8)}
	}
	c.replay.reset(false)
	return c.replay
}

// replayPublish publishes one presentation on the served path
// (PublishDocumentContext with SkipValidation on the frozen validated
// document) and interns every page into the replay store.
func (c *client) replayPublish(root int, doc *xmldom.Node, key presKey) map[string]*artifact.Artifact {
	b := c.spans
	name := spanPublishSingle
	switch {
	case key.mode == htmlgen.MultiPage && key.focus == "":
		name = spanPublishMulti
	case key.mode == htmlgen.MultiPage:
		name = spanPublishFocus
	}
	var site *htmlgen.Site
	var err error
	i := b.time(name, root, func() {
		site, err = htmlgen.PublishDocumentContext(context.Background(), doc,
			htmlgen.Options{Mode: key.mode, Focus: key.focus, SkipValidation: true})
	})
	if err != nil {
		c.problem("trace publish %s: %v", key, err)
		return nil
	}
	b.spans[i].a, b.spans[i].b = int64(len(site.Order)), int64(site.TotalBytes())
	pages := make(map[string]*artifact.Artifact, len(site.Order))
	for _, page := range site.Order {
		pages[page] = c.f.tr.intern(b, root, contentType(page), site.Pages[page])
	}
	return pages
}

// replayTransform times the stylesheet alone on the same document.
func (c *client) replayTransform(root int, doc *xmldom.Node, key presKey) {
	sheet, err := core.SinglePageStylesheet()
	if key.mode == htmlgen.MultiPage {
		sheet, err = core.MultiPageStylesheet()
	}
	if err != nil {
		c.problem("trace transform: %v", err)
		return
	}
	params := map[string]xpath.Value{"focus": xpath.String(key.focus), "css": xpath.String("style.css")}
	c.spans.time(spanTransform, root, func() { _, err = sheet.TransformToBuffers(doc, params) })
	if err != nil {
		c.problem("trace transform %s: %v", key, err)
	}
}

// traceSwap records a revision op: its Set span, then the replay of every
// step Set runs — parse, structural validation, model build, lint, the
// snapshot's two documents, full validation, the XML, pretty, client and
// CWM views, the shadow multi-page publish and its interning.
func (c *client) traceSwap(mi, stamp int, src []byte, start, end time.Time) {
	f, tr, b := c.f, c.f.tr, c.spans
	root := b.root(opSwap, start)
	defer b.close(root)
	b.add(spanSet, root, start, end)
	fail := func(err error) { c.problem("trace %s revision %d: %v", f.models[mi].name, stamp, err) }

	var doc *xmldom.Node
	var err error
	i := b.time(spanParse, root, func() { doc, err = xmldom.ParseContext(context.Background(), src, xmldom.DefaultLimits) })
	b.spans[i].a = int64(len(src))
	if err != nil {
		fail(err)
		return
	}
	schema := core.MustSchema()
	b.time(spanValidateStructure, root, func() {
		schema.Validate(doc, xsd.ValidateOptions{ApplyDefaults: true, SkipIdentityConstraints: true})
	})
	var m *core.Model
	b.time(spanModelFromXML, root, func() { m, err = core.ModelFromXML(doc) })
	if err != nil {
		fail(err)
		return
	}
	b.time(spanLint, root, func() { analysis.LintModel(f.models[mi].name+".xml", doc, schema) })
	var raw, pub *xmldom.Node
	b.time(spanToXML, root, func() { raw = m.ToXML() })
	b.time(spanFreeze, root, func() { xmldom.Freeze(raw) })
	b.time(spanToXML, root, func() { pub = m.ToXML() })
	b.time(spanValidateFull, root, func() { core.ValidateDocument(pub) })
	b.time(spanFreeze, root, func() { xmldom.Freeze(pub) })
	var modelXML, pretty, client []byte
	i = b.time(spanSerialize, root, func() {
		modelXML = []byte(xmldom.SerializeToString(raw, xmldom.WriteOptions{}))
		pretty = []byte(xmldom.Pretty(raw))
		client = clientView(raw)
	})
	b.spans[i].a = int64(len(modelXML) + len(pretty) + len(client))
	var xmi string
	b.time(spanCWM, root, func() { xmi = cwm.ExportString(m) })
	const xmlCT = "text/xml; charset=utf-8"
	views := []*artifact.Artifact{
		tr.intern(b, root, xmlCT, modelXML),
		tr.intern(b, root, "text/plain; charset=utf-8", pretty),
		tr.intern(b, root, xmlCT, client),
		tr.intern(b, root, xmlCT, []byte(xmi)),
	}
	pages := c.replayPublish(root, pub, multi(""))
	tr.mirror.commit(mi, stamp, pages, views)
	tr.setDoc(mi, stamp, pub)
	c.replayTransform(root, pub, multi(""))
}

// clientView is the served /client/model.xml: the document with an
// xml-stylesheet processing instruction in front of the root element.
func clientView(frozen *xmldom.Node) []byte {
	doc := frozen.Editable()
	pi := &xmldom.Node{Type: xmldom.PINode, Name: "xml-stylesheet",
		Data: `type="text/xsl" href="/client/single.xsl"`}
	doc.InsertBefore(pi, doc.DocumentElement())
	return []byte(xmldom.SerializeToString(doc, xmldom.WriteOptions{}))
}

// mirror follows the server's documented per-model presentation cache —
// an LRU of CacheSize keys, purged and seeded with the multi-page site
// on every commit — so a read can be classed as a hit or a miss without
// looking inside the program. Entries hold the replay store's pages and
// release them on eviction, as the server does.
type mirror struct {
	mu       sync.Mutex
	capacity int
	models   []mirrorModel
}

type mirrorModel struct {
	stamps []int          // revision stamp per generation
	lru    []*mirrorEntry // most recently used first
	views  []*artifact.Artifact
}

type mirrorEntry struct {
	key     presKey
	pages   map[string]*artifact.Artifact // nil when filled by an untraced op
	evicted bool
}

func releaseAll(pages map[string]*artifact.Artifact) {
	for _, a := range pages {
		a.Release()
	}
}

// read looks key up, moving it to the front on a hit and inserting an
// empty entry on a miss.
func (m *mirror) read(model int, key presKey) (*mirrorEntry, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	mm := &m.models[model]
	for i, e := range mm.lru {
		if e.key == key {
			copy(mm.lru[1:i+1], mm.lru[:i])
			mm.lru[0] = e
			return e, true
		}
	}
	e := &mirrorEntry{key: key}
	mm.lru = append([]*mirrorEntry{e}, mm.lru...)
	for len(mm.lru) > m.capacity {
		old := mm.lru[len(mm.lru)-1]
		mm.lru = mm.lru[:len(mm.lru)-1]
		old.evicted = true
		releaseAll(old.pages)
	}
	return e, false
}

// attach gives a missed entry the pages its replay published.
func (m *mirror) attach(e *mirrorEntry, pages map[string]*artifact.Artifact) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if e.evicted || e.pages != nil {
		releaseAll(pages)
		return
	}
	e.pages = pages
}

// commit records a new generation: the cache is purged and seeded with
// the shadow-published multi-page site, and the old views are released.
func (m *mirror) commit(model, stamp int, pages map[string]*artifact.Artifact, views []*artifact.Artifact) {
	m.mu.Lock()
	defer m.mu.Unlock()
	mm := &m.models[model]
	for _, e := range mm.lru {
		e.evicted = true
		releaseAll(e.pages)
	}
	for _, a := range mm.views {
		a.Release()
	}
	mm.lru = []*mirrorEntry{{key: multi(""), pages: pages}}
	mm.views = views
	mm.stamps = append(mm.stamps, stamp)
}

// stamp maps a generation to the revision committed at it.
func (m *mirror) stamp(model int, gen uint64) (int, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	stamps := m.models[model].stamps
	if gen == 0 || gen > uint64(len(stamps)) {
		return 0, false
	}
	return stamps[gen-1], true
}

// layerStats aggregates spans into the per-layer metrics. entry names
// the workload's entry-point span and untracedNS is the median time of
// the same op with tracing off; their ratio is trace.overhead_ratio.
func (tr *tracer) layerStats(entry spanName, untracedNS float64) map[string]float64 {
	var dur [numSpanNames][]int64
	var sumA, sumB [numSpanNames]int64
	var handleSelf []int64
	reads, hits, n304 := 0, 0, 0
	var setNS, stepNS, gzIn, gzOut int64
	for _, b := range tr.bufs {
		for ri := 0; ri < len(b.spans); ri++ {
			r := b.spans[ri]
			if r.parent != -1 {
				continue
			}
			var handle, serve int64 = -1, -1
			for ci := ri + 1; ci < len(b.spans) && b.spans[ci].parent == int32(ri); ci++ {
				s := b.spans[ci]
				d := s.end - s.start
				dur[s.name] = append(dur[s.name], d)
				sumA[s.name] += s.a
				sumB[s.name] += s.b
				switch {
				case s.name == spanGzip && s.b > 0:
					gzIn += s.a
					gzOut += s.b
				case s.name == spanHandle:
					handle = d
				case s.name >= spanServeIdentity:
					serve = d
				case s.name == spanSet:
					setNS += d
				case r.name == opSwap && setSteps[s.name]:
					stepNS += d
				}
			}
			if r.name == opRead {
				reads++
				if r.b == 304 {
					n304++
				}
				if r.a == 1 {
					hits++
					if handle >= 0 && serve >= 0 {
						handleSelf = append(handleSelf, handle-serve)
					}
				}
			}
		}
	}
	us := func(n spanName) float64 { return median(dur[n]) / 1e3 }
	perPublish := func(sums *[numSpanNames]int64) float64 {
		n := len(dur[spanPublishMulti]) + len(dur[spanPublishFocus]) + len(dur[spanPublishSingle])
		return ratio(float64(sums[spanPublishMulti]+sums[spanPublishFocus]+sums[spanPublishSingle]), float64(n))
	}
	return map[string]float64{
		"xmldom.parse_us":             us(spanParse),
		"xmldom.parse_mb_s":           ratio(float64(sumA[spanParse]), float64(sum(dur[spanParse]))) * 1e3,
		"xmldom.freeze_us":            us(spanFreeze),
		"xmldom.serialize_us":         us(spanSerialize),
		"xsd.validate_structure_us":   us(spanValidateStructure),
		"xsd.validate_full_us":        us(spanValidateFull),
		"core.model_from_xml_us":      us(spanModelFromXML),
		"core.to_xml_us":              us(spanToXML),
		"analysis.lint_model_us":      us(spanLint),
		"cwm.export_us":               us(spanCWM),
		"xslt.transform_us":           us(spanTransform),
		"htmlgen.publish_multi_us":    us(spanPublishMulti),
		"htmlgen.publish_focus_us":    us(spanPublishFocus),
		"htmlgen.publish_single_us":   us(spanPublishSingle),
		"htmlgen.pages_per_publish":   perPublish(&sumA),
		"htmlgen.kb_per_publish":      perPublish(&sumB) / 1024,
		"artifact.intern_us":          us(spanIntern),
		"artifact.intern_dedup_ratio": ratio(float64(sumB[spanIntern]), float64(len(dur[spanIntern]))),
		"artifact.gzip_us":            us(spanGzip),
		"artifact.gzip_ratio":         ratio(float64(gzOut), float64(gzIn)),
		"artifact.serve_identity_ns":  median(dur[spanServeIdentity]),
		"artifact.serve_gzip_ns":      median(dur[spanServeGzip]),
		"artifact.serve_304_ns":       median(dur[spanServe304]),
		"server.handle_self_ns":       median(handleSelf),
		"server.miss_ratio":           ratio(float64(reads-hits), float64(reads)),
		"server.ratio_304":            ratio(float64(n304), float64(reads)),
		"catalog.set_ms":              median(dur[spanSet]) / 1e6,
		"catalog.replay_coverage":     ratio(float64(stepNS), float64(setNS)),
		"artifact.store_mb":           float64(artifact.Shared.Bytes()) / (1 << 20),
		"trace.overhead_ratio":        ratio(median(dur[entry]), untracedNS),
	}
}

// median is the middle sample, or the mean of the two middle ones; 0
// without samples.
func median[T int64 | float64](xs []T) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return float64(s[len(s)/2])
	}
	return float64(s[len(s)/2-1]+s[len(s)/2]) / 2
}

func sum(xs []int64) int64 {
	var n int64
	for _, x := range xs {
		n += x
	}
	return n
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// writeSpans writes every span as JSON: one object per span with its op,
// id, parent, name, start and end in ns since the trace epoch, and the
// counts taken at its boundary.
func (tr *tracer) writeSpans(path string, header map[string]any) error {
	fh, err := os.Create(path)
	if err != nil {
		return err
	}
	defer fh.Close()
	w := bufio.NewWriter(fh)
	head, err := json.Marshal(header)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "{\"run\":%s,\"spans\":[", head)
	sep := "\n"
	for ci, b := range tr.bufs {
		for i, s := range b.spans {
			parent := int64(-1)
			if s.parent >= 0 {
				parent = int64(ci)<<32 | int64(s.parent)
			}
			fmt.Fprintf(w, "%s{\"op\":%d,\"id\":%d,\"parent\":%d,\"name\":%q,\"start_ns\":%d,\"end_ns\":%d,\"a\":%d,\"b\":%d}",
				sep, int64(ci)<<32|int64(s.op), int64(ci)<<32|int64(i), parent, spanNames[s.name], s.start, s.end, s.a, s.b)
			sep = ",\n"
		}
	}
	fmt.Fprint(w, "\n]}\n")
	if err := w.Flush(); err != nil {
		return err
	}
	return fh.Close()
}
