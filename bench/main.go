// Command bench is goldweb's end-to-end benchmark. It loads a catalog of
// 13 frozen models in process and drives it through its public entry
// points only — Catalog.Handler().ServeHTTP for reads and Catalog.Set
// for model revisions, with no socket involved — under one of four
// workloads. It checks every response against an oracle, prints every
// metric by name with its unit, and ends standard output with one JSON
// line. It exits 1 when an operation failed or an output was wrong.
// From the repository root:
//
//	bash bench/run.sh -workload browse-warm -seed 1 -seconds 20 -trace 0
//	bash bench/run.sh -seed 1                # all four workloads
//	bash bench/run.sh -workload swap -trace 1 -spans swap-spans.json
//	bash bench/run.sh -compare parent.jsonl change.jsonl
//
// README.md describes the workloads and metrics and how to read a trace.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"

	"goldweb/internal/core"
	"goldweb/internal/htmlgen"
	"goldweb/internal/xmldom"
	"goldweb/internal/xsd"
)

func main() {
	runtime.GOMAXPROCS(runtime.NumCPU())
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are one run's settings.
type options struct {
	seed    int64
	seconds float64
	trace   bool
	spans   string
	out     string
	setups  int
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run; empty runs all four, each in its own process")
	seed := fs.Int64("seed", 1, "seed of the request mix and the revisions")
	seconds := fs.Float64("seconds", 20, "measured seconds per run")
	trace := fs.Int("trace", 0, "1 runs traced and reports the per-layer metrics")
	spans := fs.String("spans", "", "with -trace 1 and -workload, also write every span to this JSON file")
	out := fs.String("out", "", "append each run's full result as one JSON line to this file, the input of -compare")
	setups := fs.Int("setups", 9, "set-ups per run; setup_s is their median, all but one made in child processes")
	setupOnly := fs.Bool("setup-only", false, "set up once, print the set-up time and exit")
	cmp := fs.Bool("compare", false, "compare two -out files, from the repository root: -compare parent.jsonl change.jsonl")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *cmp {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare wants two files: parent.jsonl change.jsonl")
			return 2
		}
		regressed, err := compare(fs.Arg(0), fs.Arg(1), stdout)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
		if regressed {
			return 1
		}
		return 0
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "bench: -trace is 0 or 1")
		return 2
	}
	if *seconds <= 0 || *setups < 1 {
		fmt.Fprintln(stderr, "bench: -seconds must be positive and -setups at least 1")
		return 2
	}
	o := options{seed: *seed, seconds: *seconds, trace: *trace == 1, spans: *spans, out: *out, setups: *setups}
	if *name == "" {
		if o.spans != "" {
			fmt.Fprintln(stderr, "bench: -spans needs -workload")
			return 2
		}
		return runAll(o, stdout, stderr)
	}
	w := workloadNamed(*name)
	if w == nil {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
		return 2
	}
	if *setupOnly {
		s, err := setUpOnce(w)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
		fmt.Fprintf(stdout, "setup_s %v\n", s)
		return 0
	}
	fp := machineFingerprint()
	fmt.Fprintf(stdout, "fingerprint %s\n", fp)
	r, err := runWorkload(w, o, fp)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	r.print(stdout, w)
	if o.out != "" {
		if err := appendRecord(o.out, r); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
	}
	data, err := json.Marshal(r.line())
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	fmt.Fprintf(stdout, "%s\n", data)
	if !r.Correct {
		return 1
	}
	return 0
}

// setUpOnce builds one workload's catalog and reports how long its
// set-up took, in seconds.
func setUpOnce(w *workload) (float64, error) {
	p, err := newPlan(w)
	if err != nil {
		return 0, err
	}
	f, _, err := p.setUp(nil)
	if err != nil {
		return 0, err
	}
	f.cat.Close()
	return f.setup.Seconds(), nil
}

// childSetUp runs one set-up in a fresh process, so each set-up pays the
// same cold costs: nothing is interned, compressed or cached yet.
func childSetUp(w *workload) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	var out bytes.Buffer
	cmd := exec.Command(exe, "-setup-only", "-workload", w.name)
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	if err := cmd.Run(); err != nil {
		return 0, fmt.Errorf("set-up child: %w", err)
	}
	v, ok := strings.CutPrefix(strings.TrimSpace(out.String()), "setup_s ")
	if !ok {
		return 0, fmt.Errorf("set-up child printed %q", out.String())
	}
	return strconv.ParseFloat(v, 64)
}

// runAll runs each workload in its own process, so no workload inherits
// another's interned artifacts or heap, and ends with one JSON line whose
// metrics are keyed workload/metric.
func runAll(o options, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	total := line{Correct: true, Metrics: map[string]metric{}}
	for _, w := range workloads {
		args := []string{"-workload", w.name, "-seed", strconv.FormatInt(o.seed, 10),
			"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-setups", strconv.Itoa(o.setups)}
		if o.trace {
			args = append(args, "-trace", "1")
		}
		if o.out != "" {
			args = append(args, "-out", o.out)
		}
		cmd := exec.Command(exe, args...)
		cmd.Stderr = stderr
		pipe, err := cmd.StdoutPipe()
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
		if err := cmd.Start(); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
		var last string
		sc := bufio.NewScanner(pipe)
		for sc.Scan() {
			if last != "" {
				fmt.Fprintln(stdout, last)
			}
			last = sc.Text()
		}
		waitErr := cmd.Wait()
		var l line
		if err := json.Unmarshal([]byte(last), &l); err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v (%v)\n", w.name, waitErr, last)
			return 2
		}
		total.Correct = total.Correct && l.Correct
		total.Attempted += l.Attempted
		total.Failed += l.Failed
		for k, m := range l.Metrics {
			total.Metrics[w.name+"/"+k] = m
		}
	}
	data, err := json.Marshal(total)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	fmt.Fprintf(stdout, "%s\n", data)
	if !total.Correct {
		return 1
	}
	return 0
}

// runWorkload is one run of one workload in this process.
func runWorkload(w *workload, o options, fp fingerprint) (*result, error) {
	var setups []float64
	for i := 1; i < o.setups; i++ {
		s, err := childSetUp(w)
		if err != nil {
			return nil, err
		}
		setups = append(setups, s)
	}
	p, err := newPlan(w)
	if err != nil {
		return nil, err
	}
	var tr *tracer
	if o.trace {
		tr = newTracer(len(p.models), w.cacheSize)
	}
	f, setupClient, err := p.setUp(tr)
	if err != nil {
		return nil, err
	}
	defer f.cat.Close()
	setups = append(setups, f.setup.Seconds())

	r := &result{Workload: w.name, Seed: o.seed, Trace: o.trace, Seconds: o.seconds, Fingerprint: fp}
	l := f.newLoad(o.seed)
	d := time.Duration(o.seconds * float64(time.Second))
	// A warm-up phase runs first and is left out of every metric: the
	// first second after set-up is slower while the heap and the
	// scheduler settle. Its ops are still checked.
	phases := []*phaseResult{f.run(l, min(time.Second, d/4), false)}
	if o.trace {
		// The first half runs untraced: it gives the runtime metrics and
		// the untraced op time the trace overhead is measured against,
		// while the cache mirror follows along. The second half is traced.
		a := readRuntime()
		pre := f.run(l, d/2, false)
		b := readRuntime()
		traced := f.run(l, d/2, true)
		phases = append(phases, pre, traced)
		entry, untraced := spanHandle, summarize(pre.reads...)
		if w.readers == 0 {
			entry, untraced = spanSet, summarize(pre.swaps...)
		}
		layer := tr.layerStats(entry, untraced.quantile(0.5))
		for k, v := range runtimeStats(a, b, pre.readOps.reads+pre.swapOps.swaps) {
			layer[k] = v
		}
		allocs, err := f.allocStats()
		if err != nil {
			return nil, err
		}
		for k, v := range allocs {
			layer[k] = v
		}
		for _, d := range perLayer {
			r.set(d.name, d.unit, layer[d.name])
		}
	} else {
		a := readRuntime()
		ph := f.run(l, d, false)
		b := readRuntime()
		phases = append(phases, ph)
		f.endToEnd(r, ph, median(setups))
		rt := runtimeStats(a, b, ph.readOps.reads+ph.swapOps.swaps)
		r.set("alloc_kb_per_op", "KiB", rt["alloc_kb_per_op"])
		for _, d := range perLayer {
			if v, ok := rt[d.name]; ok {
				r.set(d.name, d.unit, v)
			}
		}
	}

	clients := append(l.all(), setupClient)
	failed, problems := f.verify(clients)
	for _, c := range clients {
		problems = append(problems, c.problems...)
	}
	for _, ph := range phases {
		r.Attempted += ph.readOps.reads + ph.swapOps.swaps
		failed += ph.readOps.readFails + ph.swapOps.swapFails
	}
	failed += setupClient.failed()
	r.Failed, r.Problems = failed, problems
	r.Correct = failed == 0 && len(problems) == 0

	if o.spans != "" && tr != nil {
		if err := tr.writeSpans(o.spans, map[string]any{"workload": w.name, "seed": o.seed, "fingerprint": fp}); err != nil {
			return nil, err
		}
	}
	if !o.trace {
		// The heap is measured with only the catalog left reachable: the
		// oracle, the samples and the clients are dropped first.
		f.oracle, l, setupClient, clients, phases = nil, nil, nil, nil, nil
		r.set("heap_live_mb", "MiB", heapLiveMiB())
		runtime.KeepAlive(f.cat)
	}
	return r, nil
}

// endToEnd fills the untraced metrics: per op kind the rate, median and
// tail latency, bytes on the wire and failure ratio, then the gated
// ones: the rate of all ops and the latency of the workload's timed op.
func (f *fixture) endToEnd(r *result, ph *phaseResult, setup float64) {
	secs := ph.elapsed.Seconds()
	r.set("setup_s", "s", setup)
	reads, swaps := summarize(ph.reads...), summarize(ph.swaps...)
	if reads.n() > 0 {
		ok := ph.readOps.reads - ph.readOps.readFails
		r.set("read_rps", "req/s", float64(ok)/secs)
		r.set("read_p50_us", "us", reads.quantile(0.5)/1e3)
		r.set("read_p99_us", "us", reads.quantile(0.99)/1e3)
		r.set("read_p999_us", "us", reads.quantile(0.999)/1e3)
		r.set("read_samples_beyond_p999", "count", float64(reads.beyond(0.999)))
		r.set("read_samples", "count", float64(reads.n()))
		r.set("read_wire_bytes", "B/req", ratio(float64(ph.readOps.wire), float64(ok)))
		r.set("read_ratio_304", "ratio", ratio(float64(ph.readOps.n304), float64(ph.readOps.reads)))
		r.set("read_fail_ratio", "failed/attempted", ratio(float64(ph.readOps.readFails), float64(ph.readOps.reads)))
	}
	if swaps.n() > 0 {
		ok := ph.swapOps.swaps - ph.swapOps.swapFails
		q, tail := swaps.tail()
		r.set("swap_per_s", "swaps/s", float64(ok)/secs)
		r.set("swap_p50_ms", "ms", swaps.quantile(0.5)/1e6)
		r.set("swap_p99_ms", "ms", swaps.quantile(0.99)/1e6)
		r.set(fmt.Sprintf("swap_p%g_ms", 100*q), "ms", tail/1e6)
		r.set("swap_samples", "count", float64(swaps.n()))
		r.set("swap_fail_ratio", "failed/attempted", ratio(float64(ph.swapOps.swapFails), float64(ph.swapOps.swaps)))
	}
	if f.w.writeRate > 0 {
		r.set("loadgen.late_p99_ms", "ms", summarize(ph.late...).quantile(0.99)/1e6)
	}
	ok := ph.readOps.reads - ph.readOps.readFails + ph.swapOps.swaps - ph.swapOps.swapFails
	timed := reads
	if f.w.timeSwaps {
		timed = swaps
	}
	r.set("ops_per_s", "1/s", float64(ok)/secs)
	r.set("op_p50_us", "us", timed.quantile(0.5)/1e3)
	r.set("op_p99_us", "us", timed.quantile(0.99)/1e3)
}

// allocStats measures allocation counts with every client stopped, so
// no other goroutine's allocations are counted: full validation and the
// served-path multi-page publish per model, Artifact.Serve on a warm
// artifact, and ServeHTTP for a cached page.
func (f *fixture) allocStats() (map[string]float64, error) {
	const runs = 5
	schema := core.MustSchema()
	var validate, publish float64
	for mi, m := range f.models {
		var docs []*xmldom.Node
		mod, err := core.ModelFromXMLString(string(m.base))
		if err != nil {
			return nil, err
		}
		for i := 0; i <= runs; i++ {
			docs = append(docs, mod.ToXML())
		}
		k := 0
		validate += allocsPerRun(runs, func() {
			schema.Validate(docs[k], xsd.ValidateOptions{ApplyDefaults: true})
			k++
		})
		doc, err := f.tr.validated(f, mi, 0)
		if err != nil {
			return nil, err
		}
		publish += allocsPerRun(runs, func() {
			htmlgen.PublishDocumentContext(context.Background(), doc, htmlgen.Options{Mode: htmlgen.MultiPage, SkipValidation: true})
		})
	}
	probe := &f.targets[f.probes[0]]
	a, err := f.oracle.page(probe.model, 0, probe.key, probe.page)
	if err != nil {
		return nil, err
	}
	c := f.newClient()
	c.mirror = false
	rs := c.replaySink()
	var serve float64
	for _, hdr := range []map[string]string{
		{}, {"Accept-Encoding": "gzip"}, {"If-None-Match": a.ETag()},
	} {
		clear(c.req.Header)
		for k, v := range hdr {
			c.req.Header.Set(k, v)
		}
		c.req.URL, c.req.RequestURI = probe.url, probe.uri
		serve += allocsPerRun(100, func() {
			clear(rs.header)
			a.Serve(rs, c.req, true)
		})
	}
	clear(c.req.Header)
	handle := allocsPerRun(100, func() {
		c.sink.reset(false)
		f.handler.ServeHTTP(c.sink, c.req)
	})
	n := float64(len(f.models))
	return map[string]float64{
		"xsd.validate_allocs":    validate / n,
		"htmlgen.publish_allocs": publish / n,
		"artifact.serve_allocs":  serve / 3,
		"server.handle_allocs":   handle,
	}, nil
}
