package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
)

type metricDef struct{ name, unit string }

// endToEnd are the metrics an untraced run prints on its last line, for
// every workload. ops_per_s counts every successful op; op_p50_us times
// the workload's timed op: the read on browse-warm and browse-cold, the
// revision on swap and browse-during-swaps. BENCHMARK.json declares the
// same names and units with their directions and bounds. Tail latencies
// are printed but not listed here: their run-to-run spread is wider than
// the widest bound a regression gate can use.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"op_p50_us", "us"},
	{"alloc_kb_per_op", "KiB"},
	{"heap_live_mb", "MiB"},
}

// perLayer are the metrics a traced run prints on its last line.
var perLayer = []metricDef{
	{"xmldom.parse_us", "us"},
	{"xmldom.parse_mb_s", "MB/s"},
	{"xmldom.freeze_us", "us"},
	{"xmldom.serialize_us", "us"},
	{"xsd.validate_structure_us", "us"},
	{"xsd.validate_full_us", "us"},
	{"xsd.validate_allocs", "allocs"},
	{"core.model_from_xml_us", "us"},
	{"core.to_xml_us", "us"},
	{"analysis.lint_model_us", "us"},
	{"cwm.export_us", "us"},
	{"xslt.transform_us", "us"},
	{"htmlgen.publish_multi_us", "us"},
	{"htmlgen.publish_focus_us", "us"},
	{"htmlgen.publish_single_us", "us"},
	{"htmlgen.publish_allocs", "allocs"},
	{"htmlgen.pages_per_publish", "count"},
	{"htmlgen.kb_per_publish", "KiB"},
	{"artifact.intern_us", "us"},
	{"artifact.intern_dedup_ratio", "ratio"},
	{"artifact.gzip_us", "us"},
	{"artifact.gzip_ratio", "ratio"},
	{"artifact.serve_identity_ns", "ns"},
	{"artifact.serve_gzip_ns", "ns"},
	{"artifact.serve_304_ns", "ns"},
	{"artifact.serve_allocs", "allocs"},
	{"artifact.store_mb", "MiB"},
	{"server.handle_self_ns", "ns"},
	{"server.handle_allocs", "allocs"},
	{"server.miss_ratio", "ratio"},
	{"server.ratio_304", "ratio"},
	{"catalog.set_ms", "ms"},
	{"catalog.replay_coverage", "ratio"},
	{"runtime.gc_cpu_fraction", "ratio"},
	{"runtime.gc_pause_p99_us", "us"},
	{"runtime.sched_wait_p99_us", "us"},
	{"trace.overhead_ratio", "ratio"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one workload run: everything it measured, in print order.
type result struct {
	Workload    string            `json:"workload"`
	Seed        int64             `json:"seed"`
	Trace       bool              `json:"trace"`
	Seconds     float64           `json:"seconds"`
	Fingerprint fingerprint       `json:"fingerprint"`
	Correct     bool              `json:"correct"`
	Attempted   int               `json:"attempted"`
	Failed      int               `json:"failed"`
	Metrics     map[string]metric `json:"metrics"`
	Problems    []string          `json:"problems,omitempty"`
	order       []string
}

func (r *result) set(name, unit string, v float64) {
	if r.Metrics == nil {
		r.Metrics = map[string]metric{}
	}
	if _, ok := r.Metrics[name]; !ok {
		r.order = append(r.order, name)
	}
	r.Metrics[name] = metric{Value: finite(v), Unit: unit}
}

// finite keeps a percentile that fell on a failed op printable as JSON.
func finite(v float64) float64 {
	if math.IsInf(v, 1) || math.IsNaN(v) {
		return math.MaxFloat64
	}
	return v
}

// line is the last line of standard output.
type line struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// line selects the declared metrics of the run's mode.
func (r *result) line() line {
	defs := endToEnd
	if r.Trace {
		defs = perLayer
	}
	l := line{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]metric{}}
	for _, d := range defs {
		l.Metrics[d.name] = r.Metrics[d.name]
	}
	return l
}

// print writes the human-readable report: every metric by name with its
// unit, then any problems the checks found.
func (r *result) print(w io.Writer, wl *workload) {
	fmt.Fprintf(w, "workload %s  seed=%d seconds=%g trace=%v\n", r.Workload, r.Seed, r.Seconds, r.Trace)
	fmt.Fprintf(w, "  load: %s\n  why:  %s\n", wl.loop, wl.why)
	for _, name := range r.order {
		m := r.Metrics[name]
		fmt.Fprintf(w, "  %-30s %16.6g %s\n", name, m.Value, m.Unit)
	}
	fmt.Fprintf(w, "  ops attempted %d, failed %d, correct %v\n", r.Attempted, r.Failed, r.Correct)
	for _, p := range r.Problems {
		fmt.Fprintf(w, "  problem: %s\n", p)
	}
}

// appendRecord appends the full result as one JSON line, the input
// format of -compare.
func appendRecord(path string, r *result) error {
	data, err := json.Marshal(r)
	if err != nil {
		return err
	}
	fh, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := fh.Write(append(data, '\n')); err != nil {
		fh.Close()
		return err
	}
	return fh.Close()
}

// fingerprint identifies the machine and build a run measured.
type fingerprint struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	VCS        string `json:"vcs"`
}

func machineFingerprint() fingerprint {
	fp := fingerprint{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		VCS:        "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if rev != "" {
			fp.VCS = rev
			if dirty {
				fp.VCS += "-dirty"
			}
		}
	}
	return fp
}

func (fp fingerprint) String() string {
	return fmt.Sprintf("cpu=%q nproc=%d gomaxprocs=%d go=%s vcs=%s", fp.CPU, fp.NProc, fp.GOMAXPROCS, fp.Go, fp.VCS)
}

// cpuModel reads the CPU model name where the system exposes one.
func cpuModel() string {
	fh, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer fh.Close()
	sc := bufio.NewScanner(fh)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}
