package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"goldweb/internal/xmldom"
)

// benchmarkJSON is the declaration the runs are checked against.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []declared `json:"end_to_end"`
	PerLayer []declared `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestWorkloads runs every workload for a second, untraced and traced:
// no op may fail, the last line must carry exactly the declared metrics
// with their units, the report must print each by name with its unit,
// and the machine fingerprint must lead the output.
func TestWorkloads(t *testing.T) {
	decl := readBenchmarkJSON(t)
	for _, w := range workloads {
		for _, trace := range []int{0, 1} {
			t.Run(fmt.Sprintf("%s/trace=%d", w.name, trace), func(t *testing.T) {
				var out, errs bytes.Buffer
				args := []string{"-workload", w.name, "-seed", "3", "-seconds", "1", "-trace", strconv.Itoa(trace), "-setups", "1"}
				if code := run(args, &out, &errs); code != 0 {
					t.Fatalf("exit %d\n%s%s", code, out.String(), errs.String())
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var l line
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &l); err != nil {
					t.Fatalf("last line is not the result: %v", err)
				}
				if !l.Correct || l.Failed != 0 || l.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d\n%s", l.Correct, l.Attempted, l.Failed, out.String())
				}
				want := decl.EndToEnd
				if trace == 1 {
					want = decl.PerLayer
				}
				if len(l.Metrics) != len(want) {
					t.Errorf("%d metrics on the last line, %d declared", len(l.Metrics), len(want))
				}
				for _, d := range want {
					m, ok := l.Metrics[d.Name]
					if !ok || m.Unit != d.Unit {
						t.Errorf("metric %s: got %+v, declared unit %s", d.Name, m, d.Unit)
					}
					if !strings.Contains(out.String(), " "+d.Name+" ") || !strings.Contains(out.String(), " "+d.Unit+"\n") {
						t.Errorf("report does not print %s with its unit %s", d.Name, d.Unit)
					}
				}
				for _, field := range []string{"fingerprint cpu=", " nproc=", " gomaxprocs=", " go=go", " vcs="} {
					if !strings.Contains(lines[0], field) {
						t.Errorf("fingerprint line %q lacks %q", lines[0], field)
					}
				}
			})
		}
	}
}

// TestDeclarationMatchesCode keeps BENCHMARK.json's workloads and
// metrics in step with the code's tables.
func TestDeclarationMatchesCode(t *testing.T) {
	decl := readBenchmarkJSON(t)
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in code, %d declared", len(workloads), len(decl.Workloads))
	}
	for i, w := range workloads {
		if d := decl.Workloads[i]; d.Name != w.name || d.Why != w.why {
			t.Errorf("workload %d: code %s %q, declared %s %q", i, w.name, w.why, d.Name, d.Why)
		}
	}
	for _, c := range []struct {
		code []metricDef
		decl []declared
	}{{endToEnd, decl.EndToEnd}, {perLayer, decl.PerLayer}} {
		if len(c.code) != len(c.decl) {
			t.Fatalf("%d metrics in code, %d declared", len(c.code), len(c.decl))
		}
		for i, d := range c.code {
			if d.name != c.decl[i].Name || d.unit != c.decl[i].Unit {
				t.Errorf("metric %d: code %s (%s), declared %s (%s)", i, d.name, d.unit, c.decl[i].Name, c.decl[i].Unit)
			}
		}
	}
}

// TestOpSequencesFollowTheSeed: the same seed draws byte-identical op
// sequences for every client, and another seed draws a different one.
func TestOpSequencesFollowTheSeed(t *testing.T) {
	for _, w := range workloads {
		p, err := newPlan(w)
		if err != nil {
			t.Fatal(err)
		}
		f := &fixture{plan: p}
		seq := func(seed int64) string {
			var b strings.Builder
			l := f.newLoad(seed)
			for i, g := range l.readGens {
				for k := 0; k < 500; k++ {
					ti, gz, cond, sample := g.next()
					fmt.Fprintf(&b, "reader %d: %s gzip=%v cond=%v sample=%v\n", i, p.targets[ti].uri, gz, cond, sample)
				}
			}
			gens := l.swapGens
			if l.openGen != nil {
				gens = append(gens, l.openGen)
			}
			for i, g := range gens {
				for k := 0; k < 500; k++ {
					mi, stamp := g.next()
					fmt.Fprintf(&b, "writer %d: %s revision %d\n", i, p.models[mi].name, stamp)
				}
			}
			return b.String()
		}
		a, again, other := seq(1), seq(1), seq(2)
		if a == "" || a != again {
			t.Errorf("%s: seed 1 drew different sequences", w.name)
		}
		if a == other {
			t.Errorf("%s: seeds 1 and 2 drew the same sequence", w.name)
		}
	}
}

// TestRevisionsKeepThePageSet: a revision rewrites the stamped
// attributes, parses, and publishes the same pages as revision 0.
func TestRevisionsKeepThePageSet(t *testing.T) {
	models, err := loadModels()
	if err != nil {
		t.Fatal(err)
	}
	if len(models) != 13 {
		t.Fatalf("%d models, want 13", len(models))
	}
	o := newOracle(models)
	for mi, m := range models {
		src := m.source(4242)
		doc, err := xmldom.Parse(src)
		if err != nil {
			t.Fatalf("%s: %v", m.name, err)
		}
		root := doc.DocumentElement()
		if _, err := time.Parse("2006-01-02", root.AttrValue("lastmodified")); err != nil {
			t.Errorf("%s: lastmodified: %v", m.name, err)
		}
		if !strings.HasSuffix(root.AttrValue("description"), "(revision 4242)") {
			t.Errorf("%s: description %q", m.name, root.AttrValue("description"))
		}
		base, err := o.site(mi, 0, multi(""))
		if err != nil {
			t.Fatal(err)
		}
		rev, err := o.site(mi, 4242, multi(""))
		if err != nil {
			t.Fatal(err)
		}
		if strings.Join(base.order, " ") != strings.Join(rev.order, " ") {
			t.Errorf("%s: revision changed the page set", m.name)
		}
		if base.pages["index.html"].ETag() == rev.pages["index.html"].ETag() {
			t.Errorf("%s: revision left the index page unchanged", m.name)
		}
	}
}

// TestLatencyPercentiles: nearest-rank percentiles, failures sorting
// above every duration, and the tail rule of ten samples beyond.
func TestLatencyPercentiles(t *testing.T) {
	l := newLatencies()
	for i := 1; i <= 1000; i++ {
		l.add(time.Duration(i))
	}
	s := summarize(l)
	if s.quantile(0.5) != 500 || s.quantile(0.99) != 990 {
		t.Errorf("p50 %v p99 %v", s.quantile(0.5), s.quantile(0.99))
	}
	if q, v := s.tail(); q != 0.99 || v != 990 || s.beyond(q) != 10 {
		t.Errorf("tail p%v = %v with %d beyond", 100*q, v, s.beyond(q))
	}
	l.fail()
	if got := summarize(l).quantile(1); got < 1e300 {
		t.Errorf("a failed op reads %v, want +Inf", got)
	}
}

// TestCompareRules pins the verdicts of -compare.
func TestCompareRules(t *testing.T) {
	if q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles %v %v, want 2.75 8.25 as Python's statistics.quantiles", q1, q3)
	}
	lower := declared{Name: "op_p50_us", Better: "lower", Bound: 0.1}
	flat := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(k float64) []float64 {
		out := make([]float64, len(flat))
		for i, v := range flat {
			out[i] = v * k
		}
		return out
	}
	for _, c := range []struct {
		change       []float64
		moreFailures bool
		want         string
	}{
		{shift(1), false, "within bound"},
		{shift(0.8), false, "gain"},
		{shift(1.2), false, "regression"},
		{[]float64{50, 150, 60, 140, 70, 130, 80, 120, 90, 110}, false, "unresolved"},
		{shift(0.8), true, "regression: more failures"},
		{shift(1), true, "regression: more failures"},
	} {
		j := judge(flat, c.change, lower, c.moreFailures)
		if j.verdict != c.want || j.regression != strings.HasPrefix(c.want, "regression") {
			t.Errorf("change %v, more failures %v: %s (regression %v), want %s", c.change, c.moreFailures, j.verdict, j.regression, c.want)
		}
	}
	runs := []*result{{Correct: true}, {Correct: false, Failed: 3}, {Correct: true}}
	if got := failures(runs); got != 4 {
		t.Errorf("failures: %d, want 3 failed ops plus 1 incorrect run", got)
	}
}
