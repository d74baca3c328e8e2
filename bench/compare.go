package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"sort"
)

// declared is BENCHMARK.json's view of one end-to-end metric.
type declared struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// minPairs is the fewest parent/change pairs a gain may rest on.
const minPairs = 10

// benchmarkFile declares each metric's direction and bound. compare reads
// it from the working directory, which is the repository root.
const benchmarkFile = "BENCHMARK.json"

// compare reads two files of -out records, the parent's and the
// change's, made by alternating runs of the two with the same settings,
// and prints one markdown row per (workload, end-to-end metric):
//
//   - regression: the change's runs of the workload failed more ops, or
//     were incorrect more often, than the parent's; or the change's
//     median is worse than the parent's by more than the bound;
//   - unresolved: a side's spread (quartile distance over median) is
//     wider than the metric's bound, unless every change run beats every
//     parent run;
//   - gain: the change wins at least 9 of 10 pairs (ties count for
//     neither) and the medians differ by more than the parent's
//     quartile distance;
//   - within bound: anything else.
//
// It reports whether any pair regressed.
func compare(parentPath, changePath string, w io.Writer) (bool, error) {
	var bench struct {
		EndToEnd []declared `json:"end_to_end"`
	}
	data, err := os.ReadFile(benchmarkFile)
	if err != nil {
		return false, fmt.Errorf("%w (run -compare from the repository root)", err)
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		return false, fmt.Errorf("%s: %w", benchmarkFile, err)
	}
	parent, err := readRecords(parentPath)
	if err != nil {
		return false, err
	}
	change, err := readRecords(changePath)
	if err != nil {
		return false, err
	}
	fmt.Fprintln(w, "| workload | metric | parent median [q1, q3] | change median [q1, q3] | change | wins | failures | verdict |")
	fmt.Fprintln(w, "|---|---|---|---|---|---|---|---|")
	regressed := false
	for _, wl := range workloads {
		a, b := parent[wl.name], change[wl.name]
		if len(a) == 0 || len(b) == 0 {
			continue
		}
		fa, fb := failures(a), failures(b)
		for _, d := range bench.EndToEnd {
			xs, ys := values(a, d.Name), values(b, d.Name)
			if len(xs) == 0 || len(ys) == 0 {
				continue
			}
			row := judge(xs, ys, d, fb > fa)
			regressed = regressed || row.regression
			fmt.Fprintf(w, "| %s | %s (%s) | %s | %s | %+.1f%% | %d/%d | %d/%d | %s |\n",
				wl.name, d.Name, d.Unit, spreadString(xs), spreadString(ys),
				100*(median(ys)/median(xs)-1), row.wins, row.pairs, fa, fb, row.verdict)
		}
	}
	return regressed, nil
}

// failures counts one side's failed ops plus its runs that were not
// correct.
func failures(rs []*result) int {
	n := 0
	for _, r := range rs {
		n += r.Failed
		if !r.Correct {
			n++
		}
	}
	return n
}

type judgement struct {
	wins, pairs int
	verdict     string
	regression  bool
}

// judge applies the rules of compare to one metric's two samples, the
// i-th parent run paired with the i-th change run. moreFailures says the
// change's runs failed more often than the parent's.
func judge(parent, change []float64, d declared, moreFailures bool) judgement {
	better := func(x, y float64) bool { // x reads better than y
		if d.Better == "higher" {
			return x > y
		}
		return x < y
	}
	j := judgement{pairs: min(len(parent), len(change))}
	for i := 0; i < j.pairs; i++ {
		if better(change[i], parent[i]) {
			j.wins++
		}
	}
	mp, mc := median(parent), median(change)
	q1, q3 := quartiles(parent)
	c1, c3 := quartiles(change)
	allBetter := better(slices.Max(change), slices.Min(parent)) // the worst change run beats the best parent run
	if d.Better == "higher" {
		allBetter = better(slices.Min(change), slices.Max(parent))
	}
	worse := (mc - mp) / mp
	if d.Better == "higher" {
		worse = -worse
	}
	switch {
	case moreFailures:
		j.verdict, j.regression = "regression: more failures", true
	case ((q3-q1)/mp > d.Bound || (c3-c1)/mc > d.Bound) && !allBetter:
		j.verdict = "unresolved"
	case j.pairs >= minPairs && 10*j.wins >= 9*j.pairs && better(mc, mp) && math.Abs(mc-mp) > q3-q1:
		j.verdict = "gain"
	case allBetter:
		j.verdict = "better in every run"
	case worse > d.Bound:
		j.verdict, j.regression = "regression", true
	default:
		j.verdict = "within bound"
	}
	if j.pairs < minPairs && j.verdict == "within bound" {
		j.verdict += fmt.Sprintf(" (%d pairs: too few to claim a gain)", j.pairs)
	}
	return j
}

// readRecords groups untraced -out records by workload, in file order.
func readRecords(path string) (map[string][]*result, error) {
	fh, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer fh.Close()
	out := map[string][]*result{}
	sc := bufio.NewScanner(fh)
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if !r.Trace {
			out[r.Workload] = append(out[r.Workload], &r)
		}
	}
	return out, sc.Err()
}

func values(rs []*result, name string) []float64 {
	var out []float64
	for _, r := range rs {
		if m, ok := r.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

func spreadString(xs []float64) string {
	q1, q3 := quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g, %.4g]", median(xs), q1, q3)
}

// quartiles are the first and third quartiles as Python's
// statistics.quantiles(xs, n=4) computes them (the exclusive method).
func quartiles(xs []float64) (q1, q3 float64) {
	s := slices.Clone(xs)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}
