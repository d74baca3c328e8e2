package main

import (
	"math"
	"slices"
	"time"
)

// latencies records every operation's duration exactly. Samples are kept
// in fixed-size chunks, so recording never copies earlier samples and a
// client allocates a new chunk only once per chunkLen operations.
// Percentiles come from the sorted samples, never from a histogram: a
// log-linear bucket is wider than the bounds the benchmark gates on.
type latencies struct {
	chunks [][]uint32
}

const chunkLen = 1 << 16

// failedSample marks a failed operation: it sorts above every real
// duration, so a failure misses every latency limit.
const failedSample = math.MaxUint32

func newLatencies() *latencies {
	return &latencies{chunks: [][]uint32{make([]uint32, 0, chunkLen)}}
}

// add records one duration in nanoseconds, clamped below failedSample.
func (l *latencies) add(d time.Duration) {
	ns := uint64(max(d, 0))
	l.push(uint32(min(ns, failedSample-1)))
}

// fail records a failed operation.
func (l *latencies) fail() { l.push(failedSample) }

func (l *latencies) push(v uint32) {
	c := l.chunks[len(l.chunks)-1]
	if len(c) == cap(c) {
		c = make([]uint32, 0, chunkLen)
		l.chunks = append(l.chunks, c)
	}
	l.chunks[len(l.chunks)-1] = append(c, v)
}

func (l *latencies) len() int {
	n := 0
	for _, c := range l.chunks {
		n += len(c)
	}
	return n
}

// summary is the sorted union of several recorders' samples.
type summary struct {
	sorted []uint32
}

func summarize(ls ...*latencies) summary {
	n := 0
	for _, l := range ls {
		n += l.len()
	}
	all := make([]uint32, 0, n)
	for _, l := range ls {
		for _, c := range l.chunks {
			all = append(all, c...)
		}
	}
	slices.Sort(all)
	return summary{sorted: all}
}

func (s summary) n() int { return len(s.sorted) }

// quantile returns the nearest-rank q-quantile in nanoseconds (+Inf when
// it falls on a failed operation, 0 without samples).
func (s summary) quantile(q float64) float64 {
	if len(s.sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(s.sorted)))) - 1
	i = min(max(i, 0), len(s.sorted)-1)
	if s.sorted[i] == failedSample {
		return math.Inf(1)
	}
	return float64(s.sorted[i])
}

// tailQuantiles are the percentiles a tail is reported at, highest first.
var tailQuantiles = []float64{0.9999, 0.999, 0.99, 0.95, 0.9}

// tail returns the highest of tailQuantiles that leaves at least ten
// samples beyond it, and its value in nanoseconds.
func (s summary) tail() (q, ns float64) {
	for _, q := range tailQuantiles {
		if float64(len(s.sorted))*(1-q) >= 10 {
			return q, s.quantile(q)
		}
	}
	return 0.5, s.quantile(0.5)
}

// beyond counts the samples strictly above the q-quantile.
func (s summary) beyond(q float64) int {
	v := s.quantile(q)
	if math.IsInf(v, 1) {
		return 0
	}
	i, _ := slices.BinarySearch(s.sorted, uint32(v)+1)
	return len(s.sorted) - i
}
