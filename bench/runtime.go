package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"slices"
)

// rtSnap is the process state the runtime.* metrics are deltas of.
type rtSnap struct {
	gcCPU, totalCPU float64
	allocBytes      uint64
	schedCounts     []uint64
	schedBuckets    []float64
	numGC           uint32
	pauses          [256]uint64
}

var rtSamples = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
	"/sched/latencies:seconds",
}

func readRuntime() rtSnap {
	s := make([]metrics.Sample, len(rtSamples))
	for i, name := range rtSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	h := s[3].Value.Float64Histogram()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return rtSnap{
		gcCPU:        s[0].Value.Float64(),
		totalCPU:     s[1].Value.Float64(),
		allocBytes:   s[2].Value.Uint64(),
		schedCounts:  slices.Clone(h.Counts),
		schedBuckets: h.Buckets,
		numGC:        ms.NumGC,
		pauses:       ms.PauseNs,
	}
}

// runtimeStats reports the process metrics between two snapshots: the
// share of CPU time spent in GC, the p99 GC pause (exact, from the
// runtime's record of its last 256 pauses), the p99 time a goroutine
// waited runnable (interpolated within the scheduler's histogram
// bucket), and the KiB allocated per op.
func runtimeStats(a, b rtSnap, ops int) map[string]float64 {
	var pauses []int64
	for g := a.numGC + 1; g <= b.numGC && len(pauses) < len(b.pauses); g++ {
		pauses = append(pauses, int64(b.pauses[(g-1)%uint32(len(b.pauses))]))
	}
	counts := make([]uint64, len(b.schedCounts))
	for i := range counts {
		counts[i] = b.schedCounts[i] - a.schedCounts[i]
	}
	return map[string]float64{
		"runtime.gc_cpu_fraction":   ratio(b.gcCPU-a.gcCPU, b.totalCPU-a.totalCPU),
		"runtime.gc_pause_p99_us":   quantileInt(pauses, 0.99) / 1e3,
		"runtime.sched_wait_p99_us": histQuantile(counts, b.schedBuckets, 0.99) * 1e6,
		"alloc_kb_per_op":           ratio(float64(b.allocBytes-a.allocBytes), float64(ops)) / 1024,
	}
}

// quantileInt is the nearest-rank q-quantile.
func quantileInt(xs []int64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return float64(s[min(max(i, 0), len(s)-1)])
}

// histQuantile interpolates the q-quantile linearly inside the bucket
// that holds it; infinite bucket edges are replaced by the finite one.
func histQuantile(counts []uint64, buckets []float64, q float64) float64 {
	var total uint64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var seen float64
	for i, c := range counts {
		if c == 0 || seen+float64(c) < rank {
			seen += float64(c)
			continue
		}
		lo, hi := buckets[i], buckets[i+1]
		if math.IsInf(lo, -1) {
			lo = hi
		}
		if math.IsInf(hi, 1) {
			hi = lo
		}
		return lo + (hi-lo)*(rank-seen)/float64(c)
	}
	return buckets[len(buckets)-1]
}

// allocsPerRun is testing.AllocsPerRun for code outside a test: the mean
// number of heap allocations of fn over n runs after one warm-up run,
// measured at GOMAXPROCS 1.
func allocsPerRun(n int, fn func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	fn()
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := 0; i < n; i++ {
		fn()
	}
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(n)
}

// heapLiveMiB is the live heap after a full collection. Two collections
// run so sync.Pool victims are dropped too.
func heapLiveMiB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}
