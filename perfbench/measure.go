package main

import (
	"runtime"
	"slices"
	"syscall"
	"time"

	"lsmkv"
	"lsmkv/internal/iostat"
)

// percentile returns the nearest-rank q-quantile of sorted, in
// microseconds.
func percentile(sorted []time.Duration, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	r := int(q*float64(len(sorted))+0.5) - 1
	r = max(0, min(r, len(sorted)-1))
	return float64(sorted[r].Nanoseconds()) / 1e3
}

// dist is a latency sample's size and the two percentiles the benchmark
// reports. For a sample cut into slices, minN is the smallest slice and
// the percentiles are medians over the slices.
type dist struct {
	n, minN  int
	p50, p99 float64
}

func distOf(samples []time.Duration) dist {
	slices.Sort(samples)
	return dist{n: len(samples), minN: len(samples), p50: percentile(samples, 0.50), p99: percentile(samples, 0.99)}
}

func slicedDist(perSlice [][]time.Duration) dist {
	var d dist
	var p50s, p99s []float64
	for i, s := range perSlice {
		sd := distOf(s)
		d.n += sd.n
		if i == 0 || sd.n < d.minN {
			d.minN = sd.n
		}
		p50s = append(p50s, sd.p50)
		p99s = append(p99s, sd.p99)
	}
	d.p50, d.p99 = median(p50s), median(p99s)
	return d
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func mean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return ratio(sum, float64(len(xs)))
}

// counters is one reading of everything the per-layer metrics are
// deltas of: the engine's iostat counters and the process's CPU time,
// allocation volume and GC cycles.
type counters struct {
	io    iostat.Snapshot
	cpu   time.Duration
	alloc uint64
	gcs   uint32
}

func readCounters(db *lsmkv.DB) counters {
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return counters{
		io:    db.Stats(),
		cpu:   time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		alloc: ms.TotalAlloc,
		gcs:   ms.NumGC,
	}
}

func (c counters) sub(o counters) counters {
	return counters{io: c.io.Sub(o.io), cpu: c.cpu - o.cpu, alloc: c.alloc - o.alloc, gcs: c.gcs - o.gcs}
}

func (c counters) add(o counters) counters {
	return counters{io: c.io.Add(o.io), cpu: c.cpu + o.cpu, alloc: c.alloc + o.alloc, gcs: c.gcs + o.gcs}
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// ratio is num/den, or 0 when den is 0: a workload that never does the
// work in the denominator (cold-mget issues no writes) did none of the
// numerator's work either.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
