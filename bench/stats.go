package main

import (
	"math"
	"sort"
	"time"
)

// tailLadder lists the tail percentiles a distribution may report,
// highest first.
var tailLadder = []float64{99.9, 99, 95, 90, 80}

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// dist summarizes a latency sample the one way the benchmark reports
// timings: the median, plus the highest percentile of tailLadder that
// still has at least minBeyond samples beyond it (TailPct 0 = the
// sample supports none), always with the sample count.
type dist struct {
	N       int
	P50     time.Duration
	TailPct float64
	Tail    time.Duration
}

func summarize(samples []time.Duration) dist {
	n := len(samples)
	if n == 0 {
		return dist{}
	}
	sorted := append([]time.Duration(nil), samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	d := dist{N: n, P50: percentile(sorted, 50)}
	for _, p := range tailLadder {
		if beyond := n - rank(n, p); beyond >= minBeyond {
			d.TailPct, d.Tail = p, percentile(sorted, p)
			break
		}
	}
	return d
}

// rank is the nearest-rank position (1-based) of percentile p among n
// sorted samples.
func rank(n int, p float64) int {
	r := int(math.Ceil(p*float64(n)/100 - 1e-9)) // 99.9 % of 10 000 is 9 990, not 9 990.000000000002
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

func percentile(sorted []time.Duration, p float64) time.Duration {
	return sorted[rank(len(sorted), p)-1]
}

func median(samples []time.Duration) time.Duration { return summarize(samples).P50 }

// medianOf is the median of values (0 for none).
func medianOf(values []float64) float64 {
	n := len(values)
	if n == 0 {
		return 0
	}
	v := append([]float64(nil), values...)
	sort.Float64s(v)
	return (v[(n-1)/2] + v[n/2]) / 2
}

// quartileSpread is the run-to-run spread the acceptance rule uses:
// (Q3 − Q1) / median, with quartiles as Python's
// statistics.quantiles(values, n=4) computes them (exclusive method).
func quartileSpread(values []float64) float64 {
	n := len(values)
	if n < 2 {
		return 0
	}
	v := append([]float64(nil), values...)
	sort.Float64s(v)
	q := func(i int) float64 { // i-th of the three cut points
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4 // after clamping, as CPython does: it extrapolates at the ends
		return (v[j-1]*float64(4-delta) + v[j]*float64(delta)) / 4
	}
	med := q(2)
	if med == 0 {
		return 0
	}
	return (q(3) - q(1)) / math.Abs(med)
}
