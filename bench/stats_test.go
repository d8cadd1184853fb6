package main

import (
	"math"
	"testing"
	"time"
)

func ramp(n int) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		out[n-1-i] = time.Duration(i + 1) // descending: summarize must sort a copy
	}
	return out
}

func TestSummarizePicksHighestSupportedTail(t *testing.T) {
	cases := []struct {
		n       int
		p50     time.Duration
		tailPct float64
		tail    time.Duration
	}{
		{0, 0, 0, 0},
		{1, 1, 0, 0},
		{49, 25, 0, 0},            // p80 would leave 9 beyond
		{50, 25, 80, 40},          // 10 beyond p80
		{60, 30, 80, 48},          // the issue's cycle example: p90 leaves 6
		{100, 50, 90, 90},         // 10 beyond p90
		{200, 100, 95, 190},       // 10 beyond p95
		{1000, 500, 99, 990},      // 10 beyond p99
		{10000, 5000, 99.9, 9990}, // 10 beyond p99.9
	}
	for _, c := range cases {
		in := ramp(c.n)
		d := summarize(in)
		if d.N != c.n || d.P50 != c.p50 || d.TailPct != c.tailPct || d.Tail != c.tail {
			t.Errorf("n=%d: got %+v, want p50=%d tail p%g=%d", c.n, d, c.p50, c.tailPct, c.tail)
		}
		if c.n > 1 && in[0] != time.Duration(c.n) {
			t.Errorf("n=%d: summarize reordered its input", c.n)
		}
		if beyond := c.n - rank(max(c.n, 1), d.TailPct); d.TailPct > 0 && beyond < minBeyond {
			t.Errorf("n=%d: only %d samples beyond p%g", c.n, beyond, d.TailPct)
		}
	}
}

// Reference values from Python: statistics.quantiles(v, n=4) and
// statistics.median(v).
func TestQuartileSpreadMatchesPython(t *testing.T) {
	cases := []struct {
		v    []float64
		want float64
	}{
		{[]float64{10, 12}, (12.5 - 9.5) / 11},
		{[]float64{5, 1, 3}, (5.0 - 1.0) / 3},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, (8.25 - 2.75) / 5.5},
		{[]float64{15379, 15090, 14054, 15200, 14990, 15310, 14870, 15011, 15123, 14950}, (15227.5 - 14930) / 15050.5},
	}
	for _, c := range cases {
		if got := quartileSpread(c.v); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quartileSpread(%v) = %v, want %v", c.v, got, c.want)
		}
	}
}

func TestSelfTimeSubtractsTheUnionOfChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 40, Track: 1},
		{ID: 3, Parent: 1, Start: 30, End: 60, Track: 2}, // overlaps 2: parallel clients
		{ID: 4, Parent: 1, Start: 70, End: 80},
		{ID: 5, Parent: 4, Start: 72, End: 75},
		{ID: 6, Parent: 4, Start: 75, End: 120}, // clipped to its parent
	}
	want := map[int64]time.Duration{1: 40, 2: 30, 3: 30, 4: 2, 5: 3, 6: 45}
	got := selfTimes(spans)
	for id, w := range want {
		if got[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, got[id], w)
		}
	}
}
