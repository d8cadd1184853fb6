// Package obs holds the node's one latency and size instrument.
package obs

import (
	"math"
	"math/bits"
	"sync/atomic"
)

const (
	// subBits splits every power of two into sub linear buckets, which
	// bounds a quantile's relative error by 1/sub.
	subBits  = 3
	sub      = 1 << subBits
	nBuckets = sub + (63-subBits)*sub // one per value below 2·sub, then sub per octave up to 1<<63
)

// Histogram records non-negative int64 samples — durations in
// nanoseconds, batch sizes — into fixed log-linear buckets. The zero
// value is ready to use; Record is O(1), lock-free and allocation-free,
// and any number of goroutines may record and read at once. Count, Sum
// and Max are exact; Quantile reads high by at most 1/8.
type Histogram struct {
	counts [nBuckets]atomic.Uint64
	sum    atomic.Int64
	max    atomic.Int64
}

// bucket maps v ≥ 0 to its bucket: below 2·sub the value itself, above
// it v's top subBits+1 bits, offset by sub per octave.
func bucket(v int64) int {
	shift := max(bits.Len64(uint64(v))-1-subBits, 0)
	return shift*sub + int(v>>shift)
}

// upper is the largest value bucket b holds. Unsigned, the top
// bucket's bound 1<<63 - 1 does not overflow.
func upper(b int) int64 {
	if b < sub {
		return int64(b)
	}
	return int64(uint64(b%sub+sub+1)<<(b/sub-1) - 1)
}

// Record adds one sample; a negative v counts as 0.
func (h *Histogram) Record(v int64) {
	v = max(v, 0)
	h.counts[bucket(v)].Add(1)
	h.sum.Add(v)
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Count is the number of samples recorded.
func (h *Histogram) Count() uint64 {
	var n uint64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Sum is the total of the samples recorded.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// Max is the largest sample recorded, 0 before the first.
func (h *Histogram) Max() int64 { return h.max.Load() }

// Quantile returns the nearest-rank q-quantile (q in [0, 1]): the
// upper bound of the bucket holding the ceil(q·n)-th smallest sample,
// clamped to Max. It is never below the true sample and above it by at
// most 1/8, and a histogram holding one distinct value reads it
// exactly. It returns 0 before the first sample.
func (h *Histogram) Quantile(q float64) int64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	rank := max(1, min(uint64(math.Ceil(q*float64(n))), n))
	// Bucket counts only grow, so this walk reaches rank even while
	// Records race it: it never runs past the last bucket.
	var cum uint64
	for b := range h.counts {
		if cum += h.counts[b].Load(); cum >= rank {
			return min(upper(b), h.Max())
		}
	}
	return h.Max() // unreachable: the walk sums to at least n ≥ rank
}
