package obs

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
)

// TestHistogramQuantileMatchesSortedReference checks Quantile against
// the nearest-rank sample of a sorted copy: never below it, above it by
// at most 1/8, and exact when every sample is one value.
func TestHistogramQuantileMatchesSortedReference(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	const n = 20000
	samples := map[string]func() int64{
		"uniform":   func() int64 { return rng.Int63n(5_000_000) },
		"lognormal": func() int64 { return int64(math.Exp(10 + 2*rng.NormFloat64())) },
		"single":    func() int64 { return 123_457 },
	}
	for name, draw := range samples {
		t.Run(name, func(t *testing.T) {
			var h Histogram
			ref := make([]int64, n)
			var sum int64
			for i := range ref {
				ref[i] = draw()
				sum += ref[i]
				h.Record(ref[i])
			}
			sort.Slice(ref, func(i, j int) bool { return ref[i] < ref[j] })
			if h.Count() != n || h.Sum() != sum || h.Max() != ref[n-1] {
				t.Fatalf("count/sum/max = %d/%d/%d, want %d/%d/%d", h.Count(), h.Sum(), h.Max(), n, sum, ref[n-1])
			}
			for _, q := range []float64{0, 0.001, 0.25, 0.5, 0.9, 0.95, 0.99, 0.999, 1} {
				rank := int(math.Ceil(q * n))
				want := ref[max(rank, 1)-1]
				got := h.Quantile(q)
				if got < want || (got-want)*8 > want {
					t.Errorf("q=%v: got %d, want %d within +1/8", q, got, want)
				}
				if name == "single" && got != want {
					t.Errorf("q=%v: got %d, want exactly %d", q, got, want)
				}
			}
		})
	}
}

// TestHistogramBucketBounds pins the bucket layout at the edges: every
// value lands in a bucket whose range holds it, from 0 to MaxInt64.
func TestHistogramBucketBounds(t *testing.T) {
	vals := []int64{0, 1, sub - 1, sub, 2*sub - 1, 2 * sub, 1000, 1 << 40, math.MaxInt64}
	for e := 0; e < 63; e++ {
		vals = append(vals, 1<<e-1, 1<<e, 1<<e+1)
	}
	for _, v := range vals {
		b := bucket(v)
		if b < 0 || b >= nBuckets {
			t.Fatalf("bucket(%d) = %d, outside [0, %d)", v, b, nBuckets)
		}
		if v > upper(b) || (b > 0 && v <= upper(b-1)) {
			t.Fatalf("value %d in bucket %d, whose range is (%d, %d]", v, b, upper(b-1), upper(b))
		}
	}
	var h Histogram
	h.Record(math.MaxInt64)
	h.Record(-5)
	if got := h.Quantile(1); got != math.MaxInt64 {
		t.Fatalf("Quantile(1) = %d, want MaxInt64", got)
	}
	if got := h.Quantile(0); got != 0 {
		t.Fatalf("Quantile(0) = %d, want 0 (a negative sample counts as 0)", got)
	}
	var empty Histogram
	if empty.Quantile(0.5) != 0 || empty.Count() != 0 || empty.Max() != 0 {
		t.Fatal("an empty histogram reads non-zero")
	}
}

// TestHistogramConcurrentRecord records from 8 goroutines while another
// reads quantiles; Count and Sum come out exact. Run under -race.
func TestHistogramConcurrentRecord(t *testing.T) {
	const workers, per = 8, 20000
	var h Histogram
	var wg sync.WaitGroup
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
				if q := h.Quantile(0.99); q < 0 || q > h.Max() {
					t.Errorf("Quantile(0.99) = %d outside [0, Max=%d]", q, h.Max())
					return
				}
			}
		}
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Record(int64(w*per + i))
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	<-done
	const total = workers * per
	if h.Count() != total || h.Sum() != total*(total-1)/2 || h.Max() != total-1 {
		t.Fatalf("count/sum/max = %d/%d/%d, want %d/%d/%d", h.Count(), h.Sum(), h.Max(), total, total*(total-1)/2, total-1)
	}
}
