package sched

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"mirabel/internal/flexoffer"
)

// scanOracle is the scalar offset scan, one offset at a time, exactly
// as construct ran it before scanOffsets: the kernel promises its
// floats bit for bit.
func scanOracle(deltas, net, cost, imb, lo, hi []float64, costPerKWh float64) {
	for off := range deltas {
		var delta, act float64
		for j := range lo {
			n := net[off+j]
			e := fillEnergy(lo[j], hi[j], n)
			after := penalty(imb[off+j], n+e)
			delta += after - cost[off+j]
			act += math.Abs(e)
		}
		delta += act * costPerKWh
		deltas[off] = delta
	}
}

// scanCase is one scanOffsets input: len(lo) slices placed at each of
// width+1 start offsets over a window of width+len(lo) slots.
type scanCase struct {
	name                   string
	width                  int
	net, cost, imb, lo, hi []float64
	costPerKWh             float64
}

// guarded copies v into the middle of a NaN-filled array and returns
// the copy with cap == len: a read outside the window that reaches a
// delta turns it into NaN.
func guarded(v []float64) []float64 {
	b := make([]float64, len(v)+4)
	for i := range b {
		b[i] = math.NaN()
	}
	copy(b[2:], v)
	return b[2 : 2+len(v) : 2+len(v)]
}

// sameFloat is bit equality, except that any two NaNs are equal: a NaN
// delta loses every comparison whatever its payload.
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
}

// checkScan runs the kernel and the oracle on sc and fails on the first
// delta that differs. The kernel's deltas sit between two sentinels
// that it must not overwrite.
func checkScan(t *testing.T, sc scanCase) {
	t.Helper()
	if want := sc.width + len(sc.lo); len(sc.net) != want || len(sc.cost) != want || len(sc.imb) != want || len(sc.hi) != len(sc.lo) {
		t.Fatalf("%s: malformed case", sc.name)
	}
	const sentinel = 12345.678
	out := make([]float64, sc.width+3)
	out[0], out[len(out)-1] = sentinel, sentinel
	got := out[1 : sc.width+2 : sc.width+2]
	want := make([]float64, sc.width+1)
	lo, hi := guarded(sc.lo), guarded(sc.hi)
	if &sc.lo[0] == &sc.hi[0] { // FillMidpoint passes one slice as both bounds
		hi = lo
	}
	scanOffsets(got, guarded(sc.net), guarded(sc.cost), guarded(sc.imb), lo, hi, sc.costPerKWh)
	scanOracle(want, sc.net, sc.cost, sc.imb, sc.lo, sc.hi, sc.costPerKWh)
	for off := range want {
		if !sameFloat(got[off], want[off]) {
			t.Fatalf("%s (width %d, %d slices): offset %d delta %v (%#x), oracle %v (%#x)",
				sc.name, sc.width, len(sc.lo), off, got[off], math.Float64bits(got[off]), want[off], math.Float64bits(want[off]))
		}
	}
	if out[0] != sentinel || out[len(out)-1] != sentinel {
		t.Fatalf("%s (width %d, %d slices): wrote outside deltas", sc.name, sc.width, len(sc.lo))
	}
}

// randomScanCase draws a case the way a position looks mid-construction:
// nets of either sign with exact zeros, each slot's cost its price
// times |net|, profile bounds of either sign, some without energy
// flexibility.
func randomScanCase(rng *rand.Rand, name string, width, n int) scanCase {
	span := width + n
	sc := scanCase{
		name: name, width: width,
		net: make([]float64, span), cost: make([]float64, span), imb: make([]float64, span),
		lo: make([]float64, n), hi: make([]float64, n),
		costPerKWh: 0.02 * rng.Float64(),
	}
	for s := range sc.net {
		if rng.Intn(6) != 0 {
			sc.net[s] = 60 * rng.NormFloat64()
		}
		sc.imb[s] = 0.02 + 0.3*rng.Float64()
		sc.cost[s] = penalty(sc.imb[s], sc.net[s])
	}
	for j := range sc.lo {
		a, b := 90*rng.Float64()-30, 90*rng.Float64()-30
		if rng.Intn(5) == 0 {
			b = a
		}
		sc.lo[j], sc.hi[j] = math.Min(a, b), math.Max(a, b)
	}
	return sc
}

// TestScanMatchesOracle pins scanOffsets to the scalar scan bit for
// bit (math.Float64bits) on seeded random windows and on the edge
// cases of the clamp, the sign and the window's shape. On amd64 every
// case runs on each path the host can take (scanPaths): the AVX quad
// loop with its SSE2 tail, and the SSE2 loops alone. Elsewhere, and
// with -tags purego, it runs the portable body.
func TestScanMatchesOracle(t *testing.T) {
	scanPaths(func(path string) {
		rng := rand.New(rand.NewSource(44))
		for trial := 0; trial < 2000; trial++ {
			checkScan(t, randomScanCase(rng, fmt.Sprintf("%s random %d", path, trial), rng.Intn(40), 1+rng.Intn(24)))
		}
		for width := 0; width <= 11; width++ { // every mix of quads, a pair and a single
			for _, n := range []int{1, 2, 3, 7} {
				checkScanEdges(t, rng, fmt.Sprintf("%s shape w%d n%d", path, width, n), width, n)
			}
		}
	})
}

// checkScanEdges checks the edge cases of the clamp and the sign on
// one window shape.
func checkScanEdges(t *testing.T, rng *rand.Rand, name string, width, n int) {
	t.Helper()
	checkScan(t, randomScanCase(rng, name, width, n))

	sc := randomScanCase(rng, name+" ±0 nets", width, n)
	for s := range sc.net {
		sc.net[s] = math.Copysign(0, float64(s%2*2-1))
		sc.cost[s] = 0
	}
	sc.lo[0], sc.hi[0] = math.Copysign(0, -1), 0 // a range between the two zeros
	checkScan(t, sc)

	sc = randomScanCase(rng, name+" midpoint", width, n)
	for j := range sc.lo {
		sc.lo[j] = (sc.lo[j] + sc.hi[j]) / 2
	}
	sc.hi = sc.lo // FillMidpoint's lo and hi are one slice
	checkScan(t, sc)

	sc = randomScanCase(rng, name+" fixed slices", width, n)
	copy(sc.hi, sc.lo)
	checkScan(t, sc)

	sc = randomScanCase(rng, name+" zero bounds", width, n)
	for j := range sc.lo {
		sc.lo[j], sc.hi[j] = 0, 0
	}
	checkScan(t, sc)

	sc = randomScanCase(rng, name+" negative cost per kWh", width, n)
	sc.costPerKWh = -0.5
	checkScan(t, sc)

	sc = randomScanCase(rng, name+" NaN nets", width, n)
	for s := range sc.net {
		if s%2 == 0 {
			sc.net[s] = math.NaN()
		}
	}
	checkScan(t, sc)

	// A NaN bound clamps nothing in the scalar comparisons: only
	// MAXPD/MINPD with the bound as destination (VMAXPD/VMINPD with it
	// as first source) keep e then.
	sc = randomScanCase(rng, name+" NaN bounds", width, n)
	for j := range sc.lo {
		if j%2 == 0 {
			sc.lo[j] = math.NaN()
		} else {
			sc.hi[j] = math.NaN()
		}
	}
	checkScan(t, sc)
}

// TestScanAtHorizonEnd: offers whose last start ends exactly at the
// horizon, so the scanned window runs to the position's last slot,
// place as the scalar reference places them, at widths 0–5 and with a
// one-slice profile.
func TestScanAtHorizonEnd(t *testing.T) {
	const slots = 24
	for _, fill := range []FillMode{FillGreedy, FillMidpoint} {
		for width := 0; width <= 5; width++ {
			for _, n := range []int{1, 4} {
				p := &Problem{Slots: slots, Baseline: make([]float64, slots), ImbalancePrice: make([]float64, slots)}
				for s := range p.Baseline {
					p.Baseline[s] = float64(s%7) - 3
					p.ImbalancePrice[s] = 0.15
				}
				for i := 0; i < 3; i++ {
					profile := make([]flexoffer.Slice, n)
					for j := range profile {
						profile[j] = flexoffer.Slice{EnergyMin: -1, EnergyMax: float64(2 + i + j)}
					}
					ls := flexoffer.Time(slots - n)
					p.Offers = append(p.Offers, &flexoffer.FlexOffer{
						ID: flexoffer.ID(i + 1), AssignBefore: ls - flexoffer.Time(width),
						EarliestStart: ls - flexoffer.Time(width), LatestStart: ls,
						Profile: profile, CostPerKWh: 0.01,
					})
				}
				c, err := Compile(p)
				if err != nil {
					t.Fatal(err)
				}
				run, ref := newGreedyRun(c, fill), newReferenceRun(c, fill)
				order := []int{2, 0, 1}
				if got, want := run.construct(order), ref.referenceConstruct(order); got != want {
					t.Fatalf("fill %d width %d n %d: cost %v, reference %v", fill, width, n, got, want)
				}
				for i := range c.offers {
					if run.sol.Placements[i].Start != ref.starts[i] {
						t.Fatalf("fill %d width %d n %d: offer %d start %d, reference %d", fill, width, n, i, run.sol.Placements[i].Start, ref.starts[i])
					}
				}
			}
		}
	}
}

// BenchmarkScanOffsets times one scanOffsets call at the cycle
// workload's shape, 18 start offsets × 17 slices (BenchmarkCyclePlan in
// internal/core: 16.8 offsets and 16.6 slices per aggregate), on each
// path the host can take. pairs is the (offset, slice) pairs per call,
// ns/pair the time per pair.
func BenchmarkScanOffsets(b *testing.B) {
	const offsets, slices = 18, 17
	sc := randomScanCase(rand.New(rand.NewSource(46)), "bench", offsets-1, slices)
	deltas := make([]float64, offsets)
	scanPaths(func(path string) {
		b.Run(path, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				scanOffsets(deltas, sc.net, sc.cost, sc.imb, sc.lo, sc.hi, sc.costPerKWh)
			}
			b.ReportMetric(offsets*slices, "pairs")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/(offsets*slices), "ns/pair")
		})
	})
}
