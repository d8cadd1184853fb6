package sched

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"mirabel/internal/flexoffer"
)

// scanOracle is the scalar offset scan, one offset at a time, exactly
// as construct ran it before placeOffer: the kernel promises its
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

// placeOracle is the scalar pick and placement, exactly as construct
// ran them after scanOracle's deltas before placeOffer: the first
// strict minimum from +Inf, offset 0 when none is below it, then one
// loop over the winner's slots.
func placeOracle(net, cost, imb, lo, hi, energy []float64, costPerKWh float64) (int, float64) {
	deltas := make([]float64, len(net)-len(lo)+1)
	scanOracle(deltas, net, cost, imb, lo, hi, costPerKWh)
	bestDelta := math.Inf(1)
	bestOff := 0
	for off, delta := range deltas {
		if delta < bestDelta {
			bestDelta = delta
			bestOff = off
		}
	}
	var act float64
	for j := range lo {
		x := net[bestOff+j]
		e := fillEnergy(lo[j], hi[j], x)
		energy[j] = e
		x += e
		net[bestOff+j], cost[bestOff+j] = x, penalty(imb[bestOff+j], x)
		act += math.Abs(e)
	}
	return bestOff, act
}

// scanCase is one placeOffer input: len(lo) slices placed at each of
// width+1 start offsets over a window of width+len(lo) slots. want,
// when not negative, is the offset the case is built to pick.
type scanCase struct {
	name                   string
	width                  int
	net, cost, imb, lo, hi []float64
	costPerKWh             float64
	want                   int
}

// guardBits fills the cells around a guarded window: a NaN whose
// payload no arithmetic on the window produces, so a stray write that
// lands there shows.
const guardBits = 0x7ff8_dead_beef_0001

// guarded copies v into the middle of a guard-filled array and returns
// the copy with cap == len, and the whole array: a read outside the
// window that reaches a delta turns it into NaN, and a write outside
// it changes a guard cell.
func guarded(v []float64) (window, all []float64) {
	all = make([]float64, len(v)+4)
	for i := range all {
		all[i] = math.Float64frombits(guardBits)
	}
	copy(all[2:], v)
	return all[2 : 2+len(v) : 2+len(v)], all
}

// sameFloat is bit equality, except that any two NaNs are equal: a NaN
// delta loses every comparison whatever its payload.
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
}

// checkSame fails unless got and want hold the same floats (sameFloat).
func checkSame(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if !sameFloat(got[i], want[i]) {
			t.Fatalf("%s[%d] %v (%#x), oracle %v (%#x)", what, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// energySentinel is what energy holds before a placement: every slice
// the kernel fails to write keeps it.
const energySentinel = 12345.678

// checkScan runs the kernel and the oracle on sc and fails on the
// first difference in the winner's offset, its activation sum, or any
// net, cost or energy float. The kernel's inputs sit between guard
// cells that it must neither read into a winner nor overwrite, and
// imb, lo and hi must come back unchanged.
func checkScan(t *testing.T, sc scanCase) {
	t.Helper()
	n := len(sc.lo)
	if want := sc.width + n; len(sc.net) != want || len(sc.cost) != want || len(sc.imb) != want || len(sc.hi) != n {
		t.Fatalf("%s: malformed case", sc.name)
	}
	wantNet, wantCost := slices.Clone(sc.net), slices.Clone(sc.cost)
	wantEnergy := make([]float64, n)
	for j := range wantEnergy {
		wantEnergy[j] = energySentinel
	}
	wantOff, wantAct := placeOracle(wantNet, wantCost, sc.imb, sc.lo, sc.hi, wantEnergy, sc.costPerKWh)

	net, netAll := guarded(sc.net)
	cost, costAll := guarded(sc.cost)
	imb, imbAll := guarded(sc.imb)
	lo, loAll := guarded(sc.lo)
	hi, hiAll := guarded(sc.hi)
	if &sc.lo[0] == &sc.hi[0] { // FillMidpoint passes one slice as both bounds
		hi, hiAll = lo, loAll
	}
	energy, energyAll := guarded(make([]float64, n))
	for j := range energy {
		energy[j] = energySentinel
	}
	off, act := placeOffer(net, cost, imb, lo, hi, energy, sc.costPerKWh)

	name := fmt.Sprintf("%s (width %d, %d slices)", sc.name, sc.width, n)
	if off != wantOff || !sameFloat(act, wantAct) {
		t.Fatalf("%s: offset %d act %v (%#x), oracle offset %d act %v (%#x)",
			name, off, act, math.Float64bits(act), wantOff, wantAct, math.Float64bits(wantAct))
	}
	if sc.want >= 0 && off != sc.want {
		t.Fatalf("%s: offset %d, the case is built for %d", name, off, sc.want)
	}
	checkSame(t, name+" net", net, wantNet)
	checkSame(t, name+" cost", cost, wantCost)
	checkSame(t, name+" energy", energy, wantEnergy)
	checkSame(t, name+" imb", imb, sc.imb)
	checkSame(t, name+" lo", lo, sc.lo)
	checkSame(t, name+" hi", hi, sc.hi)
	for _, all := range [][]float64{netAll, costAll, imbAll, loAll, hiAll, energyAll} {
		for _, i := range []int{0, 1, len(all) - 2, len(all) - 1} {
			if math.Float64bits(all[i]) != guardBits {
				t.Fatalf("%s: wrote outside a window", name)
			}
		}
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
		want:       -1,
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

// TestScanMatchesOracle pins placeOffer to the scalar scan, pick and
// placement bit for bit (math.Float64bits) on seeded random windows
// and on the edge cases of the clamp, the sign, the pick and the
// window's shape. On amd64 every case runs on each path the host can
// take (scanPaths): the AVX quad loops with their SSE2 tails, and the
// SSE2 loops alone. Elsewhere, and with -tags purego, it runs the
// portable body.
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
			checkScanTies(t, rng, fmt.Sprintf("%s ties w%d", path, width), width)
		}
	})
}

// checkScanEdges checks the edge cases of the clamp, the sign and the
// non-finite deltas on one window shape.
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

	// Some slots priced at +Inf (a +Inf delta at every offset over
	// them, or NaN where the placement cancels the slot), some at a
	// cost of +Inf (a -Inf delta, which wins) and some NaN nets.
	sc = randomScanCase(rng, name+" non-finite deltas", width, n)
	for s := range sc.net {
		switch rng.Intn(5) {
		case 0:
			sc.imb[s] = math.Inf(1)
		case 1:
			sc.cost[s] = math.Inf(1)
		case 2:
			sc.net[s] = math.NaN()
		}
	}
	checkScan(t, sc)

	// No delta below +Inf: offset 0 wins, with offset 0's energies and
	// activation sum. Each slot either prices at +Inf against a finite
	// cost or has a NaN net.
	sc = randomScanCase(rng, name+" no finite delta", width, n)
	for s := range sc.net {
		if rng.Intn(2) == 0 {
			sc.net[s] = math.NaN()
		} else {
			sc.net[s] = 1 + rng.Float64()
			sc.imb[s] = math.Inf(1)
		}
	}
	for j := range sc.lo {
		sc.lo[j], sc.hi[j] = 1+float64(j), 1+float64(j) // net+e never 0
	}
	sc.want = 0
	checkScan(t, sc)
}

// checkScanTies checks that of equal deltas the lowest offset wins,
// whichever lanes, loops and merges the two offsets go through. With
// one slice, offset k's delta depends on slot k alone: every slot
// prices one fixed energy against a surplus, except slots a and b,
// which price it against an equal deficit and so tie below the rest.
// A window where every delta is zero, from nets and costs of either
// sign of zero, must pick offset 0 at every slice count.
func checkScanTies(t *testing.T, rng *rand.Rand, name string, width int) {
	t.Helper()
	for a := 0; a <= width; a++ {
		for b := a + 1; b <= width; b++ {
			sc := randomScanCase(rng, fmt.Sprintf("%s tie %d=%d", name, a, b), width, 1)
			for s := range sc.net {
				sc.net[s], sc.imb[s] = 10, 0.1
				if s == a || s == b {
					sc.net[s] = -10
				}
				sc.cost[s] = penalty(sc.imb[s], sc.net[s])
			}
			sc.lo[0], sc.hi[0] = 1, 1
			sc.want = a
			checkScan(t, sc)
		}
	}
	for _, n := range []int{1, 2, 3, 7} {
		sc := randomScanCase(rng, fmt.Sprintf("%s zero deltas n%d", name, n), width, n)
		for s := range sc.net {
			sc.net[s] = math.Copysign(0, float64(rng.Intn(2)*2-1))
			sc.cost[s] = math.Copysign(0, float64(rng.Intn(2)*2-1))
		}
		for j := range sc.lo {
			sc.lo[j], sc.hi[j] = 0, 0
		}
		sc.want = 0
		checkScan(t, sc)
	}
}

// FuzzPlaceOffer checks placeOffer against the scalar oracle on every
// path the host can take, over windows whose floats are arbitrary bit
// patterns: width and slice count from the first two arguments, the
// price per kWh from the third, and every net, cost, price and bound
// drawn from data, eight bytes at a time, cycling.
func FuzzPlaceOffer(f *testing.F) {
	f.Add(uint8(17), uint8(16), math.Float64bits(0.01), []byte{})
	f.Add(uint8(5), uint8(3), math.Float64bits(-0.5), binary.LittleEndian.AppendUint64(nil, math.Float64bits(math.Inf(1))))
	seed := make([]byte, 0, 8*40)
	rng := rand.New(rand.NewSource(47))
	for i := 0; i < 40; i++ {
		seed = binary.LittleEndian.AppendUint64(seed, math.Float64bits(60*rng.NormFloat64()))
	}
	f.Add(uint8(11), uint8(7), math.Float64bits(0.02), seed)
	f.Add(uint8(2), uint8(1), math.Float64bits(math.NaN()), seed[:24])
	f.Fuzz(func(t *testing.T, width, count uint8, costPerKWh uint64, data []byte) {
		w, n := int(width)%40, 1+int(count)%24
		next := 0
		draw := func() float64 {
			if len(data) < 8 {
				return 0
			}
			if next+8 > len(data) {
				next = 0
			}
			v := math.Float64frombits(binary.LittleEndian.Uint64(data[next:]))
			next += 8
			return v
		}
		sc := scanCase{
			name: "fuzz", width: w,
			net: make([]float64, w+n), cost: make([]float64, w+n), imb: make([]float64, w+n),
			lo: make([]float64, n), hi: make([]float64, n),
			costPerKWh: math.Float64frombits(costPerKWh),
			want:       -1,
		}
		for s := range sc.net {
			sc.net[s], sc.cost[s], sc.imb[s] = draw(), draw(), draw()
		}
		for j := range sc.lo {
			sc.lo[j], sc.hi[j] = draw(), draw()
		}
		scanPaths(func(path string) {
			sc.name = "fuzz " + path
			checkScan(t, sc)
		})
	})
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

// BenchmarkScanOffsets times one placeOffer call at the cycle
// workload's shape, 18 start offsets × 17 slices (BenchmarkCyclePlan in
// internal/core: 16.8 offsets and 16.6 slices per aggregate), on each
// path the host can take: the scan, the pick and the placement. pairs
// is the (offset, slice) pairs per call, ns/pair the time per pair.
// Each call places onto the position the last one left, as the offers
// of one construction do.
func BenchmarkScanOffsets(b *testing.B) {
	const offsets, slices = 18, 17
	sc := randomScanCase(rand.New(rand.NewSource(46)), "bench", offsets-1, slices)
	energy := make([]float64, slices)
	scanPaths(func(path string) {
		b.Run(path, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				placeOffer(sc.net, sc.cost, sc.imb, sc.lo, sc.hi, energy, sc.costPerKWh)
			}
			b.ReportMetric(offsets*slices, "pairs")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/(offsets*slices), "ns/pair")
		})
	})
}
