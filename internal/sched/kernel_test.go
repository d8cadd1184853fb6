package sched

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"time"

	"mirabel/internal/flexoffer"
	"mirabel/internal/market"
	"mirabel/internal/workload"
)

// This file holds the naive references the cached-cost kernel is pinned
// against: the greedy constructor and the incremental evaluator exactly
// as they were before the slot position existed — every slot re-priced
// with slotCost wherever its price is needed. The kernel promises the
// same floats, not close ones, so every comparison below is ==.

// referenceRun is the pre-position greedy scratch arena.
type referenceRun struct {
	c      *Compiled
	fill   FillMode
	net    []float64
	starts []flexoffer.Time
	arena  []float64
	energy []float64
}

func newReferenceRun(c *Compiled, fill FillMode) *referenceRun {
	return &referenceRun{
		c:      c,
		fill:   fill,
		net:    make([]float64, c.slots),
		starts: make([]flexoffer.Time, len(c.offers)),
		arena:  make([]float64, len(c.emin)),
		energy: make([]float64, c.maxProfile),
	}
}

// referenceConstruct is the pre-position construct, verbatim.
func (r *referenceRun) referenceConstruct(order []int) float64 {
	c := r.c
	copy(r.net, c.baseline)
	var offerCosts float64

	for _, idx := range order {
		o := &c.offers[idx]
		bestDelta := math.Inf(1)
		bestOff := 0
		bestEnergy := r.arena[o.base : o.base+o.n]
		energy := r.energy[:o.n]

		for off := 0; off <= o.width; off++ {
			base := int(o.lo-c.start) + off
			var delta, act float64
			for j := 0; j < o.n; j++ {
				t := base + j
				e := r.fillEnergy(o.base+j, r.net[t])
				energy[j] = e
				delta += c.slotCost(t, r.net[t]+e) - c.slotCost(t, r.net[t])
				act += math.Abs(e)
			}
			delta += act * o.costPerKWh
			if delta < bestDelta {
				bestDelta = delta
				bestOff = off
				copy(bestEnergy, energy)
			}
		}

		base := int(o.lo-c.start) + bestOff
		var act float64
		for j, e := range bestEnergy {
			r.net[base+j] += e
			act += math.Abs(e)
		}
		offerCosts += act * o.costPerKWh
		r.starts[idx] = o.lo + flexoffer.Time(bestOff)
	}

	var cost float64
	for t, n := range r.net {
		cost += r.c.slotCost(t, n)
	}
	return cost + offerCosts
}

func (r *referenceRun) fillEnergy(k int, net float64) float64 {
	lo, hi := r.c.emin[k], r.c.emax[k]
	if r.fill == FillMidpoint {
		return (lo + hi) / 2
	}
	e := -net
	if e < lo {
		e = lo
	}
	if e > hi {
		e = hi
	}
	return e
}

// referenceEval is the pre-position incremental evaluator's arithmetic:
// four slotCost calls per slot per move, resync every autoResyncOps.
type referenceEval struct {
	c       *Compiled
	net     []float64
	slotSum float64
	actSum  float64
	starts  []flexoffer.Time
	energy  []float64
	ops     int
}

func newReferenceEval(c *Compiled, sol *Solution) *referenceEval {
	e := &referenceEval{
		c:      c,
		net:    make([]float64, c.slots),
		starts: make([]flexoffer.Time, len(c.offers)),
		energy: make([]float64, len(c.emin)),
	}
	for i := range c.offers {
		o := &c.offers[i]
		e.starts[i] = sol.Placements[i].Start
		copy(e.energy[o.base:o.base+o.n], sol.Placements[i].Energy)
	}
	e.recompute()
	return e
}

func (e *referenceEval) recompute() {
	c := e.c
	copy(e.net, c.baseline)
	e.actSum = 0
	for i := range c.offers {
		o := &c.offers[i]
		base := int(e.starts[i] - c.start)
		var act float64
		for j := 0; j < o.n; j++ {
			v := e.energy[o.base+j]
			e.net[base+j] += v
			act += math.Abs(v)
		}
		e.actSum += act * o.costPerKWh
	}
	e.slotSum = 0
	for t, n := range e.net {
		e.slotSum += e.c.slotCost(t, n)
	}
	e.ops = 0
}

func (e *referenceEval) setPlacement(i int, start flexoffer.Time, energy []float64) {
	c := e.c
	o := &c.offers[i]
	base := int(e.starts[i] - c.start)
	var act float64
	for j := 0; j < o.n; j++ {
		t := base + j
		v := e.energy[o.base+j]
		e.slotSum -= c.slotCost(t, e.net[t])
		e.net[t] -= v
		e.slotSum += c.slotCost(t, e.net[t])
		act += math.Abs(v)
	}
	e.actSum -= act * o.costPerKWh

	e.starts[i] = start
	copy(e.energy[o.base:o.base+o.n], energy)
	base = int(start - c.start)
	act = 0
	for j := 0; j < o.n; j++ {
		t := base + j
		v := e.energy[o.base+j]
		e.slotSum -= c.slotCost(t, e.net[t])
		e.net[t] += v
		e.slotSum += c.slotCost(t, e.net[t])
		act += math.Abs(v)
	}
	e.actSum += act * o.costPerKWh

	e.ops++
	if e.ops >= autoResyncOps {
		e.recompute()
	}
}

func (e *referenceEval) cost() float64 { return e.slotSum + e.actSum }

// randomKernelProblem draws a problem that exercises what the scenario
// generator does not: production and mixed-sign slices, zero-width
// energy ranges, a planning time past some offers' EarliestStart, a
// baseline with exact zeros, and an optional tight-capacity market.
func randomKernelProblem(t testing.TB, rng *rand.Rand, withMarket bool) *Problem {
	t.Helper()
	start := flexoffer.Time(rng.Intn(12))
	slots := 24 + rng.Intn(73)
	end := int(start) + slots
	p := &Problem{
		Start:          start,
		Slots:          slots,
		Baseline:       make([]float64, slots),
		ImbalancePrice: make([]float64, slots),
	}
	for s := range p.Baseline {
		if rng.Intn(8) != 0 {
			p.Baseline[s] = 60 * rng.NormFloat64()
		}
		p.ImbalancePrice[s] = 0.02 + 0.3*rng.Float64()
	}
	for i, n := 0, 4+rng.Intn(24); i < n; i++ {
		slices := 1 + rng.Intn(8)
		ls := int(start) + rng.Intn(end-slices-int(start)+1)
		es := ls - rng.Intn(20) // may fall before Start: the clamped window
		profile := make([]flexoffer.Slice, slices)
		for j := range profile {
			a, b := 90*rng.Float64()-30, 90*rng.Float64()-30
			switch rng.Intn(5) {
			case 0:
				b = a // no energy flexibility
			case 1:
				a = -b // midpoint exactly zero
			}
			profile[j] = flexoffer.Slice{EnergyMin: math.Min(a, b), EnergyMax: math.Max(a, b)}
		}
		p.Offers = append(p.Offers, &flexoffer.FlexOffer{
			ID:            flexoffer.ID(i + 1),
			AssignBefore:  flexoffer.Time(es),
			EarliestStart: flexoffer.Time(es),
			LatestStart:   flexoffer.Time(ls),
			Profile:       profile,
			CostPerKWh:    0.02 * rng.Float64(),
		})
	}
	if withMarket {
		prices := workload.PriceSeries(workload.PriceConfig{Days: 2, Seed: rng.Int63()})
		m, err := market.NewDayAhead(market.Config{Prices: prices, CapacityKWh: 20 + 200*rng.Float64()})
		if err != nil {
			t.Fatal(err)
		}
		p.Market = m
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	return p
}

// TestConstructMatchesReference: over seeded random problems — with and
// without a market, both fill modes — and 50 shuffled orders each, the
// kernel returns the reference's cost, every start and every energy,
// on each placeOffer path the host can take (scanPaths).
func TestConstructMatchesReference(t *testing.T) {
	scanPaths(func(path string) {
		rng := rand.New(rand.NewSource(18))
		for trial := 0; trial < 24; trial++ {
			withMarket := trial%2 == 1
			fill := FillMode(trial / 2 % 2)
			p := randomKernelProblem(t, rng, withMarket)
			c, err := Compile(p)
			if err != nil {
				t.Fatal(err)
			}
			run, ref := newGreedyRun(c, fill), newReferenceRun(c, fill)
			order := make([]int, len(c.offers))
			for i := range order {
				order[i] = i
			}
			for round := 0; round < 50; round++ {
				rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
				got, want := run.construct(order), ref.referenceConstruct(order)
				if got != want {
					t.Fatalf("%s trial %d (market=%v fill=%d) round %d: cost %v != reference %v", path, trial, withMarket, fill, round, got, want)
				}
				for i := range c.offers {
					if run.sol.Placements[i].Start != ref.starts[i] {
						t.Fatalf("%s trial %d round %d offer %d: start %d != reference %d", path, trial, round, i, run.sol.Placements[i].Start, ref.starts[i])
					}
				}
				for k := range ref.arena {
					if run.arena[k] != ref.arena[k] {
						t.Fatalf("%s trial %d round %d: energy[%d] %v != reference %v", path, trial, round, k, run.arena[k], ref.arena[k])
					}
				}
				checkPosition(t, c, &run.pos)
			}
		}
	})
}

// checkPosition asserts the slot position's invariant.
func checkPosition(t *testing.T, c *Compiled, pos *position) {
	t.Helper()
	for s, n := range pos.net {
		if want := c.slotCost(s, n); pos.cost[s] != want {
			t.Fatalf("slot %d: cached cost %v != slotCost(net %v) = %v", s, pos.cost[s], n, want)
		}
	}
}

// TestEvalMatchesReference: random SetPlacement sequences long enough to
// cross autoResyncOps keep the position's invariant and the reference's
// exact cost; CopyFrom carries both over.
func TestEvalMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 4; trial++ {
		p := randomKernelProblem(t, rng, trial%2 == 1)
		c, err := Compile(p)
		if err != nil {
			t.Fatal(err)
		}
		randomPlacement := func(i int) Placement {
			o := &c.offers[i]
			energy := make([]float64, o.n)
			for j := range energy {
				lo, hi := c.emin[o.base+j], c.emax[o.base+j]
				energy[j] = lo + rng.Float64()*(hi-lo)
			}
			return Placement{Start: o.lo + flexoffer.Time(rng.Intn(o.width+1)), Energy: energy}
		}
		sol := &Solution{Placements: make([]Placement, len(c.offers))}
		for i := range sol.Placements {
			sol.Placements[i] = randomPlacement(i)
		}
		ev := c.NewEval()
		ev.Init(sol)
		ref := newReferenceEval(c, sol)
		cp := c.NewEval()

		for step := 0; step < autoResyncOps+600; step++ {
			i := rng.Intn(len(c.offers))
			pl := randomPlacement(i)
			ev.SetPlacement(i, pl.Start, pl.Energy)
			ref.setPlacement(i, pl.Start, pl.Energy)
			if got, want := ev.Cost(), ref.cost(); got != want {
				t.Fatalf("trial %d step %d: cost %v != reference %v", trial, step, got, want)
			}
			if step%97 == 0 || step >= autoResyncOps-2 && step <= autoResyncOps+2 {
				checkPosition(t, c, &ev.pos)
				cp.CopyFrom(ev)
				checkPosition(t, c, &cp.pos)
				if cp.Cost() != ev.Cost() {
					t.Fatalf("trial %d step %d: copy cost %v != source %v", trial, step, cp.Cost(), ev.Cost())
				}
			}
		}
		// The copy is independent state: it keeps tracking the reference
		// on its own after the source has moved on.
		cp.CopyFrom(ev)
		for step := 0; step < 50; step++ {
			i := rng.Intn(len(c.offers))
			pl := randomPlacement(i)
			cp.SetPlacement(i, pl.Start, pl.Energy)
			ref.setPlacement(i, pl.Start, pl.Energy)
		}
		checkPosition(t, c, &cp.pos)
		checkPosition(t, c, &ev.pos)
		if got, want := cp.Cost(), ref.cost(); got != want {
			t.Fatalf("trial %d: copy cost %v != reference %v", trial, got, want)
		}
	}
}

// TestGoldenCosts pins every strategy to the cost the pre-position code
// returned for the same problem, seed and iteration bound.
func TestGoldenCosts(t *testing.T) {
	p := marketScenario(t, 30, 23)
	for _, tc := range []struct {
		s    Scheduler
		want float64
	}{
		{&RandomizedGreedy{}, 35.23498602086757},
		{&Evolutionary{}, 27.211699090807983},
		{&Hybrid{}, 9.125071291558617},
	} {
		res, err := tc.s.Schedule(context.Background(), p, Options{MaxIterations: 200, Seed: 7, TimeBudget: time.Hour})
		if err != nil {
			t.Fatalf("%s: %v", tc.s.Name(), err)
		}
		if res.Cost != tc.want {
			t.Errorf("%s: cost %v, recorded %v", tc.s.Name(), res.Cost, tc.want)
		}
	}
}

// TestEvalAllocFree: the EA's two per-candidate operations — clone and
// move one placement — must not allocate.
func TestEvalAllocFree(t *testing.T) {
	p := marketScenario(t, 30, 23)
	c, err := Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := (&RandomizedGreedy{}).Schedule(context.Background(), p, Options{MaxIterations: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ev, cp := c.NewEval(), c.NewEval()
	ev.Init(res.Solution)
	pl := res.Solution.Placements[0]
	o := &c.offers[0]
	off := 0
	if allocs := testing.AllocsPerRun(50, func() {
		off = (off + 1) % (o.width + 1)
		ev.SetPlacement(0, o.lo+flexoffer.Time(off), pl.Energy)
	}); allocs > 0 {
		t.Errorf("SetPlacement allocates %.1f objects per move, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(50, func() { cp.CopyFrom(ev) }); allocs > 0 {
		t.Errorf("CopyFrom allocates %.1f objects per clone, want 0", allocs)
	}
}
