package sched

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"time"

	"mirabel/internal/flexoffer"
	"mirabel/internal/market"
	"mirabel/internal/timeseries"
	"mirabel/internal/workload"
)

// marketScenario builds a scenario with a real market attached, so the
// compiled quote table has actual buy/sell/capacity structure to fold.
func marketScenario(t testing.TB, offers int, seed int64) *Problem {
	t.Helper()
	prices := workload.PriceSeries(workload.PriceConfig{Days: 2, Seed: seed})
	m, err := market.NewDayAhead(market.Config{Prices: prices, CapacityKWh: 500})
	if err != nil {
		t.Fatal(err)
	}
	p, err := BuildScenario(ScenarioConfig{Offers: offers, Seed: seed, Market: m})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestCompiledSlotCostMatchesProblem pins the compiled quote table to
// the reference slotCost across the whole horizon and a range of net
// positions, with and without a market.
func TestCompiledSlotCostMatchesProblem(t *testing.T) {
	for _, withMarket := range []bool{false, true} {
		p := marketScenario(t, 8, 3)
		if !withMarket {
			p.Market = nil
		}
		c, err := Compile(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []float64{-250, -3.7, -0.01, 0, 0.01, 4.2, 600} {
			for tt := 0; tt < p.Slots; tt++ {
				got, want := c.slotCost(tt, n), p.slotCost(tt, n)
				if math.Abs(got-want) > 1e-12*(1+math.Abs(want)) {
					t.Fatalf("market=%v slot %d net %g: compiled %g != reference %g", withMarket, tt, n, got, want)
				}
			}
		}
	}
}

// TestDeltaEvalMatchesFull is the tentpole's equivalence guarantee:
// across long randomized sequences of placement changes (the EA's
// mutation/crossover op), the incremental evaluator's cost stays within
// 1e-9 of a full Problem.Evaluate of the same placements.
func TestDeltaEvalMatchesFull(t *testing.T) {
	for _, tc := range []struct {
		name string
		p    *Problem
	}{
		{"no-market", func() *Problem { p := marketScenario(t, 24, 5); p.Market = nil; return p }()},
		{"market", marketScenario(t, 24, 6)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := tc.p
			c, err := Compile(p)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(7))

			// Start from a random feasible solution.
			sol := &Solution{Placements: make([]Placement, len(p.Offers))}
			randomPlacement := func(i int) Placement {
				f := p.Offers[i]
				lo, hi := p.StartWindow(f)
				energy := make([]float64, len(f.Profile))
				for j, sl := range f.Profile {
					energy[j] = sl.EnergyMin + rng.Float64()*(sl.EnergyMax-sl.EnergyMin)
				}
				return Placement{Start: lo + flexoffer.Time(rng.Intn(int(hi-lo)+1)), Energy: energy}
			}
			for i := range p.Offers {
				sol.Placements[i] = randomPlacement(i)
			}
			ev := c.NewEval()
			ev.Init(sol)

			for step := 0; step < 3000; step++ {
				i := rng.Intn(len(p.Offers))
				pl := randomPlacement(i)
				ev.SetPlacement(i, pl.Start, pl.Energy)
				if step%250 != 0 && step != 2999 {
					continue // full Evaluate is slow; spot-check periodically
				}
				got := ev.Cost()
				want := p.Evaluate(ev.Solution())
				if math.Abs(got-want) > 1e-9*(1+math.Abs(want)) {
					t.Fatalf("step %d: delta cost %g != full evaluate %g (diff %g)", step, got, want, got-want)
				}
			}
		})
	}
}

// TestEvalResyncAndCopy covers the drift-bounding resync and the EA's
// clone path.
func TestEvalResyncAndCopy(t *testing.T) {
	p := marketScenario(t, 10, 9)
	c, err := Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	g := &RandomizedGreedy{}
	res, err := g.Schedule(context.Background(), p, Options{MaxIterations: 1, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	ev := c.NewEval()
	ev.Init(res.Solution)
	before := ev.Cost()
	ev.recompute()
	if after := ev.Cost(); math.Abs(after-before) > 1e-9*(1+math.Abs(before)) {
		t.Errorf("resync moved the cost: %g -> %g", before, after)
	}
	cp := c.NewEval()
	cp.CopyFrom(ev)
	if cp.Cost() != ev.Cost() {
		t.Errorf("copy cost %g != source %g", cp.Cost(), ev.Cost())
	}
	// Mutating the copy must not affect the source.
	pl := res.Solution.Placements[0]
	lo, hi := p.StartWindow(p.Offers[0])
	newStart := lo
	if pl.Start == lo && hi > lo {
		newStart = lo + 1
	}
	cp.SetPlacement(0, newStart, pl.Energy)
	if cp.Cost() == ev.Cost() && newStart != pl.Start {
		t.Log("placement move was cost-neutral (allowed), checking state isolation via Solution")
	}
	if ev.Solution().Placements[0].Start != pl.Start {
		t.Error("copy mutation leaked into source eval")
	}
}

// TestEvalCostMatchesEvaluateOnStrategies ties the new pipeline to the
// reference: for every strategy the reported cost must match a full
// Evaluate of the returned solution.
func TestEvalCostMatchesEvaluateOnStrategies(t *testing.T) {
	p := marketScenario(t, 30, 11)
	for _, s := range []Scheduler{&RandomizedGreedy{}, &Evolutionary{}, &Hybrid{}} {
		res, err := s.Schedule(context.Background(), p, Options{MaxIterations: 10, Seed: 12, TimeBudget: 5 * time.Second})
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if err := p.ValidateSolution(res.Solution); err != nil {
			t.Fatalf("%s: invalid solution: %v", s.Name(), err)
		}
		want := p.Evaluate(res.Solution)
		if math.Abs(res.Cost-want) > 1e-9*(1+math.Abs(want)) {
			t.Errorf("%s: reported cost %g != evaluated %g", s.Name(), res.Cost, want)
		}
	}
}

// TestHybridSeedIterationCap is the regression test for the dead
// seedOpt.MaxIterations config: with a generous wall-clock budget, an
// iteration-bounded hybrid run must not overspend its budget on greedy
// seeding — the whole run stays within MaxIterations, which is only
// possible when the seeding loop honors its iteration share.
func TestHybridSeedIterationCap(t *testing.T) {
	p, err := BuildScenario(ScenarioConfig{Offers: 10, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	const maxIter = 12
	res, err := (&Hybrid{}).Schedule(context.Background(), p, Options{
		TimeBudget:    time.Hour, // only the iteration bound may stop the run
		MaxIterations: maxIter,
		Seed:          22,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations > maxIter {
		t.Errorf("hybrid spent %d iterations, budget was %d", res.Iterations, maxIter)
	}
	// The evolution phase must have gotten its share: seeding alone is
	// capped at MaxIterations/4+1.
	if res.Iterations <= maxIter/4+1 {
		t.Errorf("hybrid stopped after %d iterations — evolution phase never ran", res.Iterations)
	}
}

// TestCountSolutionsClampedWindow: the reported search-space size must
// match what the strategies actually explore — the clamped StartWindow,
// not the raw TimeFlexibility.
func TestCountSolutionsClampedWindow(t *testing.T) {
	p := pastWindowProblem() // EarliestStart 2 < Start 4 ≤ LatestStart 6
	if got := p.CountSolutions(); got != 3 {
		t.Errorf("CountSolutions = %g, want 3 (clamped window [4,6])", got)
	}
}

// TestGreedyAllocFree: the steady-state greedy restart loop must not
// allocate (tentpole: reusable scratch arena).
func TestGreedyAllocFree(t *testing.T) {
	p := marketScenario(t, 30, 23)
	c, err := Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	run := newGreedyRun(c, FillGreedy)
	order := make([]int, len(c.offers))
	for i := range order {
		order[i] = i
	}
	run.construct(order) // warm up
	allocs := testing.AllocsPerRun(20, func() {
		run.construct(order)
	})
	if allocs > 0 {
		t.Errorf("greedy construct allocates %.1f objects per restart, want 0", allocs)
	}
}

// TestTinyMarketQuoteTable pins the compiled table against hand-priced
// quotes (same fixture as TestSlotCostWithMarket).
func TestTinyMarketQuoteTable(t *testing.T) {
	prices := timeseries.New(time.Hour, []float64{100}) // 0.1 EUR/kWh mid
	m, err := market.NewDayAhead(market.Config{Prices: prices, SpreadFrac: 0.2, CapacityKWh: 5})
	if err != nil {
		t.Fatal(err)
	}
	p := tinyProblem()
	p.Market = m
	c, err := Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := c.slotCost(0, 8), 5*0.11+3*1.0; math.Abs(got-want) > 1e-9 {
		t.Errorf("slotCost(deficit) = %g, want %g", got, want)
	}
	if got := c.slotCost(0, -3); math.Abs(got-(-0.27)) > 1e-9 {
		t.Errorf("slotCost(surplus) = %g, want −0.27", got)
	}
}
