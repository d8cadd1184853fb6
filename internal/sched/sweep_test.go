package sched

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"
)

// TestSweepCostIsEvaluate: over seeded random problems, with and
// without a market, on each placeOffer path the host can take, Sweep's
// Cost is Problem.Evaluate of its Solution bit for bit, the solution
// is valid, and it is no dearer than its own first construction (the
// first GS restart of the same seed).
func TestSweepCostIsEvaluate(t *testing.T) {
	scanPaths(func(path string) {
		rng := rand.New(rand.NewSource(56))
		for trial := 0; trial < 24; trial++ {
			withMarket := trial%2 == 1
			p := randomKernelProblem(t, rng, withMarket)
			opt := Options{Seed: int64(trial), TimeBudget: time.Hour}
			res, err := (&Sweep{}).Schedule(context.Background(), p, opt)
			if err != nil {
				t.Fatalf("%s trial %d: %v", path, trial, err)
			}
			if err := p.ValidateSolution(res.Solution); err != nil {
				t.Fatalf("%s trial %d (market=%v): invalid solution: %v", path, trial, withMarket, err)
			}
			if want := p.Evaluate(res.Solution); math.Float64bits(res.Cost) != math.Float64bits(want) {
				t.Fatalf("%s trial %d (market=%v): cost %v, Evaluate %v", path, trial, withMarket, res.Cost, want)
			}
			opt.MaxIterations = 1
			gs, err := (&RandomizedGreedy{}).Schedule(context.Background(), p, opt)
			if err != nil {
				t.Fatal(err)
			}
			if res.Cost > p.Evaluate(gs.Solution) {
				t.Errorf("%s trial %d (market=%v): cost %v above its first construction's %v", path, trial, withMarket, res.Cost, p.Evaluate(gs.Solution))
			}
		}
	})
}

// TestSweepIndependentOfCores: Sweep runs on the calling goroutine, so
// its answer is the same floats at any GOMAXPROCS.
func TestSweepIndependentOfCores(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, withMarket := range []bool{false, true} {
		p := marketScenario(t, 12, 31)
		if !withMarket {
			p.Market = nil
		}
		for _, iters := range []int{0, 1, 7, 1000} {
			opt := Options{MaxIterations: iters, Seed: 41, TraceEvery: 1, TimeBudget: time.Hour}
			runtime.GOMAXPROCS(1)
			want, err := (&Sweep{}).Schedule(context.Background(), p, opt)
			if err != nil {
				t.Fatal(err)
			}
			for _, procs := range []int{2, 4} {
				runtime.GOMAXPROCS(procs)
				got, err := (&Sweep{}).Schedule(context.Background(), p, opt)
				if err != nil {
					t.Fatal(err)
				}
				requireSameResult(t, fmt.Sprintf("SW market=%v iters=%d procs=%d", withMarket, iters, procs), got, want)
			}
		}
	}
}

// TestSweepIterationBound: MaxIterations counts passes (constructions
// and sweeps), and a capped run is the first passes of the uncapped
// one: below the uncapped count it stops at exactly the cap, with the
// best of those passes, as the uncapped run's trace recorded it.
func TestSweepIterationBound(t *testing.T) {
	p := marketScenario(t, 30, 23)
	p.Market = nil
	full, err := (&Sweep{}).Schedule(context.Background(), p, Options{Seed: 3, TraceEvery: 1, TimeBudget: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if full.Iterations < 2*sweepStall {
		t.Fatalf("uncapped run took %d passes; %d restarts take at least %d", full.Iterations, sweepStall, 2*sweepStall)
	}
	for _, iters := range []int{1, 2, 3, 5, 8, 13, full.Iterations - 1, full.Iterations, full.Iterations + 10} {
		res, err := (&Sweep{}).Schedule(context.Background(), p, Options{MaxIterations: iters, Seed: 3, TimeBudget: time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		if want := min(iters, full.Iterations); res.Iterations != want {
			t.Errorf("MaxIterations %d: %d passes, want %d", iters, res.Iterations, want)
		}
		if want := full.Trace[res.Iterations-1].Cost; res.Cost != want {
			t.Errorf("MaxIterations %d: cost %v, the uncapped run's best after %d passes is %v", iters, res.Cost, res.Iterations, want)
		}
	}
}

// TestSweepBudgetSpent: a time budget that runs out before the first
// construction gives ErrNoSolution and no solution.
func TestSweepBudgetSpent(t *testing.T) {
	p, err := BuildScenario(ScenarioConfig{Offers: 50, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	res, err := (&Sweep{}).Schedule(context.Background(), p, Options{TimeBudget: time.Nanosecond, Seed: 22})
	if !errors.Is(err, ErrNoSolution) || res.Solution != nil {
		t.Fatalf("1 ns budget: error %v, solution %v; want ErrNoSolution and none", err, res.Solution)
	}
}

// cancelAfter is a context whose Err turns context.Canceled on its
// n-th call, so a test cancels a search at a fixed pass.
type cancelAfter struct {
	context.Context
	n int
}

func (c *cancelAfter) Err() error {
	if c.n--; c.n <= 0 {
		return context.Canceled
	}
	return nil
}

// TestSweepCancellation: a search cancelled between passes returns
// ctx.Err() together with the best solution of the passes it finished,
// which is the result of a run capped at that many passes; one
// cancelled before its first pass returns no solution.
func TestSweepCancellation(t *testing.T) {
	p := marketScenario(t, 30, 23)
	p.Market = nil
	for _, calls := range []int{1, 2, 5, 12} {
		ctx := &cancelAfter{Context: context.Background(), n: calls}
		res, err := (&Sweep{}).Schedule(ctx, p, Options{Seed: 5, TraceEvery: 1, TimeBudget: time.Hour})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled at check %d: error %v, want context.Canceled", calls, err)
		}
		if res.Iterations != calls-1 {
			t.Fatalf("cancelled at check %d: %d passes, want %d", calls, res.Iterations, calls-1)
		}
		if res.Iterations == 0 {
			if res.Solution != nil {
				t.Fatalf("cancelled before the first pass: solution %v", res.Solution)
			}
			continue
		}
		if err := p.ValidateSolution(res.Solution); err != nil {
			t.Fatal(err)
		}
		prefix, err := (&Sweep{}).Schedule(context.Background(), p, Options{MaxIterations: res.Iterations, Seed: 5, TraceEvery: 1, TimeBudget: time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		requireSameResult(t, fmt.Sprintf("SW cancelled at check %d vs serial prefix", calls), res, prefix)
	}
}

// TestSweepRestartAllocFree: a Sweep restart — a shuffle, the
// construction, the sweeps and their pricing — that does not lower the
// best cost allocates nothing; only an improving pass clones its
// solution. The tracker's best cost is set below any schedule's, so no
// restart can improve.
func TestSweepRestartAllocFree(t *testing.T) {
	for _, withMarket := range []bool{false, true} {
		p := marketScenario(t, 30, 23)
		if !withMarket {
			p.Market = nil
		}
		c, err := Compile(p)
		if err != nil {
			t.Fatal(err)
		}
		tr := newTracker(context.Background(), Options{TimeBudget: time.Hour})
		tr.cost = math.Inf(-1)
		run := newGreedyRun(c, FillGreedy)
		rng := rand.New(rand.NewSource(9))
		order := make([]int, len(c.offers))
		for i := range order {
			order[i] = i
		}
		allocs := testing.AllocsPerRun(20, func() {
			rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
			run.descend(order, tr)
		})
		if allocs > 0 {
			t.Errorf("market=%v: a restart that does not improve allocates %.1f objects, want 0", withMarket, allocs)
		}
	}
}
