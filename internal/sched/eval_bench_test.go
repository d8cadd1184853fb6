package sched_test

import (
	"context"
	"testing"
	"time"

	"mirabel/internal/market"
	"mirabel/internal/sched"
	"mirabel/internal/workload"
)

// benchSchedInstance is the tentpole's reference instance: 64
// aggregated flex-offers on a 96-slot day with a market attached, so
// every full evaluation pays real Market.Quote calls.
func benchSchedInstance(b *testing.B) *sched.Problem {
	b.Helper()
	prices := workload.PriceSeries(workload.PriceConfig{Days: 2, Seed: 1})
	m, err := market.NewDayAhead(market.Config{Prices: prices, CapacityKWh: 2000})
	if err != nil {
		b.Fatal(err)
	}
	p, err := sched.BuildScenario(sched.ScenarioConfig{Offers: 64, Seed: 33, Market: m})
	if err != nil {
		b.Fatal(err)
	}
	return p
}

// BenchmarkGreedySchedule times one planning search on a BuildScenario
// instance: 50 offers on a 96-slot day without a market, 1 000 greedy
// restarts, each construction one placeOffer call per offer. Its
// offers are short (~4.4 slices), so one construction prices ~3.6 k
// (offset, slice) pairs, a quarter of what the repository benchmark's
// cycle workload prices, and the per-call work (the lane merges, the
// placement's SSE2 tail) weighs more than there; BenchmarkCyclePlan in
// internal/core times that problem. The restarts run on the calling
// goroutine.
func BenchmarkGreedySchedule(b *testing.B) {
	p, err := sched.BuildScenario(sched.ScenarioConfig{Offers: 50, Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	g := &sched.RandomizedGreedy{}
	opt := sched.Options{MaxIterations: 1000, Seed: 7, TimeBudget: time.Minute}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := g.Schedule(context.Background(), p, opt)
		if err != nil {
			b.Fatal(err)
		}
		benchCost = res.Cost
	}
}

// benchCost keeps the benchmarked search's result alive.
var benchCost float64

// BenchmarkSchedEvalThroughput measures candidate-evaluation throughput
// on the 64-offer/96-slot market instance: the seed's full
// Problem.Evaluate (fresh net slice + Market.Quote per slot) against
// the compiled evaluator (quote table, reused state) and against
// single-offer delta updates — the EA's steady-state operation. The
// "evals/s" metric is the headline: delta+compiled must be ≥5× full.
func BenchmarkSchedEvalThroughput(b *testing.B) {
	p := benchSchedInstance(b)
	res, err := (&sched.RandomizedGreedy{}).Schedule(context.Background(), p, sched.Options{MaxIterations: 1, Seed: 2})
	if err != nil {
		b.Fatal(err)
	}
	sol := res.Solution
	c, err := sched.Compile(p)
	if err != nil {
		b.Fatal(err)
	}

	b.Run("full", func(b *testing.B) {
		b.ReportAllocs()
		t0 := time.Now()
		for i := 0; i < b.N; i++ {
			p.Evaluate(sol)
		}
		b.ReportMetric(float64(b.N)/time.Since(t0).Seconds(), "evals/s")
	})
	b.Run("compiled", func(b *testing.B) {
		ev := c.NewEval()
		b.ReportAllocs()
		b.ResetTimer()
		t0 := time.Now()
		for i := 0; i < b.N; i++ {
			ev.Init(sol)
		}
		b.ReportMetric(float64(b.N)/time.Since(t0).Seconds(), "evals/s")
	})
	b.Run("delta", func(b *testing.B) {
		ev := c.NewEval()
		ev.Init(sol)
		lo, hi := p.StartWindow(p.Offers[0])
		flip := sol.Placements[0].Start
		other := lo
		if flip == lo && hi > lo {
			other = lo + 1
		}
		energy := sol.Placements[0].Energy
		b.ReportAllocs()
		b.ResetTimer()
		t0 := time.Now()
		for i := 0; i < b.N; i++ {
			ev.SetPlacement(0, other, energy)
			flip, other = other, flip
		}
		b.ReportMetric(float64(b.N)/time.Since(t0).Seconds(), "evals/s")
	})
}
