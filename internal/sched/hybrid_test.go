package sched

import (
	"context"
	"math"
	"testing"
	"time"
)

func TestHybridProducesValidSolutions(t *testing.T) {
	p, err := BuildScenario(ScenarioConfig{Offers: 50, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	h := &Hybrid{}
	res, err := h.Schedule(context.Background(), p, Options{TimeBudget: 300 * time.Millisecond, Seed: 22, TraceEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.ValidateSolution(res.Solution); err != nil {
		t.Fatalf("hybrid produced invalid solution: %v", err)
	}
	if res.Cost >= p.BaselineCost() {
		t.Errorf("hybrid cost %g not below default %g", res.Cost, p.BaselineCost())
	}
}

func TestHybridEncodeDecodeRoundtrip(t *testing.T) {
	p, err := BuildScenario(ScenarioConfig{Offers: 20, Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	g := &RandomizedGreedy{}
	res, err := g.Schedule(context.Background(), p, Options{MaxIterations: 1, Seed: 24})
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	ea := (&Evolutionary{}).defaults()
	ind := ea.encode(p, res.Solution)
	back := ea.decodeCompiled(c, &ind)
	for i := range p.Offers {
		if back.Placements[i].Start != res.Solution.Placements[i].Start {
			t.Fatalf("offer %d: start %d != %d after roundtrip", i,
				back.Placements[i].Start, res.Solution.Placements[i].Start)
		}
		for j, e := range back.Placements[i].Energy {
			if math.Abs(e-res.Solution.Placements[i].Energy[j]) > 1e-9 {
				t.Fatalf("offer %d slice %d: energy %g != %g", i, j, e, res.Solution.Placements[i].Energy[j])
			}
		}
	}
	// The encoded individual's cost must equal the greedy cost.
	if got := p.Evaluate(back); math.Abs(got-p.Evaluate(res.Solution)) > 1e-9 {
		t.Errorf("roundtrip cost %g != original %g", got, p.Evaluate(res.Solution))
	}
}

func TestHybridAtLeastAsGoodAsSeeds(t *testing.T) {
	// The hybrid keeps its greedy seeds through elitism, so its final
	// cost can never be worse than pure greedy with the seeding budget.
	p, err := BuildScenario(ScenarioConfig{Offers: 100, Seed: 25})
	if err != nil {
		t.Fatal(err)
	}
	h := &Hybrid{SeedBudgetFrac: 0.3}
	res, err := h.Schedule(context.Background(), p, Options{TimeBudget: 400 * time.Millisecond, Seed: 26})
	if err != nil {
		t.Fatal(err)
	}
	seedOnly, err := (&RandomizedGreedy{}).Schedule(context.Background(), p, Options{TimeBudget: 120 * time.Millisecond, Seed: 26})
	if err != nil {
		t.Fatal(err)
	}
	// Allow stochastic slack: the hybrid saw fewer greedy restarts but
	// adds evolution on top.
	if res.Cost > seedOnly.Cost*1.1+1 {
		t.Errorf("hybrid %g much worse than greedy seeds %g", res.Cost, seedOnly.Cost)
	}
}

func TestHybridTraceMonotone(t *testing.T) {
	p, err := BuildScenario(ScenarioConfig{Offers: 30, Seed: 27})
	if err != nil {
		t.Fatal(err)
	}
	h := &Hybrid{}
	res, err := h.Schedule(context.Background(), p, Options{TimeBudget: 200 * time.Millisecond, Seed: 28, TraceEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	prev := math.Inf(1)
	for _, tp := range res.Trace {
		if tp.Cost > prev+1e-9 {
			t.Fatalf("trace not monotone: %g after %g", tp.Cost, prev)
		}
		prev = tp.Cost
	}
}
