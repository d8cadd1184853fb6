package sched

import (
	"context"
	"math/rand"
	"time"
)

// Hybrid implements the paper's research direction of "hybridizing the
// existing [scheduling algorithms] to improve their efficiency" (§6): a
// memetic scheme that seeds the evolutionary population with randomized
// greedy constructions, so evolution starts from good building blocks
// instead of random noise.
type Hybrid struct {
	// Greedy configures the seeding constructions.
	Greedy RandomizedGreedy
	// EA configures the evolutionary phase.
	EA Evolutionary
	// SeedBudgetFrac is the share of the time budget spent on greedy
	// seeding (default 0.25).
	SeedBudgetFrac float64
}

// Name implements Scheduler.
func (h *Hybrid) Name() string { return "HYB" }

// Schedule implements Scheduler.
func (h *Hybrid) Schedule(ctx context.Context, p *Problem, opt Options) (Result, error) {
	c, err := Compile(p)
	if err != nil {
		return Result{}, err
	}
	frac := h.SeedBudgetFrac
	if frac <= 0 || frac >= 1 {
		frac = 0.25
	}
	total := opt.budget()
	seedBudget := time.Duration(float64(total) * frac)
	// Phase 1: greedy constructions, at most PopulationSize/2 of them,
	// every one kept as a seed in restart order. Iteration-bounded runs
	// give the same share of their budget to seeding: the cap below
	// binds alongside the wall-clock deadline, so a huge TimeBudget
	// cannot make seeding overspend the run's iteration budget.
	cfg := h.EA.defaults()
	seedCap := cfg.PopulationSize / 2
	if opt.MaxIterations > 0 {
		seedCap = min(seedCap, opt.MaxIterations/4+1)
	}
	rng := rand.New(rand.NewSource(opt.Seed ^ 0x5eed))
	tr := newTracker(ctx, opt)
	seeds := h.Greedy.restarts(ctx, c, rng, tr, seedCap, time.Now().Add(seedBudget), true)

	// Phase 2: evolution seeded with the greedy solutions.
	pop, err := cfg.seedPopulation(ctx, c, p, rng, seeds)
	if err != nil {
		return tr.result(), err
	}
	cfg.evolve(c, pop, rng, tr)
	return tr.done()
}

// encode converts a concrete solution into an EA genotype — the inverse
// of decodeCompiled.
func (e *Evolutionary) encode(p *Problem, sol *Solution) individual {
	genes := make([]gene, len(p.Offers))
	for i, f := range p.Offers {
		pl := &sol.Placements[i]
		lo, _ := p.StartWindow(f)
		g := gene{
			startOff: int(pl.Start - lo),
			fracs:    make([]float64, len(f.Profile)),
		}
		for j, sl := range f.Profile {
			if flex := sl.EnergyMax - sl.EnergyMin; flex > 0 {
				g.fracs[j] = (pl.Energy[j] - sl.EnergyMin) / flex
			}
		}
		genes[i] = g
	}
	return individual{genes: genes}
}
