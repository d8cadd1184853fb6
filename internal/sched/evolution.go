package sched

import (
	"context"
	"math/rand"

	"mirabel/internal/flexoffer"
)

// Evolutionary is the paper's evolutionary algorithm [Eiben & Smith
// 2003]: a population of schedules evolves by tournament selection,
// uniform crossover and mutation, "to find progressively better
// solutions". One iteration is one generation.
//
// Each individual carries its own incremental evaluation state (Eval):
// crossover and mutation apply gene changes through it, so a child's
// cost is delta-computed from its parent's — O(changed genes × profile)
// with table-lookup slot pricing — instead of a full Evaluate per
// candidate. The steady-state generation loop allocates nothing: the
// population and its scratch double-buffer are built once per run.
type Evolutionary struct {
	// PopulationSize (default 30).
	PopulationSize int
	// Elite individuals copied unchanged into the next generation
	// (default 2).
	Elite int
	// TournamentSize of the selection (default 3).
	TournamentSize int
	// CrossoverRate is the probability a child mixes two parents instead
	// of cloning one (default 0.9).
	CrossoverRate float64
	// MutationRate is the per-offer-gene mutation probability (default
	// 0.1).
	MutationRate float64
}

// Name implements Scheduler.
func (e *Evolutionary) Name() string { return "EA" }

func (e *Evolutionary) defaults() Evolutionary {
	d := *e
	if d.PopulationSize <= 0 {
		d.PopulationSize = 30
	}
	if d.Elite <= 0 {
		d.Elite = 2
	}
	if d.Elite >= d.PopulationSize {
		d.Elite = d.PopulationSize - 1
	}
	if d.TournamentSize <= 0 {
		d.TournamentSize = 3
	}
	if d.CrossoverRate <= 0 {
		d.CrossoverRate = 0.9
	}
	if d.MutationRate <= 0 {
		d.MutationRate = 0.1
	}
	return d
}

// gene is one offer's genotype: the start offset inside the offer's
// clamped start window (Problem.StartWindow) and the energy fraction
// per slice.
type gene struct {
	startOff int
	fracs    []float64
}

// equal reports whether two genes decode to the same placement.
func (g *gene) equal(o *gene) bool {
	if g.startOff != o.startOff {
		return false
	}
	for j, f := range g.fracs {
		if f != o.fracs[j] {
			return false
		}
	}
	return true
}

type individual struct {
	genes []gene
	ev    *Eval
	cost  float64
}

// makeIndividual allocates the full storage of one individual: genes
// with per-offer fraction slices and an incremental evaluator. All
// later per-generation work reuses this storage.
func makeIndividual(c *Compiled) individual {
	genes := make([]gene, len(c.offers))
	for i := range c.offers {
		genes[i].fracs = make([]float64, c.offers[i].n)
	}
	return individual{genes: genes, ev: c.NewEval()}
}

// copyFrom overwrites ind with src, reusing ind's storage.
func (ind *individual) copyFrom(src *individual) {
	ind.copyGenes(src)
	ind.ev.CopyFrom(src.ev)
	ind.cost = src.cost
}

// Schedule implements Scheduler.
func (e *Evolutionary) Schedule(ctx context.Context, p *Problem, opt Options) (Result, error) {
	c, err := Compile(p)
	if err != nil {
		return Result{}, err
	}
	cfg := e.defaults()
	rng := rand.New(rand.NewSource(opt.Seed))
	tr := newTracker(ctx, opt)

	pop, err := cfg.seedPopulation(ctx, c, p, rng, nil)
	if err != nil {
		return tr.result(), err
	}
	cfg.evolve(c, pop, rng, tr)
	return tr.done()
}

// seedPopulation builds the initial population: the given seed
// solutions first (nil is fine), random individuals for the rest. Each
// individual's evaluator is initialized with a full recompute; on big
// instances that alone can be slow, so cancellation is honored here.
func (e *Evolutionary) seedPopulation(ctx context.Context, c *Compiled, p *Problem, rng *rand.Rand, seeds []*Solution) ([]individual, error) {
	pop := make([]individual, e.PopulationSize)
	for i := range pop {
		if ctx != nil && ctx.Err() != nil {
			return nil, ctx.Err()
		}
		pop[i] = makeIndividual(c)
		if i < len(seeds) {
			src := e.encode(p, seeds[i])
			pop[i].copyGenes(&src)
		} else {
			e.randomizeGenes(c, &pop[i], rng)
		}
		pop[i].ev.Init(e.decodeCompiled(c, &pop[i]))
		pop[i].cost = pop[i].ev.Cost()
	}
	return pop, nil
}

// copyGenes copies gene values from src into ind's preallocated genes.
func (ind *individual) copyGenes(src *individual) {
	for i := range ind.genes {
		ind.genes[i].startOff = src.genes[i].startOff
		copy(ind.genes[i].fracs, src.genes[i].fracs)
	}
}

// evolve runs generations on pop until the tracker's budget is
// exhausted. The EA and the Hybrid's evolution phase both run it.
func (e *Evolutionary) evolve(c *Compiled, pop []individual, rng *rand.Rand, tr *tracker) {
	scratch := make([]individual, len(pop))
	for i := range scratch {
		scratch[i] = makeIndividual(c)
	}
	order := make([]int, len(pop))
	energy := make([]float64, c.maxProfile) // single-gene decode scratch

	var bestIdx int
	mkBest := func() *Solution { return pop[bestIdx].ev.Solution() }

	// The initial population counts as the first iteration (and
	// guarantees a non-nil result when the budget is too small for a
	// single bred generation); each generation is observed after
	// breeding, so no bred work is ever discarded at exhaustion.
	if !tr.exhausted() || tr.iter == 0 {
		bestIdx = bestOf(pop)
		tr.observe(pop[bestIdx].cost, mkBest)
	}
	for !tr.exhausted() {
		// Next generation: elites first, then tournament offspring.
		costOrder(pop, order, e.Elite)
		for i := 0; i < e.Elite; i++ {
			scratch[i].copyFrom(&pop[order[i]])
		}
		for k := e.Elite; k < len(pop); k++ {
			child := &scratch[k]
			a := e.tournament(pop, rng)
			child.copyFrom(&pop[a])
			if rng.Float64() < e.CrossoverRate {
				b := e.tournament(pop, rng)
				e.crossover(c, child, &pop[b], rng, energy)
			}
			e.mutate(c, child, rng, energy)
			child.cost = child.ev.Cost()
		}
		pop, scratch = scratch, pop
		bestIdx = bestOf(pop)
		tr.observe(pop[bestIdx].cost, mkBest)
	}
}

// randomizeGenes fills ind's genes with a uniform random genotype.
func (e *Evolutionary) randomizeGenes(c *Compiled, ind *individual, rng *rand.Rand) {
	for i := range c.offers {
		g := &ind.genes[i]
		g.startOff = rng.Intn(c.offers[i].width + 1)
		for j := range g.fracs {
			g.fracs[j] = rng.Float64()
		}
	}
}

// applyGene pushes gene i's current value through the individual's
// incremental evaluator: the single-offer decode goes into the
// caller's scratch buffer and SetPlacement delta-updates net and cost.
func (e *Evolutionary) applyGene(c *Compiled, ind *individual, i int, energy []float64) {
	o := &c.offers[i]
	g := &ind.genes[i]
	buf := energy[:o.n]
	for j := 0; j < o.n; j++ {
		lo, hi := c.emin[o.base+j], c.emax[o.base+j]
		buf[j] = lo + g.fracs[j]*(hi-lo)
	}
	ind.ev.SetPlacement(i, o.lo+flexoffer.Time(g.startOff), buf)
}

// decodeCompiled maps a genotype to a concrete solution (allocating —
// used off the hot path).
func (e *Evolutionary) decodeCompiled(c *Compiled, ind *individual) *Solution {
	sol := &Solution{Placements: make([]Placement, len(c.offers))}
	for i := range c.offers {
		o := &c.offers[i]
		g := &ind.genes[i]
		energy := make([]float64, o.n)
		for j := range energy {
			lo, hi := c.emin[o.base+j], c.emax[o.base+j]
			energy[j] = lo + g.fracs[j]*(hi-lo)
		}
		sol.Placements[i] = Placement{Start: o.lo + flexoffer.Time(g.startOff), Energy: energy}
	}
	return sol
}

func (e *Evolutionary) tournament(pop []individual, rng *rand.Rand) int {
	best := rng.Intn(len(pop))
	for i := 1; i < e.TournamentSize; i++ {
		c := rng.Intn(len(pop))
		if pop[c].cost < pop[best].cost {
			best = c
		}
	}
	return best
}

// crossover mixes parent b into the child uniformly per offer gene.
// Only genes that actually differ go through the delta evaluator;
// inherited-in-common genes (frequent once the population converges)
// cost one comparison.
func (e *Evolutionary) crossover(c *Compiled, child *individual, b *individual, rng *rand.Rand, energy []float64) {
	for i := range child.genes {
		if rng.Intn(2) != 0 {
			continue
		}
		g, bg := &child.genes[i], &b.genes[i]
		if g.equal(bg) {
			continue
		}
		g.startOff = bg.startOff
		copy(g.fracs, bg.fracs)
		e.applyGene(c, child, i, energy)
	}
}

// mutate perturbs offer genes: the start jumps to a random feasible
// offset, fractions take Gaussian steps. Every mutated gene is pushed
// through the delta evaluator.
func (e *Evolutionary) mutate(c *Compiled, ind *individual, rng *rand.Rand, energy []float64) {
	for i := range c.offers {
		if rng.Float64() >= e.MutationRate {
			continue
		}
		g := &ind.genes[i]
		if w := c.offers[i].width; w > 0 && rng.Intn(2) == 0 {
			g.startOff = rng.Intn(w + 1)
		}
		j := rng.Intn(len(g.fracs))
		g.fracs[j] += rng.NormFloat64() * 0.3
		if g.fracs[j] < 0 {
			g.fracs[j] = 0
		}
		if g.fracs[j] > 1 {
			g.fracs[j] = 1
		}
		e.applyGene(c, ind, i, energy)
	}
}

func bestOf(pop []individual) int {
	best := 0
	for i := range pop {
		if pop[i].cost < pop[best].cost {
			best = i
		}
	}
	return best
}

// costOrder fills order with all population indexes and partially
// selection-sorts so that the first k entries are the k lowest-cost
// individuals in ascending order — O(k·n) instead of the full O(n²)
// pass; only the Elite prefix is ever read.
func costOrder(pop []individual, order []int, k int) {
	for i := range order {
		order[i] = i
	}
	if k > len(order) {
		k = len(order)
	}
	for i := 0; i < k; i++ {
		min := i
		for j := i + 1; j < len(order); j++ {
			if pop[order[j]].cost < pop[order[min]].cost {
				min = j
			}
		}
		order[i], order[min] = order[min], order[i]
	}
}
