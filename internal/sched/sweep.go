package sched

import (
	"context"
	"math"
	"math/rand"
)

// Sweep is the node's planner: the paper's greedy placement rule
// (§6), applied first to build a schedule and then again to improve
// it — the §6 direction of hybridizing the greedy search with a local
// one. Each restart shuffles the offer order from the seeded stream
// and constructs a schedule as RandomizedGreedy does. Then it sweeps:
// in the same order, each offer is lifted out of the position and
// placed again, at its locally best start against every other offer.
// After the construction and after every sweep the schedule is priced
// from scratch, in Problem.Evaluate's order on a rebuilt position, so
// the drift of lifting and placing never accumulates and the returned
// Cost is Evaluate of the returned Solution, bit for bit. A restart
// sweeps while a sweep strictly lowers that price, and the search ends
// after sweepStall consecutive restarts that do not lower the best
// cost.
//
// One iteration (Options.MaxIterations, Result.Iterations, the trace)
// is one pass over the offers: a construction or a sweep. The search
// runs on the calling goroutine and checks its budget and ctx between
// passes, so its answer is a function of the seed alone — never of
// GOMAXPROCS — unless the time budget or ctx cuts it short.
type Sweep struct{}

// sweepStall is how many consecutive restarts that do not lower the
// best cost end a Sweep search. On the node's cycle-sized problem (50
// aggregates) a stall of 16 plans up to 2 % cheaper than 8 in 1.3–3×
// the time, and a stall of 4 up to 2 % dearer.
const sweepStall = 8

// Name implements Scheduler.
func (s *Sweep) Name() string { return "SW" }

// Schedule implements Scheduler.
func (s *Sweep) Schedule(ctx context.Context, p *Problem, opt Options) (Result, error) {
	c, err := Compile(p)
	if err != nil {
		return Result{}, err
	}
	tr := newTracker(ctx, opt)
	run := newGreedyRun(c, FillGreedy)
	rng := rand.New(rand.NewSource(opt.Seed))
	order := make([]int, len(c.offers))
	for i := range order {
		order[i] = i
	}
	for stall := 0; stall < sweepStall && !tr.exhausted(); {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		if run.descend(order, tr) {
			stall = 0
		} else {
			stall++
		}
	}
	return tr.done()
}

// descend is one Sweep restart: a construction in order, then sweeps
// in the same order until one does not strictly lower the schedule's
// price or tr's budget is spent. Every pass is fed to tr, and it
// reports whether the restart lowered tr's best cost. Only a pass that
// lowers the best cost allocates: its clone.
func (r *greedyRun) descend(order []int, tr *tracker) (improved bool) {
	before := tr.cost
	clone := func() *Solution { return cloneSolution(&r.sol) }
	r.construct(order)
	cost := r.price()
	tr.observe(cost, clone)
	for !tr.exhausted() {
		r.sweep(order)
		next := r.price()
		tr.observe(next, clone)
		if !(next < cost) {
			break
		}
		cost = next
	}
	return tr.cost < before
}

// sweep lifts each offer in order out of the position and places it
// again against all the others.
func (r *greedyRun) sweep(order []int) {
	c := r.c
	for _, idx := range order {
		o := &c.offers[idx]
		base := int(r.sol.Placements[idx].Start - c.start)
		for j, e := range r.arena[o.base : o.base+o.n] {
			r.pos.move(c, base+j, -e)
		}
		r.place(idx)
	}
}

// price rebuilds the position from r.sol and returns the schedule's
// cost in Problem.Evaluate's order: the baseline plus every offer's
// energies in offer order, the slot costs in slot order, then each
// offer's activation cost — the same floats as Evaluate.
func (r *greedyRun) price() float64 {
	c := r.c
	copy(r.pos.net, c.baseline)
	for i := range c.offers {
		o := &c.offers[i]
		base := int(r.sol.Placements[i].Start - c.start)
		for j, e := range r.arena[o.base : o.base+o.n] {
			r.pos.net[base+j] += e
		}
	}
	r.pos.reprice(c)
	cost := r.pos.total()
	for i := range c.offers {
		o := &c.offers[i]
		var act float64
		for _, e := range r.arena[o.base : o.base+o.n] {
			act += math.Abs(e)
		}
		cost += act * o.costPerKWh
	}
	return cost
}
