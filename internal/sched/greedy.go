package sched

import (
	"context"
	"math"
	"math/rand"
	"time"

	"mirabel/internal/flexoffer"
)

// FillMode selects how per-slice energies are chosen when a single offer
// is placed.
type FillMode int

const (
	// FillGreedy picks, per slice, the energy inside [min, max] that
	// cancels as much of the current imbalance as possible (default).
	FillGreedy FillMode = iota
	// FillMidpoint always uses the middle of the energy range — the
	// ablation baseline for the energy-fill design decision.
	FillMidpoint
)

// RandomizedGreedy is the paper's randomized greedy search: it
// "constructs the schedule gradually — at each step a randomly chosen
// flex-offer is scheduled in the best possible position", repeated with
// fresh random orders until the time budget is exhausted, keeping the
// best schedule found. The inner loop prices only the slots a candidate
// start would change — the current price of every slot is cached beside
// the net position — and one scratch arena is reused across restarts,
// so steady-state search allocates nothing. Each construction is then
// priced from scratch in Problem.Evaluate's order, so the returned Cost
// is Evaluate of the returned Solution, bit for bit.
type RandomizedGreedy struct {
	// Fill selects the energy-fill rule (default FillGreedy).
	Fill FillMode
}

// Name implements Scheduler.
func (g *RandomizedGreedy) Name() string { return "GS" }

// Schedule implements Scheduler. The restarts run on the calling
// goroutine, so the answer is a function of the seed alone unless the
// time budget or ctx cuts the search short.
func (g *RandomizedGreedy) Schedule(ctx context.Context, p *Problem, opt Options) (Result, error) {
	c, err := Compile(p)
	if err != nil {
		return Result{}, err
	}
	tr := newTracker(ctx, opt)
	limit := opt.MaxIterations
	if limit <= 0 {
		limit = math.MaxInt
	}
	g.restarts(ctx, c, rand.New(rand.NewSource(opt.Seed)), tr, limit, tr.deadline, false)
	return tr.done()
}

// restarts runs greedy constructions in fresh random orders, each
// order one more in-place shuffle of the previous one drawn from rng,
// and feeds every construction's price to tr in restart order. Before
// each restart it stops once limit restarts have run, the deadline has
// passed or ctx is cancelled. Only a restart that improves on tr's
// best clones its solution. With keep set, every construction is
// cloned and returned in restart order (Hybrid's seeds), and tr
// retains those same clones.
func (g *RandomizedGreedy) restarts(ctx context.Context, c *Compiled, rng *rand.Rand, tr *tracker, limit int, deadline time.Time, keep bool) []*Solution {
	run := newGreedyRun(c, g.Fill)
	order := make([]int, len(c.offers))
	for i := range order {
		order[i] = i
	}
	clone := func() *Solution { return cloneSolution(&run.sol) }
	var seeds []*Solution
	for k := 0; k < limit && ctx.Err() == nil && !time.Now().After(deadline); k++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		run.construct(order)
		mk := clone
		if keep {
			sol := cloneSolution(&run.sol)
			seeds = append(seeds, sol)
			mk = func() *Solution { return sol }
		}
		tr.observe(run.price(), mk)
	}
	return seeds
}

// greedyRun is the reusable scratch arena of one greedy search: the
// priced position and the solution under construction (whose placement
// energies live in one flat arena, sliced per offer). construct
// overwrites all of it each restart.
type greedyRun struct {
	c     *Compiled
	pos   position
	sol   Solution
	arena []float64 // placed energies per offer, flattened like c.emin
	// lo/hi are the fill rule as data: the range fillEnergy clamps into,
	// flattened like c.emin. FillGreedy clamps into the profile bounds
	// themselves; FillMidpoint collapses each range onto its midpoint,
	// so the scan loop never tests the mode.
	lo, hi []float64
}

func newGreedyRun(c *Compiled, fill FillMode) *greedyRun {
	r := &greedyRun{
		c:     c,
		pos:   newPosition(c.slots),
		sol:   Solution{Placements: make([]Placement, len(c.offers))},
		arena: make([]float64, len(c.emin)),
		lo:    c.emin,
		hi:    c.emax,
	}
	if fill == FillMidpoint {
		mid := make([]float64, len(c.emin))
		for k := range mid {
			mid[k] = (c.emin[k] + c.emax[k]) / 2
		}
		r.lo, r.hi = mid, mid
	}
	for i := range c.offers {
		o := &c.offers[i]
		r.sol.Placements[i].Energy = r.arena[o.base : o.base+o.n]
	}
	return r
}

// construct builds one schedule into r.sol: offers in the given order,
// each placed at its locally best start by place. r.sol is scratch state
// that the next construct overwrites — callers must clone before
// retaining it. The returned cost is the position's running total in
// placement order, which may differ from Evaluate's in the last bits;
// the searches price a schedule with price instead.
func (r *greedyRun) construct(order []int) float64 {
	r.pos.reset(r.c)
	var offerCosts float64
	for _, idx := range order {
		offerCosts += r.place(idx) * r.c.offers[idx].costPerKWh
	}
	return r.pos.total() + offerCosts
}

// place puts offer idx at its locally best start against the position
// as it stands, with the fill rule's energies, and returns its
// activation sum Σ|e|. The offset scan only compares deltas — an
// unchanged slot's price is read from the position, never recomputed —
// and the winner's energies are derived once, when it is placed.
// Without a market one placeOffer call prices every offset (four or two
// per instruction on amd64), picks the winner and places it, its slots
// priced at the penalty in place; with one, each slot goes through
// slotCost's market branches, offset by offset, and the winner's
// through position.move. Either way the first strict minimum in offset
// order wins.
func (r *greedyRun) place(idx int) (act float64) {
	c := r.c
	o := &c.offers[idx]
	lo, hi := r.lo[o.base:o.base+o.n], r.hi[o.base:o.base+o.n]
	energy := r.arena[o.base : o.base+o.n]
	first := int(o.lo - c.start)
	var bestOff int

	if !c.hasMarket {
		end := first + o.width + o.n
		bestOff, act = placeOffer(r.pos.net[first:end], r.pos.cost[first:end], c.imb[first:end], lo, hi, energy, o.costPerKWh)
	} else {
		bestDelta := math.Inf(1)
		for off := 0; off <= o.width; off++ {
			base := first + off
			net := r.pos.net[base : base+o.n]
			cost := r.pos.cost[base : base+o.n]
			var delta, act float64
			for j, n := range net {
				e := fillEnergy(lo[j], hi[j], n)
				delta += c.slotCost(base+j, n+e) - cost[j]
				act += math.Abs(e)
			}
			delta += act * o.costPerKWh
			if delta < bestDelta {
				bestDelta = delta
				bestOff = off
			}
		}
		base := first + bestOff
		for j := range energy {
			e := fillEnergy(lo[j], hi[j], r.pos.net[base+j])
			energy[j] = e
			r.pos.move(c, base+j, e)
			act += math.Abs(e)
		}
	}
	r.sol.Placements[idx].Start = o.lo + flexoffer.Time(bestOff)
	return act
}

// fillEnergy picks a slice's energy for the current net position:
// cancel the imbalance (target −net), clamped into [lo, hi].
func fillEnergy(lo, hi, net float64) float64 {
	e := -net
	if e < lo {
		e = lo
	}
	if e > hi {
		e = hi
	}
	return e
}
