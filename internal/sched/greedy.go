package sched

import (
	"context"
	"math"
	"math/rand"

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
// so steady-state search allocates nothing.
type RandomizedGreedy struct {
	// Fill selects the energy-fill rule (default FillGreedy).
	Fill FillMode
}

// Name implements Scheduler.
func (g *RandomizedGreedy) Name() string { return "GS" }

// Schedule implements Scheduler.
func (g *RandomizedGreedy) Schedule(ctx context.Context, p *Problem, opt Options) (Result, error) {
	c, err := Compile(p)
	if err != nil {
		return Result{}, err
	}
	rng := rand.New(rand.NewSource(opt.Seed))
	tr := newTracker(ctx, opt)
	run := newGreedyRun(c, g.Fill)
	order := make([]int, len(c.offers))
	for i := range order {
		order[i] = i
	}
	mk := func() *Solution { return cloneSolution(&run.sol) }
	for !tr.exhausted() {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		tr.observe(run.construct(order), mk)
	}
	return tr.result(), ctx.Err()
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
// each placed at its locally best start with the fill rule's energies.
// The offset scan only compares deltas — an unchanged slot's price is
// read from the position, never recomputed — and the winner's energies
// are derived once, when it is placed. The returned cost refers to
// scratch state that the next construct overwrites — callers must clone
// before retaining the solution.
func (r *greedyRun) construct(order []int) float64 {
	c := r.c
	r.pos.reset(c)
	flat := !c.hasMarket // slotCost's early-out, tested once per restart
	var offerCosts float64

	for _, idx := range order {
		o := &c.offers[idx]
		lo, hi := r.lo[o.base:o.base+o.n], r.hi[o.base:o.base+o.n]
		first := int(o.lo - c.start)
		bestDelta := math.Inf(1)
		bestOff := 0

		for off := 0; off <= o.width; off++ {
			base := first + off
			net := r.pos.net[base : base+o.n]
			cost := r.pos.cost[base : base+o.n]
			imb := c.imb[base : base+o.n]
			var delta, act float64
			for j, n := range net {
				e := fillEnergy(lo[j], hi[j], n)
				var after float64
				if flat {
					after = penalty(imb[j], n+e)
				} else {
					after = c.slotCost(base+j, n+e)
				}
				delta += after - cost[j]
				act += math.Abs(e)
			}
			delta += act * o.costPerKWh
			if delta < bestDelta {
				bestDelta = delta
				bestOff = off
			}
		}

		base := first + bestOff
		var act float64
		for j := range lo {
			e := fillEnergy(lo[j], hi[j], r.pos.net[base+j])
			r.arena[o.base+j] = e
			r.pos.move(c, base+j, e)
			act += math.Abs(e)
		}
		offerCosts += act * o.costPerKWh
		r.sol.Placements[idx].Start = o.lo + flexoffer.Time(bestOff)
	}
	return r.pos.total() + offerCosts
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
