package sched

import (
	"context"
	"math"
	"math/rand"
	"runtime"
	"sync"
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
// the net position — and each worker reuses one scratch arena across
// its restarts, so steady-state search allocates nothing.
type RandomizedGreedy struct {
	// Fill selects the energy-fill rule (default FillGreedy).
	Fill FillMode
}

// Name implements Scheduler.
func (g *RandomizedGreedy) Name() string { return "GS" }

// Schedule implements Scheduler. The restarts run on every core (see
// restarts); the result is the serial loop's, float for float.
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

// restartWindow bounds, per worker, how many restarts may be started
// past the oldest one not yet observed, so the result ring stays a
// fixed size however unevenly the workers progress.
const restartWindow = 4

// restartLoop is the state the workers of one restarts call share.
// Every field below mu is guarded by it.
type restartLoop struct {
	ctx      context.Context
	c        *Compiled
	rng      *rand.Rand
	tr       *tracker
	limit    int
	deadline time.Time
	keep     bool

	mu       sync.Mutex
	advanced sync.Cond // signalled when observed moves
	order    []int     // the one order stream: shuffled in place per restart
	next     int       // restarts started
	observed int       // restarts fed to tr (always a prefix)
	ring     []restartOutcome
	seeds    []*Solution // keep mode: every construction, in restart order
}

// restartOutcome is one finished restart waiting for its turn to be
// observed. sol is nil when the worker proved it cannot improve.
type restartOutcome struct {
	cost  float64
	sol   *Solution
	ready bool
}

// restarts runs greedy constructions in fresh random orders, each
// order one more in-place shuffle of the previous one drawn from rng,
// and feeds every construction's cost to tr in restart order. It stops
// starting restarts once limit have started, the deadline has passed
// or ctx is cancelled; every started restart is finished and observed,
// so the observed restarts are always a prefix of the serial loop's and
// rng has drawn exactly one shuffle per observed restart. With keep set,
// every construction is cloned and returned in restart order (Hybrid's
// seeds) and tr retains those same clones.
//
// The restarts run on min(runtime.GOMAXPROCS(0), limit) workers, each
// with a private greedyRun; one worker runs on the calling goroutine.
// Orders are drawn and outcomes observed under one mutex, so tr sees
// exactly the serial sequence — ties keep the lowest restart, as the
// serial strict < does — at any worker count. A worker clones its
// solution only when it beats every earlier restart whose cost is known
// once its construction is done (improves): a superset of the restarts
// that improve in serial order, so steady-state restarts allocate
// nothing.
func (g *RandomizedGreedy) restarts(ctx context.Context, c *Compiled, rng *rand.Rand, tr *tracker, limit int, deadline time.Time, keep bool) []*Solution {
	if limit <= 0 {
		return nil
	}
	workers := min(runtime.GOMAXPROCS(0), limit)
	l := &restartLoop{
		ctx: ctx, c: c, rng: rng, tr: tr, limit: limit, deadline: deadline, keep: keep,
		order: make([]int, len(c.offers)),
		ring:  make([]restartOutcome, restartWindow*workers),
	}
	for i := range l.order {
		l.order[i] = i
	}
	if keep {
		l.seeds = make([]*Solution, 0, limit)
	}
	l.advanced.L = &l.mu

	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			l.work(newGreedyRun(c, g.Fill))
		}()
	}
	l.work(newGreedyRun(c, g.Fill))
	wg.Wait()
	return l.seeds
}

// work is one worker's loop: start a restart, construct it in the
// worker's own run, hand the outcome back, repeat until the budget is
// spent. Only a restart that improves takes mu a second time, to clone
// its solution outside the lock.
func (l *restartLoop) work(run *greedyRun) {
	order := make([]int, len(l.order))
	l.mu.Lock()
	defer l.mu.Unlock()
	for {
		k, ok := l.start(order)
		if !ok {
			return
		}
		l.mu.Unlock()
		cost := run.construct(order)
		var sol *Solution
		if l.keep {
			sol = cloneSolution(&run.sol)
		}
		l.mu.Lock()
		if sol == nil && l.improves(k, cost) {
			l.mu.Unlock()
			sol = cloneSolution(&run.sol)
			l.mu.Lock()
		}
		l.finish(k, cost, sol)
	}
}

// start claims the next restart and copies its order into order.
// Called with mu held.
func (l *restartLoop) start(order []int) (k int, ok bool) {
	for l.next-l.observed >= len(l.ring) {
		l.advanced.Wait()
	}
	if l.next >= l.limit || l.ctx.Err() != nil || time.Now().After(l.deadline) {
		return 0, false
	}
	l.rng.Shuffle(len(l.order), func(i, j int) { l.order[i], l.order[j] = l.order[j], l.order[i] })
	copy(order, l.order)
	k = l.next
	l.next++
	return k, true
}

// improves reports whether cost, restart k's, beats the best observed
// cost and every finished outcome below k still waiting in the ring.
// Those are all earlier restarts, so false proves restart k does not
// improve in serial order. Called with mu held.
func (l *restartLoop) improves(k int, cost float64) bool {
	if cost >= l.tr.cost {
		return false
	}
	for j := l.observed; j < k; j++ {
		if r := &l.ring[j%len(l.ring)]; r.ready && cost >= r.cost {
			return false
		}
	}
	return true
}

// finish records restart k's outcome and observes every outcome that
// is now next in restart order. Called with mu held.
func (l *restartLoop) finish(k int, cost float64, sol *Solution) {
	l.ring[k%len(l.ring)] = restartOutcome{cost: cost, sol: sol, ready: true}
	moved := false
	for {
		r := &l.ring[l.observed%len(l.ring)]
		if !r.ready {
			break
		}
		sol := r.sol
		l.tr.observe(r.cost, func() *Solution { return sol })
		if l.keep {
			l.seeds = append(l.seeds, r.sol)
		}
		*r = restartOutcome{}
		l.observed++
		moved = true
	}
	if moved {
		l.advanced.Broadcast()
	}
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
// each placed at its locally best start by place. The returned cost
// refers to scratch state that the next construct overwrites — callers
// must clone before retaining the solution.
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
