package sched

import (
	"math"

	"mirabel/internal/flexoffer"
)

// This file implements the compiled evaluation pipeline: the scheduler
// hot path. Every candidate schedule a strategy considers used to pay a
// full Problem.Evaluate — a fresh net slice, a freshly allocated decoded
// Solution and a Market.Quote recomputation for every slot. Compile
// folds everything that is constant across candidates (market quotes,
// imbalance prices, clamped start windows, profile energy bounds) into
// flat arrays once per search. A candidate's mutable state is a
// position — per-slot net energy with each slot's price cached beside
// it — used by both the greedy constructor and Eval, so that changing one
// offer's placement costs O(changed × profile) instead of
// O(slots + offers × profile) and no slot is priced twice for one net.

// Compiled is an immutable evaluation context for one Problem: per-slot
// quote tables (buy/sell/capacity folded with the imbalance price, so
// pricing a slot is a branch-light array lookup instead of a
// Market.Quote call), the clamped start window of every offer
// (Problem.StartWindow precomputed) and the flattened profile min/max
// energies. A Compiled is safe for concurrent use; all mutable search
// state lives in Eval.
type Compiled struct {
	start    flexoffer.Time
	slots    int
	baseline []float64
	// baseCost[t] == slotCost(t, baseline[t]): the priced empty schedule
	// every position resets to.
	baseCost []float64

	// Per-slot pricing tables, index-aligned with the horizon.
	imb       []float64
	hasMarket bool
	buy       []float64
	sell      []float64
	cap       []float64

	offers []compiledOffer
	// emin/emax hold every offer's profile bounds back to back;
	// compiledOffer.base is the offset of an offer's slice range.
	emin []float64
	emax []float64
	// maxProfile is the longest profile length — the scratch size a
	// caller needs to decode any single offer's energies.
	maxProfile int
}

// compiledOffer is the placement-relevant shape of one offer.
type compiledOffer struct {
	lo         flexoffer.Time // clamped window start (StartWindow lo)
	width      int            // hi − lo: feasible start offsets are [0, width]
	base       int            // offset into the flattened emin/emax arrays
	n          int            // profile length
	costPerKWh float64
}

// Compile validates p and builds its immutable evaluation context.
func Compile(p *Problem) (*Compiled, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	c := &Compiled{
		start:    p.Start,
		slots:    p.Slots,
		baseline: p.Baseline,
		imb:      p.ImbalancePrice,
	}
	if p.Market != nil {
		c.hasMarket = true
		c.buy = make([]float64, p.Slots)
		c.sell = make([]float64, p.Slots)
		c.cap = make([]float64, p.Slots)
		for t := 0; t < p.Slots; t++ {
			q := p.Market.Quote(p.Start + flexoffer.Time(t))
			c.buy[t], c.sell[t], c.cap[t] = q.BuyEUR, q.SellEUR, q.CapacityKWh
		}
	}
	c.offers = make([]compiledOffer, len(p.Offers))
	var flat int
	for _, f := range p.Offers {
		flat += len(f.Profile)
	}
	c.emin = make([]float64, 0, flat)
	c.emax = make([]float64, 0, flat)
	for i, f := range p.Offers {
		lo, hi := p.StartWindow(f)
		c.offers[i] = compiledOffer{
			lo:         lo,
			width:      int(hi - lo),
			base:       len(c.emin),
			n:          len(f.Profile),
			costPerKWh: f.CostPerKWh,
		}
		if len(f.Profile) > c.maxProfile {
			c.maxProfile = len(f.Profile)
		}
		for _, sl := range f.Profile {
			c.emin = append(c.emin, sl.EnergyMin)
			c.emax = append(c.emax, sl.EnergyMax)
		}
	}
	c.baseCost = make([]float64, p.Slots)
	for t, n := range c.baseline {
		c.baseCost[t] = c.slotCost(t, n)
	}
	return c, nil
}

// slotCost prices one slot's net position from the compiled tables —
// the same policy as Problem.slotCost (optimal market usage first, then
// the imbalance penalty on the residue) without the Quote call.
func (c *Compiled) slotCost(t int, n float64) float64 {
	imb := c.imb[t]
	if !c.hasMarket {
		return penalty(imb, n)
	}
	if n > 0 { // deficit: buy
		if c.buy[t] >= imb {
			return imb * n
		}
		b := n
		if b > c.cap[t] {
			b = c.cap[t]
		}
		return b*c.buy[t] + (n-b)*imb
	}
	surplus := -n
	if c.sell[t] <= -imb { // dumping costs more than the penalty
		return imb * surplus
	}
	s := surplus
	if s > c.cap[t] {
		s = c.cap[t]
	}
	return -s*c.sell[t] + (surplus-s)*imb
}

// penalty is the imbalance charge on a net position n — without a
// market, the slot's whole cost. It is a function of its own so the
// portable offset scan (scan_generic.go), which never tests for a
// market, evaluates the same expression slotCost does; the SSE2 scan
// performs it as the same two operations.
func penalty(imb, n float64) float64 { return imb * math.Abs(n) }

// position is the priced net position of one candidate schedule: per
// slot the net energy (baseline plus every placed offer) and, beside
// it, that slot's cost. Invariant: cost[t] == c.slotCost(t, net[t]) —
// reset, move and reprice are the only writers of cost, so a search
// reads cost[t] wherever it needs the price of a slot it has not
// changed. The cached value is the same expression on the same input
// as a fresh slotCost call, so sums over it are bit-identical.
type position struct {
	net  []float64
	cost []float64
}

func newPosition(slots int) position {
	return position{net: make([]float64, slots), cost: make([]float64, slots)}
}

// reset returns the position to the bare baseline.
func (p *position) reset(c *Compiled) {
	copy(p.net, c.baseline)
	copy(p.cost, c.baseCost)
}

// move shifts slot t's net by d and prices the slot once.
func (p *position) move(c *Compiled, t int, d float64) {
	n := p.net[t] + d
	p.net[t] = n
	p.cost[t] = c.slotCost(t, n)
}

// reprice prices every slot: the bulk path for a caller that rebuilt
// net directly, one slotCost per slot however many offers overlap it.
func (p *position) reprice(c *Compiled) {
	for t, n := range p.net {
		p.cost[t] = c.slotCost(t, n)
	}
}

// total sums the slot costs in slot order.
func (p *position) total() float64 {
	var sum float64
	for _, v := range p.cost {
		sum += v
	}
	return sum
}

// copyFrom duplicates src (same horizon).
func (p *position) copyFrom(src *position) {
	copy(p.net, src.net)
	copy(p.cost, src.cost)
}

// NewEval returns a fresh incremental evaluator bound to c. The state
// is undefined until Init seeds it with a concrete solution.
func (c *Compiled) NewEval() *Eval {
	return &Eval{
		c:      c,
		pos:    newPosition(c.slots),
		starts: make([]flexoffer.Time, len(c.offers)),
		energy: make([]float64, len(c.emin)),
	}
}

// autoResyncOps bounds floating-point drift: after this many delta
// updates the evaluator silently recomputes its sums from scratch. The
// amortized cost is negligible (one full pass per 4096 deltas) and
// keeps the incremental cost within test tolerance of a full Evaluate
// indefinitely.
const autoResyncOps = 4096

// Eval is the incremental evaluation state of one candidate schedule:
// the priced per-slot position, the slot-cost and activation-cost sums,
// and the current placement of every offer. SetPlacement updates
// all of it in O(profile) for the changed offer; Cost is O(1). An Eval
// is not safe for concurrent use; searches running in parallel each
// need their own (CopyFrom duplicates state cheaply).
type Eval struct {
	c       *Compiled
	pos     position // baseline + all current placements, priced
	slotSum float64  // Σ_t pos.cost[t]
	actSum  float64  // Σ_i activation cost of placement i

	starts []flexoffer.Time
	energy []float64 // current placement energies, flattened like c.emin
	ops    int       // delta updates since the last full recompute
}

// Init seeds the evaluator with sol: every placement is copied in and
// the sums are computed from scratch. sol must be index-aligned with
// the compiled problem's offers and respect their profile lengths.
func (e *Eval) Init(sol *Solution) {
	for i := range e.c.offers {
		o := &e.c.offers[i]
		pl := &sol.Placements[i]
		e.starts[i] = pl.Start
		copy(e.energy[o.base:o.base+o.n], pl.Energy)
	}
	e.recompute()
}

// CopyFrom duplicates src's state into e (both must come from the same
// Compiled). This is the EA's clone path: O(slots + Σ profile) copies,
// zero allocations.
func (e *Eval) CopyFrom(src *Eval) {
	e.pos.copyFrom(&src.pos)
	copy(e.starts, src.starts)
	copy(e.energy, src.energy)
	e.slotSum, e.actSum, e.ops = src.slotSum, src.actSum, src.ops
}

// recompute rebuilds the position and both cost sums from the stored
// placements.
func (e *Eval) recompute() {
	c := e.c
	copy(e.pos.net, c.baseline)
	e.actSum = 0
	for i := range c.offers {
		o := &c.offers[i]
		base := int(e.starts[i] - c.start)
		var act float64
		for j := 0; j < o.n; j++ {
			v := e.energy[o.base+j]
			e.pos.net[base+j] += v
			act += math.Abs(v)
		}
		e.actSum += act * o.costPerKWh
	}
	e.pos.reprice(c)
	e.slotSum = e.pos.total()
	e.ops = 0
}

// SetPlacement moves offer i to a new start and energy vector,
// updating the position and cost sums incrementally: each slot the old
// or the new placement touches has its cached cost taken out of the
// sum, is moved and priced once, and put back — O(profile) work, no
// allocation. energy must have the offer's profile length; it is
// copied, the caller keeps ownership.
func (e *Eval) SetPlacement(i int, start flexoffer.Time, energy []float64) {
	c := e.c
	o := &c.offers[i]

	// Remove the old placement.
	base := int(e.starts[i] - c.start)
	var act float64
	for j := 0; j < o.n; j++ {
		t := base + j
		v := e.energy[o.base+j]
		e.slotSum -= e.pos.cost[t]
		e.pos.move(c, t, -v)
		e.slotSum += e.pos.cost[t]
		act += math.Abs(v)
	}
	e.actSum -= act * o.costPerKWh

	// Add the new one.
	e.starts[i] = start
	copy(e.energy[o.base:o.base+o.n], energy)
	base = int(start - c.start)
	act = 0
	for j := 0; j < o.n; j++ {
		t := base + j
		v := e.energy[o.base+j]
		e.slotSum -= e.pos.cost[t]
		e.pos.move(c, t, v)
		e.slotSum += e.pos.cost[t]
		act += math.Abs(v)
	}
	e.actSum += act * o.costPerKWh

	e.ops++
	if e.ops >= autoResyncOps {
		e.recompute()
	}
}

// Cost returns the total schedule cost of the current placements —
// identical (within floating-point drift, bounded by the automatic
// resync) to Problem.Evaluate of Solution().
func (e *Eval) Cost() float64 { return e.slotSum + e.actSum }

// Solution materializes the current placements as a freshly allocated
// Solution, safe to retain after further SetPlacement calls.
func (e *Eval) Solution() *Solution {
	sol := &Solution{Placements: make([]Placement, len(e.c.offers))}
	for i := range e.c.offers {
		o := &e.c.offers[i]
		sol.Placements[i] = Placement{
			Start:  e.starts[i],
			Energy: append([]float64(nil), e.energy[o.base:o.base+o.n]...),
		}
	}
	return sol
}
