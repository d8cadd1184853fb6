// Package sched implements the MIRABEL scheduling component (paper §6):
// given forecast supply and demand, a pool of (aggregated) flex-offers
// and a market, it fixes the start times and energy amounts of all
// flex-offers and the market trades so that the total cost of the
// schedule is minimized. The cost is the sum of (1) the cost of the
// remaining mismatches — weighted by peak-period prices, (2) the
// activation costs of the flex-offers and (3) the cost of energy bought
// from (minus revenue of energy sold to) the market.
//
// Two stochastic metaheuristics solve the problem, as in the paper: a
// randomized greedy search and an evolutionary algorithm; an exhaustive
// enumerator provides the true optimum for tiny instances (the paper's
// optimality probe). The node plans with Sweep, the greedy search
// followed by re-placing every offer against the rest until that stops
// improving.
package sched

import (
	"fmt"
	"math"

	"mirabel/internal/flexoffer"
	"mirabel/internal/market"
)

// Problem is one scheduling instance over a slot horizon
// [Start, Start+Slots).
type Problem struct {
	// Start is the first slot of the planning horizon.
	Start flexoffer.Time
	// Slots is the horizon length.
	Slots int
	// Baseline is the forecast non-flexible net position per slot (kWh):
	// non-flexible consumption minus RES production. Positive values are
	// energy deficits, negative values surpluses.
	Baseline []float64
	// ImbalancePrice is the per-slot penalty (EUR/kWh) for remaining
	// mismatches; peak slots cost more (paper: "mismatches at peak
	// periods cost the BRP more than at other periods").
	ImbalancePrice []float64
	// Offers are the (typically aggregated) flex-offers to place.
	Offers []*flexoffer.FlexOffer
	// Market is the trading counterpart; nil disables trading.
	Market *market.DayAhead
}

// Validate checks the instance is well-formed: baseline and imbalance
// prices finite and one per slot, and every offer fitting the horizon.
func (p *Problem) Validate() error {
	if p.Slots <= 0 {
		return fmt.Errorf("sched: non-positive horizon %d", p.Slots)
	}
	if len(p.Baseline) != p.Slots {
		return fmt.Errorf("sched: baseline has %d slots, horizon %d", len(p.Baseline), p.Slots)
	}
	if len(p.ImbalancePrice) != p.Slots {
		return fmt.Errorf("sched: imbalance prices have %d slots, horizon %d", len(p.ImbalancePrice), p.Slots)
	}
	// A non-finite slot makes every candidate cost NaN or +Inf, so no
	// restart ever improves on +Inf and the search ends without a
	// solution.
	for t := range p.Baseline {
		if v := p.Baseline[t]; math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("sched: baseline slot %d is %v", t, v)
		}
		if v := p.ImbalancePrice[t]; math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("sched: imbalance price of slot %d is %v", t, v)
		}
	}
	end := p.Start + flexoffer.Time(p.Slots)
	for _, f := range p.Offers {
		if err := f.Validate(); err != nil {
			return err
		}
		// An offer whose EarliestStart lies before the horizon is still
		// schedulable as long as its clamped window (StartWindow) is
		// non-empty: the strategies never place a start before p.Start.
		if f.LatestStart < p.Start || f.LatestEnd() > end {
			return fmt.Errorf("sched: offer %d [%d, %d) outside horizon [%d, %d)",
				f.ID, f.EarliestStart, f.LatestEnd(), p.Start, end)
		}
	}
	return nil
}

// StartWindow returns the start range the planner may use for f:
// [max(f.EarliestStart, p.Start), f.LatestStart]. The lower clamp keeps
// placements out of the past — an offer whose EarliestStart has already
// passed (EarliestStart < Start ≤ LatestStart) is still schedulable in
// the remainder of its window instead of being dropped.
func (p *Problem) StartWindow(f *flexoffer.FlexOffer) (lo, hi flexoffer.Time) {
	lo = f.EarliestStart
	if lo < p.Start {
		lo = p.Start
	}
	return lo, f.LatestStart
}

// Solution fixes one placement per offer, index-aligned with
// Problem.Offers.
type Solution struct {
	Placements []Placement
}

// Placement is the scheduled instantiation of one offer.
type Placement struct {
	Start  flexoffer.Time
	Energy []float64
}

// Schedules converts a solution into flex-offer schedules.
func (p *Problem) Schedules(sol *Solution) []*flexoffer.Schedule {
	out := make([]*flexoffer.Schedule, len(p.Offers))
	for i, f := range p.Offers {
		out[i] = &flexoffer.Schedule{
			OfferID: f.ID,
			Start:   sol.Placements[i].Start,
			Energy:  append([]float64(nil), sol.Placements[i].Energy...),
		}
	}
	return out
}

// ValidateSolution checks every placement against its offer's
// constraints.
func (p *Problem) ValidateSolution(sol *Solution) error {
	if len(sol.Placements) != len(p.Offers) {
		return fmt.Errorf("sched: %d placements for %d offers", len(sol.Placements), len(p.Offers))
	}
	for i, f := range p.Offers {
		s := &flexoffer.Schedule{OfferID: f.ID, Start: sol.Placements[i].Start, Energy: sol.Placements[i].Energy}
		if err := f.ValidateSchedule(s); err != nil {
			return err
		}
	}
	return nil
}

// net computes the per-slot net position of a solution: baseline plus all
// scheduled flex energy.
func (p *Problem) net(sol *Solution) []float64 {
	net := append([]float64(nil), p.Baseline...)
	for i := range p.Offers {
		pl := &sol.Placements[i]
		base := int(pl.Start - p.Start)
		for j, e := range pl.Energy {
			net[base+j] += e
		}
	}
	return net
}

// slotCost prices one slot's net position n: optimal market usage first
// (buy to cover deficits when cheaper than the imbalance penalty, sell
// surpluses when revenue beats the penalty), then the imbalance penalty
// on the residue.
func (p *Problem) slotCost(t int, n float64) float64 {
	imb := p.ImbalancePrice[t]
	if p.Market == nil {
		return imb * math.Abs(n)
	}
	q := p.Market.Quote(p.Start + flexoffer.Time(t))
	if n > 0 { // deficit: buy
		if q.BuyEUR >= imb {
			return imb * n
		}
		b := math.Min(n, q.CapacityKWh)
		return b*q.BuyEUR + (n-b)*imb
	}
	surplus := -n
	if q.SellEUR <= -imb { // dumping costs more than the penalty
		return imb * surplus
	}
	s := math.Min(surplus, q.CapacityKWh)
	return -s*q.SellEUR + (surplus-s)*imb
}

// offerCost is the activation cost of a placement: the energy-weighted
// price the BRP pays the prosumers behind the offer.
func offerCost(f *flexoffer.FlexOffer, energy []float64) float64 {
	var e float64
	for _, v := range energy {
		e += math.Abs(v)
	}
	return e * f.CostPerKWh
}

// Evaluate returns the total schedule cost (EUR): mismatch costs plus
// flex-offer costs plus market costs. Lower is better; revenue from
// selling surplus RES can make the total negative.
func (p *Problem) Evaluate(sol *Solution) float64 {
	net := p.net(sol)
	var cost float64
	for t, n := range net {
		cost += p.slotCost(t, n)
	}
	for i, f := range p.Offers {
		cost += offerCost(f, sol.Placements[i].Energy)
	}
	return cost
}

// BaselineCost is the cost with no flex-offer scheduled at its default
// placement — the reference the negotiation component shares realized
// profits against. Every offer executes its fallback default schedule
// (earliest start — clamped into the horizon — and maximum energy).
func (p *Problem) BaselineCost() float64 {
	sol := &Solution{Placements: make([]Placement, len(p.Offers))}
	for i, f := range p.Offers {
		d := f.DefaultSchedule()
		if lo, _ := p.StartWindow(f); d.Start < lo {
			d.Start = lo
		}
		sol.Placements[i] = Placement{Start: d.Start, Energy: d.Energy}
	}
	return p.Evaluate(sol)
}

// CountSolutions returns the number of start-time combinations of the
// instance (the paper's measure of the search space: "almost 850 million
// sensible solutions" for 10 flex-offers); energy flexibility adds an
// infinite continuum on top. Each offer contributes its clamped start
// window (StartWindow) — the range the strategies actually explore —
// not its raw TimeFlexibility, which overcounts when EarliestStart lies
// before the planning horizon.
func (p *Problem) CountSolutions() float64 {
	count := 1.0
	for _, f := range p.Offers {
		lo, hi := p.StartWindow(f)
		count *= float64(hi-lo) + 1
	}
	return count
}
