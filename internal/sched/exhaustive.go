package sched

import (
	"context"
	"fmt"
)

// Exhaustive enumerates every start-time combination with fixed energies
// and returns the true optimum over that (finite) space. It reproduces
// the paper's optimality probe: "in a preliminary experiment with 10
// flex-offers without energy constraints it took almost three hours to
// explore all (almost 850 million) sensible solutions". Energy amounts
// are fixed per slice (midpoints), because with energy flexibility "an
// infinite number of possible solutions may exist" and no finite
// enumeration is possible.
type Exhaustive struct {
	// Limit aborts instances with more start combinations than this
	// (default 1e7 — minutes, not the paper's three hours).
	Limit float64
}

// Name implements Scheduler.
func (x *Exhaustive) Name() string { return "Exhaustive" }

// Schedule implements Scheduler. Options are ignored except for tracing:
// the enumeration runs to completion unless ctx is canceled (a partial
// enumeration is not the optimum, so cancellation returns ctx.Err()).
func (x *Exhaustive) Schedule(ctx context.Context, p *Problem, opt Options) (Result, error) {
	if err := p.Validate(); err != nil {
		return Result{}, err
	}
	limit := x.Limit
	if limit <= 0 {
		limit = 1e7
	}
	if c := p.CountSolutions(); c > limit {
		return Result{}, fmt.Errorf("sched: %g start combinations exceed the exhaustive limit %g", c, limit)
	}
	comp, err := Compile(p) // compiled quote table for the leaf costs
	if err != nil {
		return Result{}, err
	}

	// Fixed midpoint energies per offer.
	energies := make([][]float64, len(p.Offers))
	for i, f := range p.Offers {
		e := make([]float64, len(f.Profile))
		for j, sl := range f.Profile {
			e[j] = (sl.EnergyMin + sl.EnergyMax) / 2
		}
		energies[i] = e
	}

	tr := newTracker(nil, Options{TimeBudget: 1 << 40, TraceEvery: opt.TraceEvery}) // no deadline: exact enumeration
	net := append([]float64(nil), p.Baseline...)
	sol := &Solution{Placements: make([]Placement, len(p.Offers))}
	mk := func() *Solution { return cloneSolution(sol) }

	// Activation costs are placement-independent with fixed energies.
	var actCost float64
	for i, f := range p.Offers {
		actCost += offerCost(f, energies[i])
		sol.Placements[i] = Placement{Energy: energies[i]}
	}

	canceled := false
	var recurse func(i int)
	recurse = func(i int) {
		if i == len(p.Offers) {
			var cost float64
			for t, n := range net {
				cost += comp.slotCost(t, n)
			}
			tr.observe(cost+actCost, mk)
			// ctx.Err is a synchronized load; amortize it over leaves.
			if tr.iter&1023 == 0 && ctx.Err() != nil {
				canceled = true
			}
			return
		}
		f := p.Offers[i]
		lo, hi := p.StartWindow(f)
		for start := lo; start <= hi && !canceled; start++ {
			base := int(start - p.Start)
			for j, e := range energies[i] {
				net[base+j] += e
			}
			sol.Placements[i].Start = start
			recurse(i + 1)
			for j, e := range energies[i] {
				net[base+j] -= e
			}
		}
	}
	recurse(0)
	return tr.result(), ctx.Err()
}
