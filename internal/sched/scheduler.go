package sched

import (
	"context"
	"errors"
	"math"
	"time"
)

// TracePoint is one entry of a scheduler convergence trace (the data
// behind the paper's Figure 6 cost-over-time curves).
type TracePoint struct {
	Elapsed    time.Duration
	Iterations int
	Cost       float64
}

// Result is the outcome of one scheduler run.
type Result struct {
	Solution   *Solution
	Cost       float64
	Iterations int
	Trace      []TracePoint
}

// Options bound a scheduler run.
type Options struct {
	// TimeBudget stops the search after this wall-clock duration
	// (default 1s). A search checks it between iterations, so it
	// overruns by at most one iteration; the greedy restarts run on
	// several workers, each of which may finish one restart past it.
	TimeBudget time.Duration
	// MaxIterations additionally bounds the iteration count (0 = none).
	// One iteration is, per strategy:
	//   - RandomizedGreedy (GS): one constructed schedule, a restart;
	//   - Evolutionary (EA): one generation;
	//   - Hybrid (HYB): one seeding construction or one generation;
	//   - Sweep (SW): one pass over the offers, a construction or a
	//     sweep; Sweep also ends on its own, so the bound only caps it;
	//   - Exhaustive: not bounded; every enumerated schedule counts.
	MaxIterations int
	// Seed makes the stochastic search reproducible.
	Seed int64
	// TraceEvery records a trace point every N iterations (0 = only the
	// final point).
	TraceEvery int
}

func (o Options) budget() time.Duration {
	if o.TimeBudget <= 0 {
		return time.Second
	}
	return o.TimeBudget
}

// Scheduler is a scheduling strategy.
type Scheduler interface {
	// Name identifies the strategy in experiment output.
	Name() string
	// Schedule searches for a low-cost solution of p within opt's
	// budget. Cancelling ctx stops the search promptly: the strategy
	// returns the best solution found so far (which may be nil if no
	// iteration completed) together with ctx.Err(). A budget that runs
	// out before the first iteration completes gives ErrNoSolution. A
	// nil error always means a run that terminated by its own budget
	// with a non-nil Solution.
	Schedule(ctx context.Context, p *Problem, opt Options) (Result, error)
}

// ErrNoSolution is the error of a search whose budget ran out before
// it built its first schedule, so its Result has no Solution.
var ErrNoSolution = errors.New("sched: the budget ran out before the first schedule was built")

// tracker accumulates the best solution and trace across iterations.
type tracker struct {
	ctx      context.Context
	start    time.Time
	deadline time.Time
	maxIter  int
	every    int

	iter  int
	best  *Solution
	cost  float64
	trace []TracePoint
}

func newTracker(ctx context.Context, opt Options) *tracker {
	t := &tracker{
		ctx:     ctx,
		start:   time.Now(),
		maxIter: opt.MaxIterations,
		every:   opt.TraceEvery,
		cost:    math.Inf(1),
	}
	t.deadline = t.start.Add(opt.budget())
	return t
}

func (t *tracker) exhausted() bool {
	if t.ctx != nil && t.ctx.Err() != nil {
		return true
	}
	if t.maxIter > 0 && t.iter >= t.maxIter {
		return true
	}
	return time.Now().After(t.deadline)
}

// observe records a completed iteration. mk materializes the candidate
// solution and is only called when cost improves on the best so far —
// the hot loop never allocates for non-improving candidates. The
// returned solution is retained as-is, so mk must hand over a fresh or
// cloned solution, never a live scratch buffer.
func (t *tracker) observe(cost float64, mk func() *Solution) {
	t.iter++
	if cost < t.cost {
		t.cost = cost
		t.best = mk()
	}
	if t.every > 0 && t.iter%t.every == 0 {
		t.trace = append(t.trace, TracePoint{Elapsed: time.Since(t.start), Iterations: t.iter, Cost: t.cost})
	}
}

func (t *tracker) result() Result {
	t.trace = append(t.trace, TracePoint{Elapsed: time.Since(t.start), Iterations: t.iter, Cost: t.cost})
	return Result{Solution: t.best, Cost: t.cost, Iterations: t.iter, Trace: t.trace}
}

// done ends a budgeted search: its result, with ctx.Err() if ctx was
// cancelled, ErrNoSolution if no iteration built a schedule, nil
// otherwise.
func (t *tracker) done() (Result, error) {
	res := t.result()
	if err := t.ctx.Err(); err != nil {
		return res, err
	}
	if res.Solution == nil {
		return res, ErrNoSolution
	}
	return res, nil
}

func cloneSolution(s *Solution) *Solution {
	out := &Solution{Placements: make([]Placement, len(s.Placements))}
	for i, pl := range s.Placements {
		out.Placements[i] = Placement{Start: pl.Start, Energy: append([]float64(nil), pl.Energy...)}
	}
	return out
}
