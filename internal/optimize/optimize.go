// Package optimize implements the parameter estimators that the MIRABEL
// forecasting component uses to fit forecast models: the local
// Nelder-Mead downhill simplex [Nelder & Mead 1965] and the global
// strategies compared in the paper's Figure 4a — Random-Restart
// Nelder-Mead, Simulated Annealing [Bertsimas & Tsitsiklis 1993] and
// Random Search.
//
// All estimators minimize a black-box objective over a box-constrained
// domain and record a convergence trace (best objective value over
// evaluations and wall time) so the accuracy-vs-efficiency experiment can
// be regenerated.
package optimize

import (
	"math"
	"math/rand"
	"time"
)

// Objective is a function to minimize. Implementations must be safe to
// call repeatedly with different arguments; an estimator calls it from
// one goroutine.
type Objective func(x []float64) float64

// Bounds is a box constraint: Lo[i] ≤ x[i] ≤ Hi[i].
type Bounds struct {
	Lo, Hi []float64
}

// Dim returns the dimensionality of the box.
func (b Bounds) Dim() int { return len(b.Lo) }

// Clamp projects x into the box in place and returns it.
func (b Bounds) Clamp(x []float64) []float64 {
	for i := range x {
		if x[i] < b.Lo[i] {
			x[i] = b.Lo[i]
		}
		if x[i] > b.Hi[i] {
			x[i] = b.Hi[i]
		}
	}
	return x
}

// Random returns a uniformly random point inside the box.
func (b Bounds) Random(rng *rand.Rand) []float64 {
	x := make([]float64, b.Dim())
	for i := range x {
		x[i] = b.Lo[i] + rng.Float64()*(b.Hi[i]-b.Lo[i])
	}
	return x
}

// UnitBounds returns [0,1]^dim, the natural domain of exponential
// smoothing constants.
func UnitBounds(dim int) Bounds {
	lo := make([]float64, dim)
	hi := make([]float64, dim)
	for i := range hi {
		hi[i] = 1
	}
	return Bounds{Lo: lo, Hi: hi}
}

// TracePoint is one entry of a convergence trace.
type TracePoint struct {
	Evaluations int           // objective evaluations so far
	Elapsed     time.Duration // wall time since the estimator started
	Best        float64       // best objective value found so far
}

// Result is the outcome of one estimator run.
type Result struct {
	X           []float64    // best point found
	Value       float64      // objective at X
	Evaluations int          // total objective evaluations
	Trace       []TracePoint // convergence trace (if Options.TraceEvery > 0)
}

// Options control an estimator run. The run stops when either budget is
// exhausted (whichever comes first); a zero budget means "unlimited".
type Options struct {
	MaxEvaluations int           // evaluation budget (0 = default 2000·dim)
	TimeBudget     time.Duration // wall-clock budget (0 = none)
	Seed           int64         // PRNG seed for reproducibility
	TraceEvery     int           // record a trace point every N evaluations (0 = off)
}

func (o Options) maxEvals(dim int) int {
	if o.MaxEvaluations > 0 {
		return o.MaxEvaluations
	}
	return 2000 * dim
}

// Estimator is a minimization strategy.
type Estimator interface {
	// Name identifies the strategy in experiment output.
	Name() string
	// Minimize searches for the minimum of obj inside b.
	Minimize(obj Objective, b Bounds, opt Options) Result
}

// budget tracks evaluations, time and the incumbent, and builds the trace.
type budget struct {
	obj      Objective
	start    time.Time
	deadline time.Time
	maxEval  int
	every    int

	evals int
	bestX []float64
	bestV float64
	trace []TracePoint
}

func newBudget(obj Objective, dim int, opt Options) *budget {
	b := &budget{
		obj:     obj,
		start:   time.Now(),
		maxEval: opt.maxEvals(dim),
		every:   opt.TraceEvery,
		bestV:   math.Inf(1),
	}
	if opt.TimeBudget > 0 {
		b.deadline = b.start.Add(opt.TimeBudget)
	}
	return b
}

// exhausted reports whether either budget ran out.
func (b *budget) exhausted() bool {
	if b.evals >= b.maxEval {
		return true
	}
	if !b.deadline.IsZero() && time.Now().After(b.deadline) {
		return true
	}
	return false
}

// eval evaluates the objective, tracking the incumbent and trace.
func (b *budget) eval(x []float64) float64 {
	v := b.obj(x)
	b.evals++
	if v < b.bestV || b.bestX == nil {
		b.bestV = v
		b.bestX = append(b.bestX[:0], x...)
	}
	if b.every > 0 && b.evals%b.every == 0 {
		b.trace = append(b.trace, TracePoint{
			Evaluations: b.evals,
			Elapsed:     time.Since(b.start),
			Best:        b.bestV,
		})
	}
	return v
}

func (b *budget) result() Result {
	// Always close the trace with the final incumbent.
	if b.every > 0 {
		b.trace = append(b.trace, TracePoint{
			Evaluations: b.evals,
			Elapsed:     time.Since(b.start),
			Best:        b.bestV,
		})
	}
	return Result{X: b.bestX, Value: b.bestV, Evaluations: b.evals, Trace: b.trace}
}
