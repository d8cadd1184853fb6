package optimize

import (
	"math/rand"
	"slices"
)

// NelderMead is the downhill simplex method of Nelder & Mead (1965), the
// local estimator of the MIRABEL forecasting component. Points proposed
// outside the bounds are clamped onto the box.
type NelderMead struct {
	// Start is the initial point; if nil, the box center is used.
	Start []float64
	// InitialStep is the simplex edge length relative to the box extent
	// (default 0.1).
	InitialStep float64
	// Tolerance terminates a run when the simplex value spread falls
	// below it (default 1e-9).
	Tolerance float64
}

// Name implements Estimator.
func (nm *NelderMead) Name() string { return "NelderMead" }

// Standard Nelder-Mead coefficients.
const (
	nmReflect  = 1.0
	nmExpand   = 2.0
	nmContract = 0.5
	nmShrink   = 0.5
)

// Minimize implements Estimator.
func (nm *NelderMead) Minimize(obj Objective, b Bounds, opt Options) Result {
	bud := newBudget(obj, b.Dim(), opt)
	start := nm.Start
	if start == nil {
		start = boxCenter(b)
	}
	nm.run(bud, b, start)
	return bud.result()
}

// vertex is one simplex corner and its objective value.
type vertex struct {
	x []float64
	v float64
}

// run executes one simplex descent from start until convergence or budget
// exhaustion. It is shared with RandomRestartNelderMead. All vectors the
// descent needs — the dim+1 vertices and one trial point each for
// reflection, expansion and contraction — are carved from one block up
// front; an accepted trial swaps storage with the vertex it replaces, so
// an iteration allocates nothing.
func (nm *NelderMead) run(bud *budget, b Bounds, start []float64) {
	dim := b.Dim()
	step := nm.InitialStep
	if step <= 0 {
		step = 0.1
	}
	tol := nm.Tolerance
	if tol <= 0 {
		tol = 1e-9
	}

	block := make([]float64, (dim+5)*dim)
	vec := func() []float64 {
		x := block[:dim:dim]
		block = block[dim:]
		return x
	}
	simplex := make([]vertex, dim+1)
	for i := range simplex {
		simplex[i].x = vec()
	}
	centroid, reflected, expanded, contracted := vec(), vec(), vec(), vec()

	base := simplex[0].x
	copy(base, start)
	b.Clamp(base)
	simplex[0].v = bud.eval(base)
	for i := 0; i < dim; i++ {
		x := simplex[i+1].x
		copy(x, base)
		x[i] += step * (b.Hi[i] - b.Lo[i])
		b.Clamp(x)
		if x[i] == base[i] { // clamped back onto the start: step the other way
			x[i] -= step * (b.Hi[i] - b.Lo[i])
			b.Clamp(x)
		}
		simplex[i+1].v = bud.eval(x)
		if bud.exhausted() {
			return
		}
	}

	// accept installs a trial point as the new worst vertex and hands the
	// displaced vector back as that trial's storage.
	accept := func(trial *[]float64, v float64) {
		simplex[dim].x, *trial = *trial, simplex[dim].x
		simplex[dim].v = v
	}
	for !bud.exhausted() {
		slices.SortFunc(simplex, func(a, b vertex) int {
			switch {
			case a.v < b.v:
				return -1
			case a.v > b.v:
				return 1
			}
			return 0
		})
		if simplex[dim].v-simplex[0].v < tol {
			return
		}
		// Centroid of all but the worst vertex.
		for j := range centroid {
			centroid[j] = 0
		}
		for i := 0; i < dim; i++ {
			for j, xv := range simplex[i].x {
				centroid[j] += xv
			}
		}
		for j := range centroid {
			centroid[j] /= float64(dim)
		}
		worst := simplex[dim]

		affine(reflected, centroid, worst.x, -nmReflect)
		b.Clamp(reflected)
		rv := bud.eval(reflected)
		switch {
		case rv < simplex[0].v:
			// Try to expand further along the same direction.
			affine(expanded, centroid, worst.x, -nmExpand)
			b.Clamp(expanded)
			ev := bud.eval(expanded)
			if ev < rv {
				accept(&expanded, ev)
			} else {
				accept(&reflected, rv)
			}
		case rv < simplex[dim-1].v:
			accept(&reflected, rv)
		default:
			// Contract toward the centroid.
			affine(contracted, centroid, worst.x, nmContract)
			b.Clamp(contracted)
			cv := bud.eval(contracted)
			if cv < worst.v {
				accept(&contracted, cv)
			} else {
				// Shrink the whole simplex toward the best vertex.
				for i := 1; i <= dim; i++ {
					for j := range simplex[i].x {
						simplex[i].x[j] = simplex[0].x[j] + nmShrink*(simplex[i].x[j]-simplex[0].x[j])
					}
					simplex[i].v = bud.eval(simplex[i].x)
					if bud.exhausted() {
						return
					}
				}
			}
		}
	}
}

// affine sets out to c + t·(x − c): t = −1 reflects x through c, t = 0.5
// contracts halfway.
func affine(out, c, x []float64, t float64) {
	for j := range out {
		out[j] = c[j] + t*(x[j]-c[j])
	}
}

func boxCenter(b Bounds) []float64 {
	c := make([]float64, b.Dim())
	for i := range c {
		c[i] = (b.Lo[i] + b.Hi[i]) / 2
	}
	return c
}

// RandomRestartNelderMead repeatedly runs Nelder-Mead descents from random
// start points until the budget is exhausted. This is the estimator the
// paper selects as its main global search strategy ("Random Restart
// Nelder Mead ... slightly beats both other algorithms").
type RandomRestartNelderMead struct {
	// RestartEvaluations is the per-descent evaluation allowance
	// (default 150·dim).
	RestartEvaluations int
	// Local configures the inner descents.
	Local NelderMead
}

// Name implements Estimator.
func (r *RandomRestartNelderMead) Name() string { return "RandomRestartNelderMead" }

// Minimize implements Estimator.
func (r *RandomRestartNelderMead) Minimize(obj Objective, b Bounds, opt Options) Result {
	bud := newBudget(obj, b.Dim(), opt)
	rng := rand.New(rand.NewSource(opt.Seed))
	perRun := r.RestartEvaluations
	if perRun <= 0 {
		perRun = 150 * b.Dim()
	}
	first := true
	for !bud.exhausted() {
		// Cap the inner run without disturbing the global deadline.
		innerMax := bud.evals + perRun
		if innerMax > bud.maxEval {
			innerMax = bud.maxEval
		}
		saved := bud.maxEval
		bud.maxEval = innerMax

		var start []float64
		if first && r.Local.Start != nil {
			start = r.Local.Start
		} else if first {
			start = boxCenter(b)
		} else {
			start = b.Random(rng)
		}
		first = false
		r.Local.run(bud, b, start)
		bud.maxEval = saved
	}
	return bud.result()
}
