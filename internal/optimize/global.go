package optimize

import (
	"math"
	"math/rand"
)

// RandomSearch samples uniformly random points in the box and keeps the
// incumbent — the simplest global baseline in the paper's Figure 4a.
type RandomSearch struct{}

// Name implements Estimator.
func (RandomSearch) Name() string { return "RandomSearch" }

// Minimize implements Estimator.
func (RandomSearch) Minimize(obj Objective, b Bounds, opt Options) Result {
	bud := newBudget(obj, b.Dim(), opt)
	rng := rand.New(rand.NewSource(opt.Seed))
	for !bud.exhausted() {
		bud.eval(b.Random(rng))
	}
	return bud.result()
}

// SimulatedAnnealing is a classic Metropolis annealer with a geometric
// cooling schedule and Gaussian proposal moves scaled to the box extent
// [Bertsimas & Tsitsiklis 1993].
type SimulatedAnnealing struct {
	// InitialTemperature of the Metropolis criterion (default: estimated
	// from a short random probe of the objective).
	InitialTemperature float64
	// Cooling is the geometric decay factor per step (default 0.995).
	Cooling float64
	// StepScale is the proposal standard deviation relative to the box
	// extent (default 0.15, shrinking with temperature).
	StepScale float64
}

// Name implements Estimator.
func (sa *SimulatedAnnealing) Name() string { return "SimulatedAnnealing" }

// Minimize implements Estimator.
func (sa *SimulatedAnnealing) Minimize(obj Objective, b Bounds, opt Options) Result {
	bud := newBudget(obj, b.Dim(), opt)
	rng := rand.New(rand.NewSource(opt.Seed))
	dim := b.Dim()

	cooling := sa.Cooling
	if cooling <= 0 || cooling >= 1 {
		cooling = 0.995
	}
	stepScale := sa.StepScale
	if stepScale <= 0 {
		stepScale = 0.15
	}

	cur := b.Random(rng)
	curV := bud.eval(cur)

	temp := sa.InitialTemperature
	if temp <= 0 {
		// Probe the objective spread to pick a starting temperature that
		// accepts most moves initially.
		var spread float64
		probes := 0
		for ; probes < 5 && !bud.exhausted(); probes++ {
			v := bud.eval(b.Random(rng))
			spread += math.Abs(v - curV)
		}
		temp = spread/float64(max(probes, 1)) + 1e-9
	}
	t0 := temp

	next := make([]float64, dim)
	for !bud.exhausted() {
		// Proposal: Gaussian step, scale tied to the current temperature
		// so moves become local as the system cools (temp ≤ t0).
		frac := stepScale * (0.1 + 0.9*temp/t0)
		for i := range next {
			ext := b.Hi[i] - b.Lo[i]
			next[i] = cur[i] + rng.NormFloat64()*frac*ext
		}
		b.Clamp(next)
		nv := bud.eval(next)
		if nv <= curV || rng.Float64() < math.Exp(-(nv-curV)/math.Max(temp, 1e-12)) {
			copy(cur, next)
			curV = nv
		}
		temp *= cooling
	}
	return bud.result()
}
