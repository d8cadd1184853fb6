package optimize

import (
	"math"
	"testing"
	"testing/quick"
)

// sphere has its minimum 0 at the given center.
func sphere(center []float64) Objective {
	return func(x []float64) float64 {
		var s float64
		for i := range x {
			d := x[i] - center[i]
			s += d * d
		}
		return s
	}
}

// rastrigin is a classic multimodal test function, minimum 0 at origin.
func rastrigin(x []float64) float64 {
	s := 10 * float64(len(x))
	for _, v := range x {
		s += v*v - 10*math.Cos(2*math.Pi*v)
	}
	return s
}

func bounds2(lo, hi float64) Bounds {
	return Bounds{Lo: []float64{lo, lo}, Hi: []float64{hi, hi}}
}

func TestBoundsClamp(t *testing.T) {
	b := bounds2(0, 1)
	x := b.Clamp([]float64{-1, 2})
	if x[0] != 0 || x[1] != 1 {
		t.Errorf("Clamp = %v", x)
	}
}

func TestUnitBounds(t *testing.T) {
	b := UnitBounds(3)
	if b.Dim() != 3 || b.Hi[2] != 1 || b.Lo[0] != 0 {
		t.Errorf("UnitBounds = %+v", b)
	}
}

func TestNelderMeadConvergesOnSphere(t *testing.T) {
	nm := &NelderMead{}
	res := nm.Minimize(sphere([]float64{0.3, 0.7}), bounds2(0, 1), Options{MaxEvaluations: 2000, Seed: 1})
	if res.Value > 1e-8 {
		t.Errorf("NelderMead value = %g, want ~0", res.Value)
	}
	if math.Abs(res.X[0]-0.3) > 1e-3 || math.Abs(res.X[1]-0.7) > 1e-3 {
		t.Errorf("NelderMead X = %v", res.X)
	}
}

func TestNelderMeadRespectsOptimumOnBoundary(t *testing.T) {
	// Optimum outside the box: solution must sit on the boundary.
	nm := &NelderMead{}
	res := nm.Minimize(sphere([]float64{2, 2}), bounds2(0, 1), Options{MaxEvaluations: 3000})
	if math.Abs(res.X[0]-1) > 1e-3 || math.Abs(res.X[1]-1) > 1e-3 {
		t.Errorf("boundary X = %v, want [1 1]", res.X)
	}
}

func TestRandomSearchImproves(t *testing.T) {
	rs := RandomSearch{}
	res := rs.Minimize(sphere([]float64{0.5, 0.5}), bounds2(0, 1), Options{MaxEvaluations: 3000, Seed: 2})
	if res.Value > 0.05 {
		t.Errorf("RandomSearch value = %g, want small", res.Value)
	}
	if res.Evaluations != 3000 {
		t.Errorf("Evaluations = %d, want full budget", res.Evaluations)
	}
}

func TestSimulatedAnnealingOnRastrigin(t *testing.T) {
	sa := &SimulatedAnnealing{}
	res := sa.Minimize(rastrigin, bounds2(-5.12, 5.12), Options{MaxEvaluations: 20000, Seed: 3})
	if res.Value > 2.5 {
		t.Errorf("SA rastrigin value = %g, want < 2.5", res.Value)
	}
}

// TestSimulatedAnnealingStepShrinks: on a flat objective every move is
// accepted, so consecutive proposals differ by exactly the proposal
// step. With the default (probed) temperature that step must shrink as
// the system cools.
func TestSimulatedAnnealingStepShrinks(t *testing.T) {
	var xs [][]float64
	flat := func(x []float64) float64 {
		xs = append(xs, append([]float64(nil), x...))
		return 1
	}
	const evals = 1000
	(&SimulatedAnnealing{}).Minimize(flat, bounds2(-100, 100), Options{MaxEvaluations: evals, Seed: 12})
	if len(xs) != evals {
		t.Fatalf("%d evaluations, want %d", len(xs), evals)
	}
	// The start and the five temperature probes are not proposals.
	const proposalsFrom = 6
	meanStep := func(lo, hi int) float64 {
		var s float64
		for k := lo; k < hi; k++ {
			s += math.Hypot(xs[k][0]-xs[k-1][0], xs[k][1]-xs[k-1][1])
		}
		return s / float64(hi-lo)
	}
	fifth := evals / 5
	first, last := meanStep(proposalsFrom+1, fifth), meanStep(evals-fifth, evals)
	if last >= first/2 {
		t.Errorf("mean step %.3f over the last fifth, %.3f over the first: want under half", last, first)
	}
}

func TestRandomRestartNelderMeadBeatsSingleRunOnRastrigin(t *testing.T) {
	// A single NM descent from the box center gets stuck in a local
	// optimum of Rastrigin shifted off-center; restarts must do better
	// or equal.
	b := Bounds{Lo: []float64{-5.12, -5.12}, Hi: []float64{5.12, 5.12}}
	shifted := func(x []float64) float64 {
		return rastrigin([]float64{x[0] - 2.1, x[1] - 1.3})
	}
	nm := &NelderMead{Start: []float64{-4, -4}}
	single := nm.Minimize(shifted, b, Options{MaxEvaluations: 4000, Seed: 4})
	rr := &RandomRestartNelderMead{Local: NelderMead{Start: []float64{-4, -4}}}
	multi := rr.Minimize(shifted, b, Options{MaxEvaluations: 4000, Seed: 4})
	if multi.Value > single.Value+1e-9 {
		t.Errorf("RRNM %g worse than single NM %g", multi.Value, single.Value)
	}
	if multi.Value > 1.5 {
		t.Errorf("RRNM value = %g, want near 0", multi.Value)
	}
}

func TestTraceIsMonotoneNonIncreasing(t *testing.T) {
	for _, est := range []Estimator{
		&NelderMead{},
		RandomSearch{},
		&SimulatedAnnealing{},
		&RandomRestartNelderMead{},
	} {
		res := est.Minimize(rastrigin, bounds2(-5.12, 5.12), Options{MaxEvaluations: 2000, Seed: 5, TraceEvery: 50})
		if len(res.Trace) == 0 {
			t.Errorf("%s: empty trace", est.Name())
			continue
		}
		prev := math.Inf(1)
		for i, tp := range res.Trace {
			if tp.Best > prev+1e-12 {
				t.Errorf("%s: trace[%d] best %g > previous %g", est.Name(), i, tp.Best, prev)
			}
			prev = tp.Best
		}
		last := res.Trace[len(res.Trace)-1]
		if last.Best != res.Value {
			t.Errorf("%s: final trace %g != result %g", est.Name(), last.Best, res.Value)
		}
	}
}

func TestBudgetRespected(t *testing.T) {
	for _, est := range []Estimator{
		&NelderMead{},
		RandomSearch{},
		&SimulatedAnnealing{},
		&RandomRestartNelderMead{},
	} {
		res := est.Minimize(rastrigin, bounds2(-5, 5), Options{MaxEvaluations: 500})
		// NM may overshoot by at most one shrink loop (dim evaluations).
		if res.Evaluations > 505 {
			t.Errorf("%s: used %d evaluations for budget 500", est.Name(), res.Evaluations)
		}
	}
}

func TestDeterministicWithSeed(t *testing.T) {
	sa := &SimulatedAnnealing{}
	a := sa.Minimize(rastrigin, bounds2(-5, 5), Options{MaxEvaluations: 1000, Seed: 11})
	b := sa.Minimize(rastrigin, bounds2(-5, 5), Options{MaxEvaluations: 1000, Seed: 11})
	if a.Value != b.Value {
		t.Errorf("same seed, different results: %g vs %g", a.Value, b.Value)
	}
}

// Property: results always lie inside the bounds, for every estimator.
func TestPropertyResultInsideBounds(t *testing.T) {
	ests := []Estimator{&NelderMead{}, RandomSearch{}, &SimulatedAnnealing{}, &RandomRestartNelderMead{}}
	f := func(seed int64, c0, c1 float64) bool {
		c0 = math.Mod(math.Abs(c0), 3) - 1.5 // center possibly outside box
		c1 = math.Mod(math.Abs(c1), 3) - 1.5
		if math.IsNaN(c0) || math.IsNaN(c1) {
			return true
		}
		b := bounds2(0, 1)
		for _, est := range ests {
			res := est.Minimize(sphere([]float64{c0, c1}), b, Options{MaxEvaluations: 300, Seed: seed})
			for i, x := range res.X {
				if x < b.Lo[i]-1e-12 || x > b.Hi[i]+1e-12 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}
