//go:build !race

package optimize

import "testing"

// The race detector instruments allocations, so the pin only runs in
// plain builds.

// TestNelderMeadStepAllocFree: a descent allocates its vectors up front
// and nothing per iteration, so ten times the iterations cost exactly
// the same number of allocations.
func TestNelderMeadStepAllocFree(t *testing.T) {
	b := UnitBounds(4)
	nm := &NelderMead{}
	// A value that keeps changing under the simplex never lets it
	// converge: the budget ends the run, and shrinks get exercised.
	calls := 0
	restless := func(x []float64) float64 {
		calls++
		return rosenbrock(x) + 1e-3*float64(calls%7)
	}
	allocs := func(evals int) (float64, int) {
		ran := 0
		n := testing.AllocsPerRun(20, func() {
			ran = nm.Minimize(restless, b, Options{MaxEvaluations: evals}).Evaluations
		})
		return n, ran
	}
	short, shortEvals := allocs(200)
	long, longEvals := allocs(2000)
	if longEvals < 5*shortEvals {
		t.Fatalf("long run made %d evaluations, short run %d: the descent converged early", longEvals, shortEvals)
	}
	if long != short {
		t.Fatalf("%d evaluations allocate %.0f times, %d evaluations %.0f: %.3f allocations per extra evaluation, want 0",
			longEvals, long, shortEvals, short, (long-short)/float64(longEvals-shortEvals))
	}
}
