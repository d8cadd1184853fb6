package sched

import (
	"context"
	"testing"
	"time"
)

// requireSameResult fails unless got is want float for float: every
// start and energy, the cost, the iteration count and the trace's
// (Iterations, Cost) points. Elapsed times are wall clock and differ.
func requireSameResult(t *testing.T, name string, got, want Result) {
	t.Helper()
	if got.Cost != want.Cost || got.Iterations != want.Iterations {
		t.Fatalf("%s: cost %v after %d iterations, want %v after %d", name, got.Cost, got.Iterations, want.Cost, want.Iterations)
	}
	if len(got.Trace) != len(want.Trace) {
		t.Fatalf("%s: %d trace points, want %d", name, len(got.Trace), len(want.Trace))
	}
	for i, tp := range got.Trace {
		if w := want.Trace[i]; tp.Iterations != w.Iterations || tp.Cost != w.Cost {
			t.Fatalf("%s: trace[%d] = (%d, %v), want (%d, %v)", name, i, tp.Iterations, tp.Cost, w.Iterations, w.Cost)
		}
	}
	for i, pl := range got.Solution.Placements {
		w := want.Solution.Placements[i]
		if pl.Start != w.Start {
			t.Fatalf("%s: offer %d start %d, want %d", name, i, pl.Start, w.Start)
		}
		for j, e := range pl.Energy {
			if e != w.Energy[j] {
				t.Fatalf("%s: offer %d slice %d energy %v, want %v", name, i, j, e, w.Energy[j])
			}
		}
	}
}

// TestGreedyRestartsAllocFree: a Schedule call allocates the same at
// 2,000 restarts as at 100. One offer with a single feasible start
// makes every restart cost the same, so only the first improves and no
// later restart has a reason to clone.
func TestGreedyRestartsAllocFree(t *testing.T) {
	p := tinyProblem()
	p.Offers[0].LatestStart = p.Offers[0].EarliestStart
	g := &RandomizedGreedy{}
	allocs := func(iters int) float64 {
		return testing.AllocsPerRun(20, func() {
			if _, err := g.Schedule(context.Background(), p, Options{MaxIterations: iters, Seed: 1, TimeBudget: time.Hour}); err != nil {
				t.Fatal(err)
			}
		})
	}
	if short, long := allocs(100), allocs(2000); long != short {
		t.Errorf("a Schedule call allocates %v objects at 2000 restarts, %v at 100", long, short)
	}
}
