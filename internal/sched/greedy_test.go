package sched

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
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

// TestGreedyRestartsMatchSerial: the restart loop returns the same
// floats at any worker count. GOMAXPROCS 1 runs it inline on the
// calling goroutine, which is the serial loop; 2, 3 and 8 run it on
// that many workers (8 oversubscribes any small machine, so workers
// finish far out of restart order).
func TestGreedyRestartsMatchSerial(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, withMarket := range []bool{false, true} {
		p := marketScenario(t, 12, 31)
		if !withMarket {
			p.Market = nil
		}
		for _, s := range []Scheduler{&RandomizedGreedy{Fill: FillGreedy}, &RandomizedGreedy{Fill: FillMidpoint}, &Hybrid{}} {
			for _, iters := range []int{1, 7, 200, 1001} {
				opt := Options{MaxIterations: iters, Seed: 41, TraceEvery: 10, TimeBudget: time.Hour}
				runtime.GOMAXPROCS(1)
				want, err := s.Schedule(context.Background(), p, opt)
				if err != nil {
					t.Fatal(err)
				}
				for _, procs := range []int{2, 3, 8} {
					runtime.GOMAXPROCS(procs)
					got, err := s.Schedule(context.Background(), p, opt)
					if err != nil {
						t.Fatal(err)
					}
					name := fmt.Sprintf("%s market=%v iters=%d procs=%d", s.Name(), withMarket, iters, procs)
					if g, ok := s.(*RandomizedGreedy); ok {
						name += fmt.Sprintf(" fill=%d", g.Fill)
					}
					requireSameResult(t, name, got, want)
				}
			}
		}
	}
}

// TestGreedyRestartsAllocFree: a Schedule call allocates the same at
// 2 000 restarts as at 100, inline and on workers. One offer with a
// single feasible start makes every restart cost the same, so only the
// first improves and no later restart has a reason to clone.
// testing.AllocsPerRun would force GOMAXPROCS 1, so the test counts
// heap objects itself, as runtime.MemStats.Mallocs deltas: unlike a
// memory profile, they include the tiny allocator's objects. The count
// is the whole process's, and the runtime allocates on a worker's
// behalf: a worker that parks on the loop's mutex takes a sudog from
// its P's cache and may return it to the other P's, so under load one
// P can allocate a sudog in every long call until the other P's cache
// fills (128) and spills to the shared list. A call is therefore
// measured as its fewest objects over 300 runs, more than such a drain
// lasts.
func TestGreedyRestartsAllocFree(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	p := tinyProblem()
	p.Offers[0].LatestStart = p.Offers[0].EarliestStart
	g := &RandomizedGreedy{}
	allocs := func(iters int) uint64 {
		call := func() {
			if _, err := g.Schedule(context.Background(), p, Options{MaxIterations: iters, Seed: 1, TimeBudget: time.Hour}); err != nil {
				t.Fatal(err)
			}
		}
		call() // warm up
		fewest := uint64(math.MaxUint64)
		var before, after runtime.MemStats
		for run := 0; run < 300; run++ {
			runtime.ReadMemStats(&before)
			call()
			runtime.ReadMemStats(&after)
			fewest = min(fewest, after.Mallocs-before.Mallocs)
		}
		return fewest
	}
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		if short, long := allocs(100), allocs(2000); long != short {
			t.Errorf("GOMAXPROCS %d: a Schedule call allocates %d objects at 2000 restarts, %d at 100", procs, long, short)
		}
	}
}

// TestRestartLoopKnowsFinishedCosts drives one restart loop by hand on
// one goroutine. A restart's clone decision is taken once its
// construction is done, against every earlier restart finished by
// then: restart 1, drawn before restart 0 finished, must not clone at
// restart 0's cost, nor restart 3 at the cost of restart 2, which is
// finished but not yet observed.
func TestRestartLoopKnowsFinishedCosts(t *testing.T) {
	ctx := context.Background()
	l := &restartLoop{
		ctx: ctx, rng: rand.New(rand.NewSource(1)), tr: newTracker(ctx, Options{}),
		limit: 8, deadline: time.Now().Add(time.Hour),
		order: []int{0, 1, 2},
		ring:  make([]restartOutcome, 8),
	}
	l.advanced.L = &l.mu
	order := make([]int, len(l.order))
	for want := 0; want < 4; want++ {
		if k, ok := l.start(order); !ok || k != want {
			t.Fatalf("start = %d, %v; want restart %d", k, ok, want)
		}
	}

	const c = 10.0
	if !l.improves(0, c) {
		t.Fatal("restart 0 with nothing known before it must improve")
	}
	l.finish(0, c, &Solution{})
	if l.observed != 1 || l.tr.cost != c {
		t.Fatalf("after finishing restart 0: observed %d, best %v", l.observed, l.tr.cost)
	}
	for _, cost := range []float64{c, c + 1} {
		if l.improves(1, cost) {
			t.Errorf("restart 1 at cost %v clones; restart 0 already finished at %v", cost, c)
		}
	}

	l.finish(2, c-2, &Solution{}) // ready, unobserved: restart 1 is still running
	if l.observed != 1 {
		t.Fatalf("restart 2 observed before restart 1: observed %d", l.observed)
	}
	if l.improves(3, c-2) {
		t.Errorf("restart 3 at cost %v clones; restart 2 already finished at it", c-2)
	}
	if !l.improves(1, c-1) || !l.improves(3, c-3) {
		t.Error("a restart that beats every earlier finished cost must clone")
	}
}
