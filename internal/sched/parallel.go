package sched

import (
	"context"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Parallel is a portfolio scheduler: K workers search the same problem
// on separate goroutines, each running one strategy of the portfolio
// with its own deterministic RNG stream, publishing improvements to a
// shared incumbent. Within the same wall-clock budget the portfolio
// evaluates K× the candidates of a single-threaded run and hedges
// across strategies — the paper's Figure 6 quality-at-budget curves
// shift left by roughly the worker count.
//
// Determinism: worker seeds derive from Options.Seed with a splitmix64
// stream, workers never read the shared incumbent (it only collects
// results), and the final winner is picked by (cost, worker index) —
// so an iteration-bounded run returns the same best cost every time.
// Each worker's strategy runs on that worker's goroutine alone: GS and
// HYB run their restarts inline instead of on every core.
type Parallel struct {
	// Workers is the goroutine count (default runtime.GOMAXPROCS(0)).
	Workers int
	// Strategies is the portfolio cycled across workers (default
	// Hybrid, EA, randomized greedy). Entries are shared between runs,
	// not between workers: each worker calls its strategy's Schedule
	// once, and all shipped strategies are stateless.
	Strategies []Scheduler
}

// Name implements Scheduler.
func (pl *Parallel) Name() string { return "PAR" }

// Schedule implements Scheduler: it fans the search out over the
// worker pool and returns the best solution any worker found.
// Cancelling ctx stops every worker promptly; the shared incumbent
// still carries the best solution seen so far.
func (pl *Parallel) Schedule(ctx context.Context, p *Problem, opt Options) (Result, error) {
	if err := p.Validate(); err != nil {
		return Result{}, err
	}
	k := pl.Workers
	if k <= 0 {
		k = runtime.GOMAXPROCS(0)
	}
	strats := pl.Strategies
	if len(strats) == 0 {
		strats = []Scheduler{&Hybrid{}, &Evolutionary{}, &RandomizedGreedy{}}
	}

	in := newIncumbent()
	results := make([]Result, k)
	var wg sync.WaitGroup
	for w := 0; w < k; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wopt := opt
			wopt.Seed = workerSeed(opt.Seed, w)
			wopt.TraceEvery = 0 // the merged trace comes from the incumbent
			wopt.shared = in
			// Worker errors are context errors: the problem validated
			// above, and a canceled worker still reports its best.
			results[w], _ = strats[w%len(strats)].Schedule(ctx, p, wopt)
		}(w)
	}
	wg.Wait()

	best := Result{Cost: math.Inf(1)}
	iters := 0
	for _, r := range results {
		iters += r.Iterations
		if r.Solution != nil && r.Cost < best.Cost {
			best = r
		}
	}
	trace := append(in.traceSnapshot(), TracePoint{Elapsed: in.elapsed(), Iterations: iters, Cost: best.Cost})
	return Result{Solution: best.Solution, Cost: best.Cost, Iterations: iters, Trace: trace}, ctx.Err()
}

// workerSeed derives worker w's RNG stream from the run seed via a
// splitmix64 step, so streams are decorrelated yet fully determined by
// (Seed, w).
func workerSeed(seed int64, w int) int64 {
	z := uint64(seed) + uint64(w+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// incumbent is the portfolio's shared best-so-far. Trackers publish
// improvements through offer; the cost gate is an atomic
// compare-and-swap so non-improving candidates (the overwhelming
// majority) never touch the mutex.
type incumbent struct {
	bits  atomic.Uint64 // math.Float64bits of the best published cost
	start time.Time

	mu    sync.Mutex
	cost  float64
	sol   *Solution
	trace []TracePoint
}

func newIncumbent() *incumbent {
	in := &incumbent{start: time.Now(), cost: math.Inf(1)}
	in.bits.Store(math.Float64bits(math.Inf(1)))
	return in
}

// offer publishes an improvement. sol is retained as-is: callers pass
// solutions they never mutate afterwards (tracker bests), so no copy is
// needed. Losing the CAS race means another worker published something
// at least as good — the update is simply dropped.
func (in *incumbent) offer(cost float64, sol *Solution) {
	for {
		cur := in.bits.Load()
		if cost >= math.Float64frombits(cur) {
			return
		}
		if in.bits.CompareAndSwap(cur, math.Float64bits(cost)) {
			break
		}
	}
	in.mu.Lock()
	// Re-check under the mutex: a CAS winner with a worse cost may take
	// the lock after a better one, and must not regress the record.
	if cost < in.cost {
		in.cost = cost
		in.sol = sol
		in.trace = append(in.trace, TracePoint{Elapsed: time.Since(in.start), Cost: cost})
	}
	in.mu.Unlock()
}

// traceSnapshot returns a copy of the improvement trace so far.
func (in *incumbent) traceSnapshot() []TracePoint {
	in.mu.Lock()
	defer in.mu.Unlock()
	return append([]TracePoint(nil), in.trace...)
}

func (in *incumbent) elapsed() time.Duration { return time.Since(in.start) }
