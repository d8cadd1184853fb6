package optimize

import (
	"math/rand"
	"runtime"
	"sync"
	"time"
)

// ParallelRestartNelderMead runs several Nelder-Mead descents
// concurrently from random start points, sharing one evaluation budget.
// It implements the paper's research direction of "intra-model
// parallelizing, i.e., parallel parameter estimation of one model" (§5).
//
// The objective must be safe for concurrent calls (the HWT fitting
// objective is: an evaluation that finds the fit's scratch model taken
// replays a clone of its own).
type ParallelRestartNelderMead struct {
	// Workers is the number of concurrent descents (default GOMAXPROCS).
	Workers int
	// RestartEvaluations is the per-descent allowance (default 150·dim).
	RestartEvaluations int
	// Local configures the inner descents.
	Local NelderMead
}

// Name implements Estimator.
func (p *ParallelRestartNelderMead) Name() string { return "ParallelRestartNelderMead" }

// sharedBudget coordinates evaluations, the incumbent and the trace
// across workers.
type sharedBudget struct {
	mu       sync.Mutex
	start    time.Time
	deadline time.Time
	maxEval  int
	every    int

	evals int
	bestX []float64
	bestV float64
	trace []TracePoint
}

func (s *sharedBudget) exhausted() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.exhaustedLocked()
}

func (s *sharedBudget) exhaustedLocked() bool {
	if s.evals >= s.maxEval {
		return true
	}
	if !s.deadline.IsZero() && time.Now().After(s.deadline) {
		return true
	}
	return false
}

// observe records one evaluation outcome; it returns false when the
// budget ran out (the worker should stop).
func (s *sharedBudget) observe(x []float64, v float64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.evals++
	if v < s.bestV || s.bestX == nil {
		s.bestV = v
		s.bestX = append(s.bestX[:0], x...)
	}
	if s.every > 0 && s.evals%s.every == 0 {
		s.trace = append(s.trace, TracePoint{Evaluations: s.evals, Elapsed: time.Since(s.start), Best: s.bestV})
	}
	return !s.exhaustedLocked()
}

// Minimize implements Estimator.
func (p *ParallelRestartNelderMead) Minimize(obj Objective, b Bounds, opt Options) Result {
	workers := p.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	perRun := p.RestartEvaluations
	if perRun <= 0 {
		perRun = 150 * b.Dim()
	}
	shared := &sharedBudget{
		start:   time.Now(),
		maxEval: opt.maxEvals(b.Dim()),
		every:   opt.TraceEvery,
		bestV:   1e308,
	}
	if opt.TimeBudget > 0 {
		shared.deadline = shared.start.Add(opt.TimeBudget)
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(opt.Seed + int64(w)*7919))
			first := w == 0
			for !shared.exhausted() {
				// Each descent runs through a local budget that reports
				// every evaluation into the shared one and aborts as
				// soon as the shared budget runs dry.
				local := p.Local
				bud := &budget{
					start:   shared.start,
					maxEval: perRun,
					bestV:   1e308,
				}
				bud.obj = func(x []float64) float64 {
					v := obj(x)
					if !shared.observe(x, v) {
						bud.maxEval = 0 // stop this descent promptly
					}
					return v
				}
				var start []float64
				if first && p.Local.Start != nil {
					start = p.Local.Start
				} else if first {
					start = boxCenter(b)
				} else {
					start = b.Random(rng)
				}
				first = false
				local.run(bud, b, start)
			}
		}(w)
	}
	wg.Wait()

	shared.mu.Lock()
	defer shared.mu.Unlock()
	if shared.every > 0 {
		shared.trace = append(shared.trace, TracePoint{Evaluations: shared.evals, Elapsed: time.Since(shared.start), Best: shared.bestV})
	}
	return Result{X: shared.bestX, Value: shared.bestV, Evaluations: shared.evals, Trace: shared.trace}
}
