package forecast

import (
	"sync"
	"sync/atomic"
)

// EvaluationStrategy decides when a maintained model's parameters need
// re-estimation (paper §5: "we offer different model evaluation
// strategies (e.g., time- or threshold-based)").
type EvaluationStrategy interface {
	// Observe is called for every observation with the symmetric relative
	// error |y−ŷ| / (|y|+|ŷ|) of the one-step forecast for the value
	// just consumed; it returns true when a parameter re-estimation
	// should be triggered.
	Observe(smape float64) bool
	// Reset is called after a re-estimation completed.
	Reset()
}

// TimeBased triggers a re-estimation every Every observations.
type TimeBased struct {
	Every int
	count int
}

// Observe implements EvaluationStrategy.
func (s *TimeBased) Observe(float64) bool {
	s.count++
	return s.Every > 0 && s.count >= s.Every
}

// Reset implements EvaluationStrategy.
func (s *TimeBased) Reset() { s.count = 0 }

// ThresholdBased triggers a re-estimation when the rolling SMAPE over
// Window observations exceeds Threshold.
type ThresholdBased struct {
	Threshold float64
	Window    int

	errs  []float64
	pos   int
	full  bool
	sum   float64 // running sum of errs — O(1) per observation
	wraps int     // window wraps since the last exact resync
}

// thresholdResyncEvery bounds the running sum's floating-point drift:
// every that many window wraps the sum is recomputed exactly.
const thresholdResyncEvery = 64

// Observe implements EvaluationStrategy. The rolling mean is maintained
// as a running sum (subtract the evicted error, add the new one), so the
// per-observation cost is O(1) instead of a full window scan.
func (s *ThresholdBased) Observe(smape float64) bool {
	if s.Window <= 0 {
		s.Window = 48
	}
	if s.errs == nil {
		s.errs = make([]float64, s.Window)
	}
	s.sum += smape - s.errs[s.pos]
	s.errs[s.pos] = smape
	s.pos = (s.pos + 1) % s.Window
	if s.pos == 0 {
		s.full = true
		s.wraps++
		if s.wraps%thresholdResyncEvery == 0 {
			var exact float64
			for _, e := range s.errs {
				exact += e
			}
			s.sum = exact
		}
	}
	if !s.full {
		return false
	}
	return s.sum/float64(s.Window) > s.Threshold
}

// Reset implements EvaluationStrategy.
func (s *ThresholdBased) Reset() {
	s.pos, s.full, s.sum, s.wraps = 0, false, 0, 0
	for i := range s.errs {
		s.errs[i] = 0
	}
}

// installedFit is a parameter vector produced by an asynchronous
// re-estimation, published for the next lock holder to swap in.
type installedFit struct {
	params []float64
}

// Maintainer wraps an HWT model with continuous maintenance: every new
// measurement updates the smoothing state (cheap, allocation-free), an
// evaluation strategy watches the one-step error, and when triggered the
// parameters are re-estimated — adapted by a local descent from the
// current parameters or a context-repository case once either exists
// (paper: "the model adaption exploits the context knowledge of previous
// model estimations in order to speed up this time-consuming process");
// see refitConfigLocked.
//
// When the strategy triggers, the maintainer *enqueues* a refit request
// on its registry's pool, whose worker refits against a snapshot of the
// history and publishes the new parameters through an atomic pointer,
// which the next update or Forecast swaps into the live model — so a
// refit never blocks updates or forecasts, which keep serving the
// stale-but-live model meanwhile.
type Maintainer struct {
	mu    sync.Mutex
	model *HWT

	// hist is a fixed-capacity ring of the retained history window —
	// appending an observation never allocates. histPos is the next
	// write slot; histLen saturates at len(hist).
	hist    []float64
	histPos int
	histLen int

	strategy EvaluationStrategy
	fitCfg   FitConfig
	repo     *ContextRepository // optional
	ctx      Context
	reEstims int

	// Re-estimation plumbing.
	enqueue       func() bool // registry hook: queue a refit request
	refitPending  atomic.Bool // a request is queued or running
	pendingFit    atomic.Pointer[installedFit]
	obsSinceRefit atomic.Int64 // staleness: observations since the last installed fit
}

// MaintainerConfig assembles a Maintainer.
type MaintainerConfig struct {
	Strategy EvaluationStrategy // nil: TimeBased every 2 longest periods
	FitCfg   FitConfig          // estimation budget for re-estimations
	Repo     *ContextRepository // optional parameter repository
	Ctx      Context            // context key for the repository
	// MaxHistory bounds the retained history window (default 4 longest
	// periods).
	MaxHistory int
}

// newMaintainer wraps a fitted model. history is the data the model was
// fitted on (retained, windowed, for re-estimation). When the evaluation
// strategy triggers, enqueue is called (once — guarded by refitPending)
// to queue a refit; it returns false when the refit queue is full, and
// the strategy stays armed and re-triggers.
func newMaintainer(model *HWT, history []float64, cfg MaintainerConfig, enqueue func() bool) *Maintainer {
	longest := longestPeriod(model.periods)
	if cfg.Strategy == nil {
		cfg.Strategy = &TimeBased{Every: 2 * longest}
	}
	if cfg.MaxHistory <= 0 {
		cfg.MaxHistory = 4 * longest
	}
	mt := &Maintainer{
		model:    model,
		hist:     make([]float64, cfg.MaxHistory),
		strategy: cfg.Strategy,
		fitCfg:   cfg.FitCfg,
		repo:     cfg.Repo,
		ctx:      cfg.Ctx,
		enqueue:  enqueue,
	}
	h := history
	if len(h) > cfg.MaxHistory {
		h = h[len(h)-cfg.MaxHistory:]
	}
	mt.histLen = copy(mt.hist, h)
	mt.histPos = mt.histLen % cfg.MaxHistory
	return mt
}

// histPush appends an observation to the ring window, allocation-free.
// Caller holds the lock.
func (mt *Maintainer) histPush(y float64) {
	mt.hist[mt.histPos] = y
	mt.histPos = (mt.histPos + 1) % len(mt.hist)
	if mt.histLen < len(mt.hist) {
		mt.histLen++
	}
}

// histOrdered materializes the window oldest-first into dst (grown as
// needed). Caller holds the lock.
func (mt *Maintainer) histOrdered(dst []float64) []float64 {
	dst = dst[:0]
	if mt.histLen < len(mt.hist) {
		return append(dst, mt.hist[:mt.histLen]...)
	}
	dst = append(dst, mt.hist[mt.histPos:]...)
	return append(dst, mt.hist[:mt.histPos]...)
}

// updateLocked consumes one observation: a cheap state update, plus a
// refit enqueue when the evaluation strategy demands one. Caller holds
// the lock.
func (mt *Maintainer) updateLocked(y float64) {
	mt.installPendingLocked()
	pred := mt.model.step(y)
	mt.histPush(y)
	mt.obsSinceRefit.Add(1)
	smape := 0.0
	if denom := abs(y) + abs(pred); denom > 0 {
		smape = abs(y-pred) / denom
	}
	if mt.strategy.Observe(smape) && mt.refitPending.CompareAndSwap(false, true) {
		if !mt.enqueue() {
			// Queue full: stand down so a later trigger retries.
			mt.refitPending.Store(false)
		}
	}
}

// installPendingLocked swaps asynchronously estimated parameters into
// the live model: the smoothing state the model accumulated while the
// refit ran is kept, only α/φ/γ change. Caller holds the lock.
func (mt *Maintainer) installPendingLocked() {
	fit := mt.pendingFit.Swap(nil)
	if fit == nil {
		return
	}
	if err := mt.model.SetParams(fit.params); err == nil {
		mt.strategy.Reset()
		mt.reEstims++
		mt.obsSinceRefit.Store(0)
	}
	mt.refitPending.Store(false)
}

// refitSnapshot captures everything a background worker needs to refit
// off-lock: the ordered history window and a warm-started fit config.
func (mt *Maintainer) refitSnapshot() (history []float64, periods []int, cfg FitConfig) {
	mt.mu.Lock()
	defer mt.mu.Unlock()
	return mt.histOrdered(nil), mt.model.periods, mt.refitConfigLocked()
}

// refitConfigLocked builds the fit configuration of the next
// re-estimation, the policy the sweeper's refits follow:
//
//   - Estimation: a series with no prior knowledge (no estimate installed
//     yet, no context-repository case) gets the global search, warm-started
//     from the model's default parameters.
//   - Adaptation: a series that has an installed estimate, or a repository
//     case, gets one local Nelder-Mead descent from those parameters (see
//     adaptation). On a maintained stream the optimum moves little between
//     consecutive re-estimations, so the descent converges in a few dozen
//     to a few hundred evaluations instead of spending the whole global
//     budget.
//
// An Estimator the caller configured is used as is, first time and
// later. Caller holds the lock.
func (mt *Maintainer) refitConfigLocked() FitConfig {
	cfg := mt.fitCfg
	cfg.Start = mt.model.Params()
	known := mt.reEstims > 0
	if mt.repo != nil {
		if p, ok := mt.repo.Lookup(mt.ctx); ok {
			cfg.Start = p
			known = true
		}
	}
	if cfg.Estimator == nil && known {
		cfg.Estimator = &adaptation{prior: cfg.Start}
	}
	return cfg
}

// completeRefit publishes an asynchronous re-estimation result. The
// parameters are installed by the next update or Forecast (the publish
// itself never takes the maintainer lock, so a refit cannot stall the
// serving path even for the install).
func (mt *Maintainer) completeRefit(params []float64, objective float64) {
	if mt.repo != nil {
		mt.repo.Store(mt.ctx, params, objective)
	}
	mt.pendingFit.Store(&installedFit{params: params})
}

// abortRefit stands a failed asynchronous re-estimation down so the
// strategy can trigger a fresh request.
func (mt *Maintainer) abortRefit() { mt.refitPending.Store(false) }

// Forecast returns the next h values under the lock. A pending
// asynchronously estimated parameter set is installed first, so
// forecasts see fresh parameters as soon as a refit lands.
func (mt *Maintainer) Forecast(h int) []float64 {
	mt.mu.Lock()
	defer mt.mu.Unlock()
	mt.installPendingLocked()
	return mt.model.Forecast(h)
}

// OneStep returns the one-step-ahead forecast, allocation-free.
func (mt *Maintainer) OneStep() float64 {
	mt.mu.Lock()
	defer mt.mu.Unlock()
	mt.installPendingLocked()
	return mt.model.OneStep()
}

// Reestimations reports how many re-estimations have been installed.
func (mt *Maintainer) Reestimations() int {
	mt.mu.Lock()
	defer mt.mu.Unlock()
	return mt.reEstims
}

// Staleness reports the observations consumed since the last installed
// re-estimation — the freshness metric the registry aggregates.
func (mt *Maintainer) Staleness() int64 { return mt.obsSinceRefit.Load() }

// Params returns the current model parameters.
func (mt *Maintainer) Params() []float64 {
	mt.mu.Lock()
	defer mt.mu.Unlock()
	return mt.model.Params()
}
