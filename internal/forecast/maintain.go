package forecast

import (
	"sync"
	"sync/atomic"
)

// installedFit is a parameter vector produced by an asynchronous
// re-estimation, published for the next lock holder to swap in.
type installedFit struct {
	params []float64
}

// Maintainer wraps an HWT model with continuous maintenance: every new
// measurement updates the smoothing state (cheap, allocation-free), and
// once every observations have passed since the last installed fit
// (paper §5's time-based evaluation strategy) the parameters are
// re-estimated — adapted by a local descent from the current parameters
// or a context-repository case once either exists
// (paper: "the model adaption exploits the context knowledge of previous
// model estimations in order to speed up this time-consuming process");
// see refitConfigLocked.
//
// When a re-estimation is due, the maintainer *enqueues* a refit request
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

	every    int64 // observations between re-estimations; 0 = never
	fitCfg   FitConfig
	repo     *ContextRepository // optional
	ctx      Context
	reEstims int

	// Re-estimation plumbing.
	enqueue       func() bool // registry hook: queue a refit request
	refitPending  atomic.Bool // a request is queued or running
	pendingFit    atomic.Pointer[installedFit]
	obsSinceRefit atomic.Int64 // observations since the last installed fit: staleness and the refit trigger
}

// MaintainerConfig assembles a Maintainer.
type MaintainerConfig struct {
	FitCfg FitConfig          // estimation budget for re-estimations
	Repo   *ContextRepository // optional parameter repository
	Ctx    Context            // context key for the repository
	// MaxHistory bounds the retained history window (default 4 longest
	// periods).
	MaxHistory int
}

// newMaintainer wraps a fitted model. history is the data the model was
// fitted on (retained, windowed, for re-estimation). Once every
// observations have passed since the last installed fit (0: never),
// enqueue is called (once — guarded by refitPending) to queue a refit;
// it returns false when the refit queue is full, and the next
// observation tries again.
func newMaintainer(model *HWT, history []float64, cfg MaintainerConfig, every int, enqueue func() bool) *Maintainer {
	if cfg.MaxHistory <= 0 {
		cfg.MaxHistory = 4 * longestPeriod(model.periods)
	}
	mt := &Maintainer{
		model:   model,
		hist:    make([]float64, cfg.MaxHistory),
		every:   int64(every),
		fitCfg:  cfg.FitCfg,
		repo:    cfg.Repo,
		ctx:     cfg.Ctx,
		enqueue: enqueue,
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
// refit enqueue once a re-estimation is due. Caller holds the lock.
func (mt *Maintainer) updateLocked(y float64) {
	mt.installPendingLocked()
	mt.model.step(y)
	mt.histPush(y)
	stale := mt.obsSinceRefit.Add(1)
	if mt.every > 0 && stale >= mt.every && mt.refitPending.CompareAndSwap(false, true) {
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
// next observation can queue a fresh request.
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

// Staleness reports the observations consumed since the last installed
// re-estimation — the freshness metric the registry aggregates.
func (mt *Maintainer) Staleness() int64 { return mt.obsSinceRefit.Load() }
