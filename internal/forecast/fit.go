package forecast

import (
	"errors"
	"fmt"

	"mirabel/internal/optimize"
)

// FitConfig controls HWT parameter estimation.
type FitConfig struct {
	// Estimator is the global search strategy (default
	// RandomRestartNelderMead, the paper's choice).
	Estimator optimize.Estimator
	// Options bound the estimation run.
	Options optimize.Options
	// HoldoutFrac is the tail fraction of the history used for the
	// one-step-ahead error objective (default 0.25).
	HoldoutFrac float64
	// Start optionally warm-starts the search (context-aware adaptation
	// passes the parameters of a previously estimated model here).
	Start []float64
}

// FitHWT estimates HWT smoothing parameters on the history by minimizing
// the one-step-ahead SMAPE over the holdout tail. It returns the fitted
// model (initialized and replayed over the full history, ready to
// Update/Forecast) and the estimator result with its convergence trace.
// cfg.Estimator is only read: it may be shared by concurrent fits.
func FitHWT(history []float64, periods []int, cfg FitConfig) (*HWT, optimize.Result, error) {
	fitted, err := NewHWT(periods...)
	if err != nil {
		return nil, optimize.Result{}, err
	}
	longest := longestPeriod(periods)
	if len(history) < longest+longest/2 {
		return nil, optimize.Result{}, fmt.Errorf("forecast: need ≥ %d observations to fit HWT%v, got %d",
			longest+longest/2, periods, len(history))
	}
	if cfg.HoldoutFrac <= 0 || cfg.HoldoutFrac >= 1 {
		cfg.HoldoutFrac = 0.25
	}
	est := cfg.Estimator
	if est == nil {
		est = &optimize.RandomRestartNelderMead{}
	}

	split := len(history) - int(float64(len(history))*cfg.HoldoutFrac)
	if split < longest {
		split = longest
	}
	objective, err := newHWTObjective(periods, history, split)
	if err != nil {
		return nil, optimize.Result{}, err
	}

	// Warm start via the local component of the estimator where
	// supported — on a private copy, because the caller's estimator is
	// typically one pointer shared by every series and refit worker.
	if cfg.Start != nil {
		switch e := est.(type) {
		case *optimize.NelderMead:
			warm := *e
			warm.Start = cfg.Start
			est = &warm
		case *optimize.RandomRestartNelderMead:
			warm := *e
			warm.Local.Start = cfg.Start
			est = &warm
		}
	}

	res := est.Minimize(objective.eval, optimize.UnitBounds(fitted.NumParams()), cfg.Options)
	if res.X == nil {
		return nil, res, errors.New("forecast: estimation produced no result")
	}
	if err := fitted.SetParams(res.X); err != nil {
		return nil, res, err
	}
	if err := fitted.Init(history); err != nil {
		return nil, res, err
	}
	return fitted, res, nil
}

// hwtObjective is the estimation objective of one FitHWT call: the
// one-step-ahead SMAPE over history[split:] of an HWT seeded and
// replayed on history[:split]. The seeding does not depend on the
// parameters, so it is computed once (seeded); every evaluation copies
// it into the fit's one scratch model, replays and scores — no
// allocation per evaluation, and the same floating-point operations in
// the same order as a fresh NewHWT/SetParams/Init per evaluation.
type hwtObjective struct {
	seeded  *HWT
	scratch *HWT
	history []float64
	split   int
}

func newHWTObjective(periods []int, history []float64, split int) (*hwtObjective, error) {
	seeded, err := NewHWT(periods...)
	if err != nil {
		return nil, err
	}
	if err := seeded.seed(history[:split]); err != nil {
		return nil, err
	}
	return &hwtObjective{seeded: seeded, scratch: seeded.clone(), history: history, split: split}, nil
}

// eval scores parameter vector p; an invalid vector scores the worst
// SMAPE.
func (o *hwtObjective) eval(p []float64) float64 {
	m := o.scratch
	if err := m.SetParams(p); err != nil {
		return 1
	}
	m.copySeed(o.seeded)
	m.replay(o.history[:o.split])
	holdout := o.history[o.split:]
	if len(holdout) == 0 {
		return 1
	}
	var smape float64
	for _, y := range holdout {
		pred := m.step(y)
		if denom := abs(y) + abs(pred); denom > 0 {
			smape += abs(y-pred) / denom
		}
	}
	return smape / float64(len(holdout))
}

// adaptation is the estimator of a re-estimation that has prior
// knowledge — the series' incumbent parameters or a context-repository
// case (Maintainer.refitConfigLocked): one local Nelder-Mead descent
// from the prior instead of a global search. A prior is only knowledge
// while it still describes the series: an estimate from a short early
// window can sit in a basin (φ≈1, γ=1) the descent never leaves, so a
// prior that scores worse on the new window than the parameters every
// model is born with is dropped and the descent starts from those.
type adaptation struct{ prior []float64 }

// Name implements optimize.Estimator.
func (a *adaptation) Name() string { return "Adaptation" }

// Minimize implements optimize.Estimator.
func (a *adaptation) Minimize(obj optimize.Objective, b optimize.Bounds, opt optimize.Options) optimize.Result {
	start := a.prior
	if born := defaultParams(b.Dim() - 2); obj(born) < obj(start) {
		start = born
	}
	res := (&optimize.NelderMead{Start: start}).Minimize(obj, b, opt)
	res.Evaluations += 2
	return res
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// HorizonSMAPE evaluates a fitted model's accuracy at a fixed forecast
// horizon: at each step through the evaluation window it forecasts h
// slots ahead and compares the h-th forecast with the actual value
// (paper Figure 4b measures exactly this as the horizon grows). The walk
// advances a private copy, so m is left as the caller passed it.
func HorizonSMAPE(m *HWT, eval []float64, h int) (float64, error) {
	if h <= 0 {
		return 0, fmt.Errorf("forecast: non-positive horizon %d", h)
	}
	if len(eval) < h {
		return 0, fmt.Errorf("forecast: evaluation window %d shorter than horizon %d", len(eval), h)
	}
	m = m.clone()
	var smape float64
	n := 0
	for i := 0; i+h <= len(eval); i++ {
		pred := m.Forecast(h)[h-1]
		actual := eval[i+h-1]
		if denom := abs(actual) + abs(pred); denom > 0 {
			smape += abs(actual-pred) / denom
		}
		m.Update(eval[i])
		n++
	}
	return smape / float64(n), nil
}
