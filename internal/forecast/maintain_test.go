package forecast

import (
	"math"
	"testing"

	"mirabel/internal/optimize"
	"mirabel/internal/store"
)

func optimizeOpts() optimize.Options {
	return optimize.Options{MaxEvaluations: 150, Seed: 7}
}

// syncPool stands in for the registry's refit pool on the caller's
// goroutine: its enqueue marks a refit due, and refit runs it the way
// sweeper.refit does — refitSnapshot, FitHWT, completeRefit.
type syncPool struct{ due bool }

func (p *syncPool) enqueue() bool { p.due = true; return true }

func (p *syncPool) refit(t testing.TB, mt *Maintainer) optimize.Result {
	t.Helper()
	p.due = false
	history, periods, cfg := mt.refitSnapshot()
	_, fit, err := FitHWT(history, periods, cfg)
	if err != nil {
		t.Fatal(err)
	}
	mt.completeRefit(fit.X, fit.Value)
	return fit
}

// feed pushes ys one at a time through the registry's update path
// (updateRun), running a due refit before the next observation, which
// installs it.
func (p *syncPool) feed(t testing.TB, mt *Maintainer, ys []float64) {
	t.Helper()
	for _, y := range ys {
		if p.due {
			p.refit(t, mt)
		}
		updateRun(mt, []store.Measurement{{KWh: y}})
	}
}

// reestimations reports how many re-estimations mt has installed.
func reestimations(mt *Maintainer) int {
	mt.mu.Lock()
	defer mt.mu.Unlock()
	return mt.reEstims
}

// TestTimeBasedStrategy: a maintainer queues a re-estimation once its
// interval of observations has passed since the last installed fit, and
// counts afresh from the install.
func TestTimeBasedStrategy(t *testing.T) {
	m, err := NewHWT(4)
	if err != nil {
		t.Fatal(err)
	}
	hist := make([]float64, 8)
	if err := m.Init(hist); err != nil {
		t.Fatal(err)
	}
	pool := &syncPool{}
	mt := newMaintainer(m, hist, MaintainerConfig{}, 3, pool.enqueue)
	one := []store.Measurement{{KWh: 1}}
	updateRun(mt, one)
	updateRun(mt, one)
	if pool.due {
		t.Error("triggered too early")
	}
	updateRun(mt, one)
	if !pool.due {
		t.Error("did not trigger at the interval")
	}
	pool.due = false
	mt.completeRefit(m.Params(), 0)
	updateRun(mt, one) // installs the fit, then counts one observation
	if reestimations(mt) != 1 || pool.due {
		t.Errorf("right after the install: %d re-estimations, due %v; want 1, false", reestimations(mt), pool.due)
	}
}

func TestMaintainerReestimatesOnSchedule(t *testing.T) {
	history := synthSeasonal(336 * 2)
	m, _, err := FitHWT(history, []int{48}, FitConfig{Options: optimizeOpts()})
	if err != nil {
		t.Fatal(err)
	}
	pool := &syncPool{}
	mt := newMaintainer(m, history, MaintainerConfig{
		FitCfg: FitConfig{Options: optimizeOpts()},
	}, 50, pool.enqueue)
	pool.feed(t, mt, synthSeasonal(336*2 + 120)[336*2:])
	if got := reestimations(mt); got != 2 {
		t.Errorf("re-estimations = %d, want 2 (120 updates / 50)", got)
	}
	if fc := mt.Forecast(4); len(fc) != 4 {
		t.Errorf("forecast len = %d", len(fc))
	}
}

func TestMaintainerKeepsAccuracyUnderDrift(t *testing.T) {
	// The level jumps after the fitted window: the maintainer keeps
	// re-estimating on the registry's interval of 2 longest periods, and
	// its forecasts stay accurate at the new level.
	base := synthSeasonal(336 * 2)
	m, _, err := FitHWT(base, []int{48}, FitConfig{Options: optimizeOpts()})
	if err != nil {
		t.Fatal(err)
	}
	pool := &syncPool{}
	mt := newMaintainer(m, base, MaintainerConfig{
		FitCfg: FitConfig{Options: optimizeOpts()},
	}, 2*48, pool.enqueue)
	drifted := make([]float64, 336)
	for i := range drifted {
		// Structural break: the level jumps by 60% (e.g. a new industrial
		// consumer joined the balance group).
		drifted[i] = 160 + 10*math.Sin(2*math.Pi*float64(i%48)/48)
	}
	pool.feed(t, mt, drifted[:288])
	if got := reestimations(mt); got < 2 {
		t.Errorf("re-estimations = %d, want ≥ 2 after 288 observations", got)
	}
	var smape float64
	for _, y := range drifted[288:] {
		pred := mt.Forecast(1)[0]
		smape += math.Abs(y-pred) / (math.Abs(y) + math.Abs(pred))
		pool.feed(t, mt, []float64{y})
	}
	if smape /= 48; smape > 0.05 {
		t.Errorf("one-step SMAPE over the last day = %.4f, want ≤ 0.05", smape)
	}
}

func TestMaintainerUsesContextRepository(t *testing.T) {
	repo := NewContextRepository()
	ctx := Context{EnergyType: "demand", Season: 0, DayType: 0}
	history := synthSeasonal(336 * 2)
	m, _, err := FitHWT(history, []int{48}, FitConfig{Options: optimizeOpts()})
	if err != nil {
		t.Fatal(err)
	}
	pool := &syncPool{}
	mt := newMaintainer(m, history, MaintainerConfig{
		FitCfg: FitConfig{Options: optimizeOpts()},
		Repo:   repo,
		Ctx:    ctx,
	}, 30, pool.enqueue)
	pool.feed(t, mt, synthSeasonal(336*2 + 40)[336*2:])
	if repo.Len() == 0 {
		t.Error("re-estimation did not store parameters in the repository")
	}
	if p, ok := repo.Lookup(ctx); !ok || len(p) != 3 {
		t.Errorf("Lookup = %v, %v", p, ok)
	}
}

func TestContextRepositoryFallbacks(t *testing.T) {
	repo := NewContextRepository()
	if _, ok := repo.Lookup(Context{}); ok {
		t.Error("empty repository returned a case")
	}
	repo.Store(Context{EnergyType: "demand", Season: 1}, []float64{0.1, 0.2, 0.3}, 0.05)
	repo.Store(Context{EnergyType: "wind", Season: 2}, []float64{0.9, 0.8, 0.7}, 0.20)

	// Exact hit.
	p, ok := repo.Lookup(Context{EnergyType: "demand", Season: 1})
	if !ok || p[0] != 0.1 {
		t.Errorf("exact lookup = %v, %v", p, ok)
	}
	// Same energy type fallback.
	p, ok = repo.Lookup(Context{EnergyType: "demand", Season: 3})
	if !ok || p[0] != 0.1 {
		t.Errorf("type fallback = %v, %v", p, ok)
	}
	// An energy type with no case of its own finds nothing: another
	// type's parameters are not knowledge about it.
	if p, ok = repo.Lookup(Context{EnergyType: "solar"}); ok {
		t.Errorf("unknown energy type found %v", p)
	}
}

func TestContextRepositoryKeepsBest(t *testing.T) {
	repo := NewContextRepository()
	ctx := Context{EnergyType: "demand"}
	repo.Store(ctx, []float64{0.5}, 0.10)
	repo.Store(ctx, []float64{0.9}, 0.20) // worse: ignored
	p, _ := repo.Lookup(ctx)
	if p[0] != 0.5 {
		t.Errorf("repository overwrote better case: %v", p)
	}
	repo.Store(ctx, []float64{0.7}, 0.05) // better: replaces
	p, _ = repo.Lookup(ctx)
	if p[0] != 0.7 {
		t.Errorf("repository kept worse case: %v", p)
	}
}

func TestWarmStartSpeedsUpEstimation(t *testing.T) {
	// With a warm start at the known-good parameters, a tiny budget must
	// reach an error no worse than a cold start with the same budget.
	history := synthSeasonal(336 * 2)
	for i := range history {
		history[i] += pseudoNoise(i) * 2
	}
	good, _, err := FitHWT(history, []int{48}, FitConfig{Options: optimize.Options{MaxEvaluations: 600, Seed: 3}})
	if err != nil {
		t.Fatal(err)
	}
	tiny := optimize.Options{MaxEvaluations: 40, Seed: 4}
	_, cold, err := FitHWT(history, []int{48}, FitConfig{Options: tiny})
	if err != nil {
		t.Fatal(err)
	}
	_, warm, err := FitHWT(history, []int{48}, FitConfig{Options: tiny, Start: good.Params()})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Value > cold.Value+1e-9 {
		t.Errorf("warm start %g worse than cold start %g", warm.Value, cold.Value)
	}
}
