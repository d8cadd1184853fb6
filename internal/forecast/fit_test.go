package forecast

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"mirabel/internal/optimize"
)

// TestFitHWTLeavesEstimatorUntouched: the warm start is installed on a
// private copy, so a Start from one call cannot leak into a later call
// (or a concurrent one) that shares the estimator.
func TestFitHWTLeavesEstimatorUntouched(t *testing.T) {
	history := noisySeasonal(1, 192, 48)
	opts := optimize.Options{MaxEvaluations: 300, Seed: 4}
	rr := &optimize.RandomRestartNelderMead{}
	nm := &optimize.NelderMead{}
	for _, est := range []optimize.Estimator{rr, nm} {
		_, cold, err := FitHWT(history, []int{48}, FitConfig{Estimator: est, Options: opts})
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := FitHWT(history, []int{48}, FitConfig{Estimator: est, Options: opts, Start: []float64{0.9, 0.9, 0.9}}); err != nil {
			t.Fatal(err)
		}
		if rr.Local.Start != nil || nm.Start != nil {
			t.Fatalf("%s: FitHWT wrote its warm start into the caller's estimator", est.Name())
		}
		_, again, err := FitHWT(history, []int{48}, FitConfig{Estimator: est, Options: opts})
		if err != nil {
			t.Fatal(err)
		}
		if again.Value != cold.Value || again.Evaluations != cold.Evaluations {
			t.Fatalf("%s: a cold fit after a warm one found %v in %d evaluations, the first cold fit %v in %d",
				est.Name(), again.Value, again.Evaluations, cold.Value, cold.Evaluations)
		}
	}
}

// TestSharedEstimatorConcurrentRefits: RegistryConfig.FitCfg.Estimator
// is one pointer for every series and every sweeper worker. Two workers
// refitting through one *RandomRestartNelderMead must not touch it. Run
// under -race.
func TestSharedEstimatorConcurrentRefits(t *testing.T) {
	cfg := testRegistryConfig()
	cfg.FitCfg.Estimator = &optimize.RandomRestartNelderMead{}
	cfg.Workers = 2
	cfg.QueueDepth = 256
	reg := newTestRegistry(t, cfg, 4)
	defer reg.Close()

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				for s := 0; s < 4; s++ {
					reg.UpdateMeasurements(seriesBatch(fmt.Sprintf("s-%d-%d", w, s), i*2, 2))
				}
			}
		}(w)
	}
	wg.Wait()
	if err := reg.Quiesce(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	st := reg.Stats()
	if st.RefitsFailed != 0 || st.RefitsDone < 16 {
		t.Fatalf("refits done = %d (want ≥ one per series), failed = %d", st.RefitsDone, st.RefitsFailed)
	}
}

// TestLongestPeriodUnsorted: every minimum-history rule is stated in the
// longest period, wherever it stands in the list.
func TestLongestPeriodUnsorted(t *testing.T) {
	m, err := NewHWT(336, 48)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Init(make([]float64, 100)); err == nil {
		t.Error("HWT[336 48].Init accepted 100 observations, less than one longest cycle")
	}
	if _, _, err := FitHWT(make([]float64, 400), []int{336, 48}, FitConfig{}); err == nil {
		t.Error("FitHWT([336 48]) accepted 400 observations, want ≥ 504")
	}
	mt := newMaintainer(m, nil, MaintainerConfig{}, 0, (&syncPool{}).enqueue)
	if got, want := len(mt.hist), 4*336; got != want {
		t.Errorf("default history window = %d, want %d", got, want)
	}
	reg, err := NewRegistry(RegistryConfig{Periods: []int{336, 48}})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	if got, want := reg.refitEvery, 2*336; got != want {
		t.Errorf("default re-estimation interval = %d, want %d", got, want)
	}
}

// TestExplicitEstimatorOnEveryRefit: adaptation replaces only the
// default search. An estimator the caller configured is the one called
// on a series' first estimation and on every later one.
func TestExplicitEstimatorOnEveryRefit(t *testing.T) {
	gate := &gateEstimator{started: make(chan struct{}, 64), release: make(chan struct{})}
	close(gate.release) // never blocks; started counts the calls
	cfg := testRegistryConfig()
	cfg.FitCfg.Estimator = gate
	reg := newTestRegistry(t, cfg, 4)
	defer reg.Close()
	for i := 0; i < 12; i++ {
		reg.UpdateMeasurements(seriesBatch("a1", i*2, 2))
		if err := reg.Quiesce(10 * time.Second); err != nil {
			t.Fatal(err)
		}
	}
	refits := reg.Stats().RefitsDone
	if refits < 3 {
		t.Fatalf("%d refits ran, want the first estimation and at least two later ones", refits)
	}
	if calls := uint64(len(gate.started)); calls != refits {
		t.Fatalf("configured estimator called %d times over %d refits", calls, refits)
	}
}

// TestAdaptationDropsPoisonedPrior: a prior that scores worse on the
// window than the parameters a model is born with is not descended from.
func TestAdaptationDropsPoisonedPrior(t *testing.T) {
	history := householdSeries(7, 29, 0, 192)
	poisoned := []float64{0, 0.99, 0} // φ≈1: the AR term feeds on its own error
	_, trapped, err := FitHWT(history, []int{48}, FitConfig{Estimator: &optimize.NelderMead{}, Start: poisoned})
	if err != nil {
		t.Fatal(err)
	}
	_, adapted, err := FitHWT(history, []int{48}, FitConfig{Estimator: &adaptation{prior: poisoned}})
	if err != nil {
		t.Fatal(err)
	}
	_, global, err := FitHWT(history, []int{48}, FitConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if adapted.Value > 1.1*global.Value {
		t.Fatalf("adaptation from a poisoned prior reached %.4f, the global search %.4f (a bare descent: %.4f)",
			adapted.Value, global.Value, trapped.Value)
	}
	if trapped.Value < 2*global.Value {
		t.Fatalf("the prior is not poisoned: a bare descent from it reaches %.4f (global %.4f)", trapped.Value, global.Value)
	}
}
