//go:build !race

package forecast

// Single-goroutine arithmetic (≈ 800 default-budget estimations) that
// the race detector only makes ten times slower.

import (
	"fmt"
	"testing"
	"time"

	"mirabel/internal/optimize"
	"mirabel/internal/store"
	"mirabel/internal/workload"
)

// streamResult is what one maintained stream cost and achieved.
type streamResult struct {
	smape      float64 // out-of-sample one-step SMAPE after the first estimation
	firstEvals int     // objective evaluations of the first estimation
	laterEvals int     // … of all later re-estimations
	laterFits  int
}

// maintainStream replays the registry's lifecycle over one series: the
// model is created with default parameters on the first 80 observations
// (the registry's MinObservations rounded up to whole 16-fact batches),
// estimated once, then re-estimated every 96 observations on the last
// 192 — each time through refitSnapshot / FitHWT / completeRefit, the
// three calls sweeper.refit makes. Every prediction is scored before its
// observation is consumed.
func maintainStream(t *testing.T, series []float64, fitCfg FitConfig) streamResult {
	t.Helper()
	const warm, every, window = 80, 96, 192
	periods := []int{48}
	model, err := NewHWT(periods...)
	if err != nil {
		t.Fatal(err)
	}
	if err := model.Init(series[:warm]); err != nil {
		t.Fatal(err)
	}
	mt := NewMaintainer(model, series[:warm], MaintainerConfig{
		Strategy:   &TimeBased{Every: every},
		FitCfg:     fitCfg,
		MaxHistory: window,
	})
	due := true // model creation queues the first estimation
	mt.setEnqueue(func() bool { due = true; return true })

	var res streamResult
	var sum float64
	n := 0
	for _, y := range series[warm:] {
		if due {
			due = false
			history, periods, cfg := mt.refitSnapshot()
			_, fit, err := FitHWT(history, periods, cfg)
			if err != nil {
				t.Fatal(err)
			}
			mt.completeRefit(fit.X, fit.Value)
			if mt.Reestimations() == 0 {
				res.firstEvals = fit.Evaluations
			} else {
				res.laterEvals += fit.Evaluations
				res.laterFits++
			}
		}
		pred := mt.OneStep() // installs a pending fit first
		if denom := abs(y) + abs(pred); denom > 0 {
			sum += abs(y-pred) / denom
		}
		n++
		if err := mt.Update(y); err != nil {
			t.Fatal(err)
		}
	}
	res.smape = sum / float64(n)
	return res
}

// TestAdaptationMatchesGlobalAccuracy is the evidence for the
// estimation-vs-adaptation policy of refitConfigLocked: over maintained
// streams, re-estimating by one local descent from the incumbent
// (FitCfg.Estimator nil) forecasts as accurately out of sample as
// spending the full global budget on every re-estimation (an explicit
// RandomRestartNelderMead, honoured unchanged — the pre-policy
// behaviour), at a fraction of the evaluations.
func TestAdaptationMatchesGlobalAccuracy(t *testing.T) {
	const length = 80 + 6*96 + 48 // six re-estimations and a tail scored under the last
	type family struct {
		name   string
		series [][]float64
	}
	var household, demand family
	household.name = "benchmark households"
	for id := 0; id < 40; id++ {
		household.series = append(household.series, householdSeries(7, id, 0, length))
	}
	demand.name = "workload.DemandSeries"
	for seed := int64(1); seed <= 20; seed++ {
		s := workload.DemandSeries(workload.DemandConfig{Days: length/48 + 1, Seed: seed})
		demand.series = append(demand.series, s.Values()[:length])
	}

	for _, f := range []family{household, demand} {
		var global, adapted streamResult
		for _, s := range f.series {
			g := maintainStream(t, s, FitConfig{Estimator: &optimize.RandomRestartNelderMead{}})
			a := maintainStream(t, s, FitConfig{})
			if a.firstEvals != g.firstEvals {
				t.Fatalf("%s: first estimation ran %d evaluations adapted vs %d global — it must be the global search in both",
					f.name, a.firstEvals, g.firstEvals)
			}
			global.smape += g.smape
			adapted.smape += a.smape
			global.laterEvals += g.laterEvals
			adapted.laterEvals += a.laterEvals
			global.laterFits += g.laterFits
			adapted.laterFits += a.laterFits
		}
		n := float64(len(f.series))
		gS, aS := global.smape/n, adapted.smape/n
		gE := float64(global.laterEvals) / float64(global.laterFits)
		aE := float64(adapted.laterEvals) / float64(adapted.laterFits)
		t.Logf("%s (%d series): SMAPE global %.5f adapted %.5f; evaluations per re-estimation global %.0f adapted %.0f",
			f.name, len(f.series), gS, aS, gE, aE)
		if aS > 1.01*gS {
			t.Errorf("%s: adapted SMAPE %.5f > 1.01 × global %.5f", f.name, aS, gS)
		}
		if aE*5 > gE {
			t.Errorf("%s: adapted re-estimation costs %.0f evaluations, want ≤ 1/5 of global's %.0f", f.name, aE, gE)
		}
	}
}

// TestFleetRefitsKeepUp feeds the benchmark's fleet the way its
// lifecycle workload does — rounds of one 16-slot batch per series, 320
// series, default registry (one worker, TimeBased every 96) — and checks
// that the single refit worker keeps up with the strategy. The pace is
// calibrated on the host, not on the clock: the creation burst (320
// global searches) is timed, and every later re-estimation burst is then
// given a third of that. Adaptation needs a small fraction of it; a
// fleet that runs the global search on every re-estimation needs three
// times what it gets and completes about a third of the demands.
func TestFleetRefitsKeepUp(t *testing.T) {
	const fleet, every, laterRounds = 320, 96, 20
	reg, err := NewRegistry(RegistryConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	names := make([]string, fleet)
	for i := range names {
		names[i] = fmt.Sprintf("h%04d", i)
	}
	batch := make([]store.Measurement, 16)
	feedRound := func(round int) {
		for id, name := range names {
			for i, kwh := range householdSeries(7, id, round*16, 16) {
				batch[i] = store.Measurement{Actor: name, EnergyType: "demand", KWh: kwh}
			}
			reg.UpdateMeasurements(batch)
		}
	}

	// Rounds 0–4: 80 observations per series, past the 72 a model needs;
	// creation queues every series' first estimation.
	start := time.Now()
	for round := 0; round < 5; round++ {
		feedRound(round)
	}
	if err := reg.Quiesce(2 * time.Minute); err != nil {
		t.Fatal(err)
	}
	creationBurst := time.Since(start)
	if st := reg.Stats(); st.RefitsDone != fleet {
		t.Fatalf("creation burst: %d refits done, want %d", st.RefitsDone, fleet)
	}

	// A burst is due every `every`/16 = 6 rounds.
	gap := creationBurst / 3 / (every / 16)
	for round := 5; round < 5+laterRounds; round++ {
		feedRound(round)
		time.Sleep(gap)
	}
	if err := reg.Quiesce(2 * time.Minute); err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		reg.Forecast(name, "demand", 1) // installs a fit published after the last update
	}

	st := reg.Stats()
	demanded := uint64(fleet * (1 + laterRounds*16/every))
	t.Logf("creation burst %v; %d of %d demanded refits done, p50 %v, max staleness %d, overflows %d",
		creationBurst.Round(time.Millisecond), st.RefitsDone, demanded, st.RefitP50, st.MaxStaleness, st.QueueOverflows)
	if st.RefitsDone*10 < demanded*9 {
		t.Errorf("refits done = %d, want ≥ 90 %% of the %d the strategy demanded", st.RefitsDone, demanded)
	}
	if st.MaxStaleness >= 2*every {
		t.Errorf("max staleness = %d observations, want < %d", st.MaxStaleness, 2*every)
	}
	if st.RefitsFailed != 0 || st.QueueOverflows != 0 {
		t.Errorf("refits failed = %d, queue overflows = %d, want 0 and 0", st.RefitsFailed, st.QueueOverflows)
	}
}
