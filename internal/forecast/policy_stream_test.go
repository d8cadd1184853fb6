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
// observation is consumed. A non-nil repo is shared the way a registry
// shares its own: the series looks up and stores cases under energy.
func maintainStream(t *testing.T, series []float64, fitCfg FitConfig, repo *ContextRepository, energy string) streamResult {
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
	pool := &syncPool{due: true} // model creation queues the first estimation
	mt := newMaintainer(model, series[:warm], MaintainerConfig{
		FitCfg:     fitCfg,
		Repo:       repo,
		Ctx:        Context{EnergyType: energy},
		MaxHistory: window,
	}, every, pool.enqueue)

	var res streamResult
	var sum float64
	n := 0
	for _, y := range series[warm:] {
		if pool.due {
			fit := pool.refit(t, mt)
			if reestimations(mt) == 0 {
				res.firstEvals = fit.Evaluations
			} else {
				res.laterEvals += fit.Evaluations
				res.laterFits++
			}
		}
		pred := mt.Forecast(1)[0] // installs a pending fit first
		if denom := abs(y) + abs(pred); denom > 0 {
			sum += abs(y-pred) / denom
		}
		n++
		updateRun(mt, []store.Measurement{{KWh: y}})
	}
	res.smape = sum / float64(n)
	return res
}

// streamFamily is a set of maintained streams the policy tests replay.
type streamFamily struct {
	name   string
	series [][]float64
}

// policyLength is a policy-test stream's length: warm-up, six
// re-estimations and a tail scored under the last.
const policyLength = 80 + 6*96 + 48

// policyFamilies returns the two families the policy tests replay: 40
// benchmark households and 20 workload.DemandSeries seeds.
func policyFamilies() []streamFamily {
	household := streamFamily{name: "benchmark households"}
	for id := 0; id < 40; id++ {
		household.series = append(household.series, householdSeries(7, id, 0, policyLength))
	}
	demand := streamFamily{name: "workload.DemandSeries"}
	for seed := int64(1); seed <= 20; seed++ {
		s := workload.DemandSeries(workload.DemandConfig{Days: policyLength/48 + 1, Seed: seed})
		demand.series = append(demand.series, s.Values()[:policyLength])
	}
	return []streamFamily{household, demand}
}

// TestAdaptationMatchesGlobalAccuracy is the evidence for the
// estimation-vs-adaptation policy of refitConfigLocked: over maintained
// streams, re-estimating by one local descent from the incumbent
// (FitCfg.Estimator nil) forecasts as accurately out of sample as
// spending the full global budget on every re-estimation (an explicit
// RandomRestartNelderMead, honoured unchanged — the pre-policy
// behaviour), at a fraction of the evaluations.
func TestAdaptationMatchesGlobalAccuracy(t *testing.T) {
	for _, f := range policyFamilies() {
		var global, adapted streamResult
		for _, s := range f.series {
			g := maintainStream(t, s, FitConfig{Estimator: &optimize.RandomRestartNelderMead{}}, nil, "")
			a := maintainStream(t, s, FitConfig{}, nil, "")
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

// TestRepositoryCreationMatchesGlobalAccuracy is the evidence for the
// registry's shared context repository: the first series of an energy
// type runs the global search and stores its case, and every later
// series' first estimation is one descent from that case. Over both
// policy families, with one repository per family, that forecasts as
// accurately out of sample as a global first estimation per series, and
// every first estimation after the family's first costs at most a fifth
// of the global budget. A second energy type in the same repository
// starts from nothing: its first series runs the global search too.
func TestRepositoryCreationMatchesGlobalAccuracy(t *testing.T) {
	for _, f := range policyFamilies() {
		repo := NewContextRepository()
		var perSeries, shared float64
		var globalEvals, minLaterEvals, maxLaterEvals int
		for i, s := range f.series {
			own := maintainStream(t, s, FitConfig{}, nil, "")
			r := maintainStream(t, s, FitConfig{}, repo, "demand")
			perSeries += own.smape
			shared += r.smape
			if i == 0 {
				if r.firstEvals != own.firstEvals {
					t.Fatalf("%s: first series' first estimation ran %d evaluations, want the global search's %d",
						f.name, r.firstEvals, own.firstEvals)
				}
				globalEvals = r.firstEvals
				continue
			}
			if i == 1 || r.firstEvals < minLaterEvals {
				minLaterEvals = r.firstEvals
			}
			if r.firstEvals > maxLaterEvals {
				maxLaterEvals = r.firstEvals
			}
		}
		n := float64(len(f.series))
		t.Logf("%s (%d series): SMAPE global first estimation per series %.5f, one repository %.5f; first estimation %d evaluations, later series %d–%d",
			f.name, len(f.series), perSeries/n, shared/n, globalEvals, minLaterEvals, maxLaterEvals)
		if shared > 1.01*perSeries {
			t.Errorf("%s: repository SMAPE %.5f > 1.01 × per-series global %.5f", f.name, shared/n, perSeries/n)
		}
		if maxLaterEvals*5 > globalEvals {
			t.Errorf("%s: a later series' first estimation ran %d evaluations, want ≤ 1/5 of the global %d",
				f.name, maxLaterEvals, globalEvals)
		}
	}

	// Two energy types in one repository, interleaved: a demand case is
	// no knowledge about pv, so each type's first series searches.
	repo := NewContextRepository()
	for i := 0; i < 3; i++ {
		for _, typed := range []struct {
			energy string
			series []float64
		}{{"demand", householdSeries(7, i, 0, policyLength)}, {"pv", pvSeries(7, i, 0, policyLength)}} {
			own := maintainStream(t, typed.series, FitConfig{}, nil, "")
			r := maintainStream(t, typed.series, FitConfig{}, repo, typed.energy)
			if i == 0 && r.firstEvals != own.firstEvals {
				t.Errorf("first %s series: first estimation ran %d evaluations, want the global search's %d",
					typed.energy, r.firstEvals, own.firstEvals)
			}
			if i > 0 && r.firstEvals*5 > own.firstEvals {
				t.Errorf("%s series %d: first estimation ran %d evaluations, want ≤ 1/5 of the global %d",
					typed.energy, i, r.firstEvals, own.firstEvals)
			}
		}
	}
}

// TestFleetRefitsKeepUp feeds the benchmark's fleet the way its
// lifecycle workload does — rounds of one 16-slot batch per series, 320
// series, default registry (one worker, a re-estimation every 96
// observations) — and checks that the single refit worker keeps up. The pace is
// calibrated on the host, not on the clock: a second registry with an
// explicit RandomRestartNelderMead creates the same fleet with 320
// global searches, that burst is timed, and every later re-estimation
// burst is then given a third of it. Adaptation needs a small fraction
// of it; a fleet that runs the global search on every re-estimation
// needs three times what it gets and completes about a third of the
// demands. The default registry's own creation burst, one global search
// and 319 descents from its case, must be at least ten times shorter.
func TestFleetRefitsKeepUp(t *testing.T) {
	const fleet, every, laterRounds = 320, 96, 20
	names := make([]string, fleet)
	for i := range names {
		names[i] = fmt.Sprintf("h%04d", i)
	}
	batch := make([]store.Measurement, 16)
	feedRound := func(reg *Registry, round int) {
		for id, name := range names {
			for i, kwh := range householdSeries(7, id, round*16, 16) {
				batch[i] = store.Measurement{Actor: name, EnergyType: "demand", KWh: kwh}
			}
			reg.UpdateMeasurements(batch)
		}
	}
	// Rounds 0–4: 80 observations per series, past the 72 a model needs;
	// creation queues every series' first estimation.
	createFleet := func(reg *Registry) time.Duration {
		start := time.Now()
		for round := 0; round < 5; round++ {
			feedRound(reg, round)
		}
		if err := reg.Quiesce(2 * time.Minute); err != nil {
			t.Fatal(err)
		}
		burst := time.Since(start)
		if st := reg.Stats(); st.RefitsDone != fleet {
			t.Fatalf("creation burst: %d refits done, want %d", st.RefitsDone, fleet)
		}
		return burst
	}

	global, err := NewRegistry(RegistryConfig{FitCfg: FitConfig{Estimator: &optimize.RandomRestartNelderMead{}}})
	if err != nil {
		t.Fatal(err)
	}
	globalBurst := createFleet(global)
	global.Close()

	reg, err := NewRegistry(RegistryConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	creationBurst := createFleet(reg)
	if creationBurst*10 > globalBurst {
		t.Errorf("creation burst %v, want ≤ 1/10 of the global searches' %v", creationBurst, globalBurst)
	}

	// A burst is due every `every`/16 = 6 rounds.
	gap := globalBurst / 3 / (every / 16)
	for round := 5; round < 5+laterRounds; round++ {
		feedRound(reg, round)
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
	t.Logf("creation burst %v (global searches %v); %d of %d demanded refits done, p50 %v, max staleness %d, overflows %d",
		creationBurst.Round(time.Millisecond), globalBurst.Round(time.Millisecond), st.RefitsDone, demanded, st.RefitP50, st.MaxStaleness, st.QueueOverflows)
	if st.RefitsDone*10 < demanded*9 {
		t.Errorf("refits done = %d, want ≥ 90 %% of the %d demanded", st.RefitsDone, demanded)
	}
	if st.MaxStaleness >= 2*every {
		t.Errorf("max staleness = %d observations, want < %d", st.MaxStaleness, 2*every)
	}
	if st.RefitsFailed != 0 || st.QueueOverflows != 0 {
		t.Errorf("refits failed = %d, queue overflows = %d, want 0 and 0", st.RefitsFailed, st.QueueOverflows)
	}
}
