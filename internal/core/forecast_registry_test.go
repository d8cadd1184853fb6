package core

import (
	"context"
	"testing"

	"mirabel/internal/agg"
	"mirabel/internal/comm"
	"mirabel/internal/flexoffer"
	"mirabel/internal/forecast"
	"mirabel/internal/ingest"
	"mirabel/internal/optimize"
	"mirabel/internal/sched"
	"mirabel/internal/store"
)

// newForecastingBRP builds a BRP whose forecast registry keeps tiny
// period-4 models (warm-up completes after six observations); dir != ""
// puts its store, and so its intake, there, otherwise both are volatile.
func newForecastingBRP(t *testing.T, bus *comm.Bus, dir string) *Node {
	t.Helper()
	var st *store.Store
	if dir != "" {
		var err error
		if st, err = store.Open(dir); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { st.Close() })
	}
	return mustNode(t, bus, Config{
		Name:      "brp1",
		AggParams: agg.ParamsP3,
		SchedOpts: sched.Options{MaxIterations: 3, Seed: 1},
		Forecasting: &forecast.RegistryConfig{
			Shards:  4,
			Periods: []int{4},
			FitCfg:  forecast.FitConfig{Options: optimize.Options{MaxEvaluations: 40, Seed: 3}},
			Workers: 1,
		},
		Store:  st,
		Ingest: &ingest.Config{Queue: 128, Policy: ingest.PolicyBlock},
	})
}

func seriesMeas(actor string, from, n int) []store.Measurement {
	ms := make([]store.Measurement, n)
	for i := range ms {
		ms[i] = store.Measurement{Actor: actor, EnergyType: "elec", Slot: flexoffer.Time(from + i), KWh: 2}
	}
	return ms
}

// TestPerSeriesForecastFromIntake: measurements flowing into the node
// create a per-series model transparently, and the series is served by
// the node's forecast registry.
func TestPerSeriesForecastFromIntake(t *testing.T) {
	bus := comm.NewBus()
	brp := newForecastingBRP(t, bus, "")
	reg := brp.ForecastRegistry()

	// Below warm-up: the series exists but has no model yet.
	if err := brp.ingest.SubmitMeasurements(context.Background(), seriesMeas("p1", 0, 4)); err != nil {
		t.Fatal(err)
	}
	drain(t, brp)
	if _, ok := reg.Forecast("p1", "elec", 4); ok {
		t.Fatal("series forecast served before the model exists")
	}

	if err := brp.ingest.SubmitMeasurements(context.Background(), seriesMeas("p1", 4, 4)); err != nil {
		t.Fatal(err)
	}
	drain(t, brp)
	values, ok := reg.Forecast("p1", "elec", 6)
	if !ok {
		t.Fatal("warm series not served")
	}
	if len(values) != 6 {
		t.Fatalf("forecast horizon = %d values, want 6", len(values))
	}
	st, ok := brp.ForecastStats()
	if !ok || st.Series != 1 || st.Models != 1 || st.Observations != 8 {
		t.Fatalf("registry stats = %+v (ok=%v), want 1 series / 1 model / 8 obs", st, ok)
	}
}

// TestIngestFeedsRegistryExactlyOnce: the registry is fed from the
// ingest queue's apply hook only — each measurement observed once,
// visible after the drain barrier.
func TestIngestFeedsRegistryExactlyOnce(t *testing.T) {
	bus := comm.NewBus()
	brp := newForecastingBRP(t, bus, t.TempDir())

	const n = 24
	if err := brp.ingest.SubmitMeasurements(context.Background(), seriesMeas("p1", 0, n)); err != nil {
		t.Fatal(err)
	}
	drain(t, brp)
	st, ok := brp.ForecastStats()
	if !ok || st.Observations != n {
		t.Fatalf("registry observations = %d (ok=%v), want exactly %d", st.Observations, ok, n)
	}
	if _, ok := brp.ForecastRegistry().Forecast("p1", "elec", 4); !ok {
		t.Fatal("series not served after ingest drain")
	}
}

// TestCycleBarrierMaintainsForecasts: the scheduling cycle's intake
// barrier applies every acked measurement to its series model before
// the cycle plans, with no drain by the caller.
func TestCycleBarrierMaintainsForecasts(t *testing.T) {
	bus := comm.NewBus()
	brp := newForecastingBRP(t, bus, t.TempDir())
	for i := 0; i < 4; i++ {
		if err := brp.ingest.SubmitMeasurements(context.Background(), seriesMeas("p1", i*2, 2)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := brp.RunSchedulingCycle(context.Background(), 0, StaticForecast(make([]float64, flexoffer.SlotsPerDay)), nil, nil); err != nil {
		t.Fatal(err)
	}
	if st, _ := brp.ForecastStats(); st.Observations != 8 || st.Models != 1 {
		t.Fatalf("registry after the cycle: %d observations, %d models; want 8, 1", st.Observations, st.Models)
	}
	if _, ok := brp.ForecastRegistry().Forecast("p1", "elec", 4); !ok {
		t.Fatal("p1's series not served after the cycle")
	}
}
