package forecast

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"mirabel/internal/flexoffer"
	"mirabel/internal/optimize"
	"mirabel/internal/store"
)

// testRegistryConfig is a tiny, fast fleet: period-4 models, six
// observations to warm up.
func testRegistryConfig() RegistryConfig {
	return RegistryConfig{
		Shards:  4,
		Periods: []int{4},
		FitCfg:  FitConfig{Options: optimize.Options{MaxEvaluations: 40, Seed: 3}},
		Workers: 1,
	}
}

// newTestRegistry builds a registry whose series re-estimate every
// `every` observations after their first estimation; 0 is never.
func newTestRegistry(t testing.TB, cfg RegistryConfig, every int) *Registry {
	t.Helper()
	reg, err := NewRegistry(cfg)
	if err != nil {
		t.Fatal(err)
	}
	reg.refitEvery = every
	return reg
}

func seriesBatch(actor string, from, n int) []store.Measurement {
	ms := make([]store.Measurement, n)
	for i := range ms {
		t := from + i
		ms[i] = store.Measurement{
			Actor: actor, EnergyType: "elec", Slot: flexoffer.Time(t),
			KWh: 10 + 3*math.Sin(2*math.Pi*float64(t%4)/4),
		}
	}
	return ms
}

func TestRegistryLazyCreation(t *testing.T) {
	reg := newTestRegistry(t, testRegistryConfig(), 0)
	defer reg.Close()

	// Below the warm-up threshold (6 = 1.5 x longest period): no model.
	reg.UpdateMeasurements(seriesBatch("a1", 0, 5))
	if _, ok := reg.Forecast("a1", "elec", 4); ok {
		t.Fatal("forecast served before the warm-up threshold")
	}
	st := reg.Stats()
	if st.Series != 1 || st.Models != 0 {
		t.Fatalf("stats = %d series / %d models, want 1 / 0", st.Series, st.Models)
	}

	// One more observation crosses the threshold: model created lazily.
	reg.UpdateMeasurements(seriesBatch("a1", 5, 1))
	fc, ok := reg.Forecast("a1", "elec", 4)
	if !ok || len(fc) != 4 {
		t.Fatalf("forecast after warm-up: ok=%v len=%d", ok, len(fc))
	}
	if st := reg.Stats(); st.Models != 1 {
		t.Fatalf("models = %d, want 1", st.Models)
	}
	// Unknown series stays unknown.
	if _, ok := reg.Forecast("ghost", "elec", 4); ok {
		t.Fatal("forecast for unknown series")
	}
}

// TestRegistryBatchMatchesSequential: feeding a series one measurement
// at a time and in large batches must end in identical model state.
func TestRegistryBatchMatchesSequential(t *testing.T) {
	one := newTestRegistry(t, testRegistryConfig(), 0)
	defer one.Close()
	bulk := newTestRegistry(t, testRegistryConfig(), 0)
	defer bulk.Close()

	const n = 64
	all := seriesBatch("a1", 0, n)
	for i := 0; i < n; i++ {
		one.UpdateMeasurements(all[i : i+1])
	}
	bulk.UpdateMeasurements(all)

	fc1, ok1 := one.Forecast("a1", "elec", 8)
	fc2, ok2 := bulk.Forecast("a1", "elec", 8)
	if !ok1 || !ok2 {
		t.Fatalf("forecasts not served: %v %v", ok1, ok2)
	}
	for i := range fc1 {
		if math.Abs(fc1[i]-fc2[i]) > 1e-12 {
			t.Fatalf("slot %d: sequential %.12f != batched %.12f", i, fc1[i], fc2[i])
		}
	}
}

// TestRegistryMixedBatchGrouping: one batch interleaving several series
// must route every measurement to its own series.
func TestRegistryMixedBatchGrouping(t *testing.T) {
	cfg := testRegistryConfig()
	cfg.MaxHistory = 64 // the history window holds every observation routed to a series
	reg := newTestRegistry(t, cfg, 0)
	defer reg.Close()

	var mixed []store.Measurement
	for round := 0; round < 8; round++ {
		for _, actor := range []string{"a1", "a2", "a3"} {
			mixed = append(mixed, seriesBatch(actor, round*2, 2)...)
		}
	}
	reg.UpdateMeasurements(mixed)
	st := reg.Stats()
	if st.Series != 3 || st.Models != 3 {
		t.Fatalf("stats = %d series / %d models, want 3 / 3", st.Series, st.Models)
	}
	if st.Observations != uint64(len(mixed)) {
		t.Fatalf("observations = %d, want %d", st.Observations, len(mixed))
	}
	s, _ := reg.Lookup("a2", "elec")
	mt := s.mt.Load()
	if mt == nil {
		t.Fatal("a2 has no model")
	}
	if history, _, _ := mt.refitSnapshot(); len(history) != 16 {
		t.Fatalf("a2 observations = %d, want 16", len(history))
	}
}

// gateEstimator blocks inside Minimize until released — a stand-in for
// an arbitrarily slow parameter estimation.
type gateEstimator struct {
	started chan struct{} // receives one token per Minimize entry
	release chan struct{} // closed to let every Minimize finish
}

func (e *gateEstimator) Name() string { return "gate" }
func (e *gateEstimator) Minimize(obj optimize.Objective, b optimize.Bounds, opt optimize.Options) optimize.Result {
	select {
	case e.started <- struct{}{}:
	default:
	}
	<-e.release
	x := make([]float64, b.Dim())
	for i := range x {
		x[i] = (b.Lo[i] + b.Hi[i]) / 2
	}
	return optimize.Result{X: x, Value: obj(x)}
}

// TestRefitNeverBlocksForecast: while a re-estimation is stuck inside
// the estimator, updates and forecasts keep serving the stale-but-live
// model. Run under -race this also proves the snapshot/install protocol
// is data-race free.
func TestRefitNeverBlocksForecast(t *testing.T) {
	gate := &gateEstimator{started: make(chan struct{}, 1), release: make(chan struct{})}
	cfg := testRegistryConfig()
	cfg.FitCfg.Estimator = gate
	reg := newTestRegistry(t, cfg, 4)
	defer reg.Close()

	// Warm the series up; model creation enqueues the initial refit,
	// which parks inside the gate.
	reg.UpdateMeasurements(seriesBatch("a1", 0, 8))
	select {
	case <-gate.started:
	case <-time.After(5 * time.Second):
		t.Fatal("refit never reached the estimator")
	}

	// Refit in flight: forecasts and updates must complete promptly.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			if _, ok := reg.Forecast("a1", "elec", 4); !ok {
				t.Error("forecast not served during refit")
				return
			}
			reg.UpdateMeasurements(seriesBatch("a1", 8+i, 1))
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("forecast/update blocked behind an in-flight refit")
	}

	close(gate.release)
	if err := reg.Quiesce(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	// The next serve installs the published parameters.
	reg.Forecast("a1", "elec", 4)
	if st := reg.Stats(); st.RefitsDone == 0 {
		t.Fatalf("refits done = %d, want > 0", st.RefitsDone)
	}
}

// TestStalenessBoundUnderSaturatedQueue: with the refit pool wedged and
// the queue full, update triggers overflow (counted, never blocking),
// forecasts keep serving, and the stats report the growing staleness.
func TestStalenessBoundUnderSaturatedQueue(t *testing.T) {
	gate := &gateEstimator{started: make(chan struct{}, 1), release: make(chan struct{})}
	cfg := testRegistryConfig()
	cfg.FitCfg.Estimator = gate
	cfg.QueueDepth = 1
	reg := newTestRegistry(t, cfg, 2)

	// Series a1's creation refit occupies the single worker; a2's
	// creation refit fills the depth-1 queue; every later creation or
	// due re-estimation overflows (refitPending stands down on overflow,
	// so the next observation retries).
	reg.UpdateMeasurements(seriesBatch("a1", 0, 6))
	<-gate.started
	reg.UpdateMeasurements(seriesBatch("a2", 0, 6))
	reg.UpdateMeasurements(seriesBatch("a3", 0, 6))
	reg.UpdateMeasurements(seriesBatch("a4", 0, 6))
	for i := 0; i < 20; i++ {
		reg.UpdateMeasurements(seriesBatch("a1", 6+2*i, 2))
		reg.UpdateMeasurements(seriesBatch("a3", 6+2*i, 2))
	}

	for _, actor := range []string{"a1", "a2", "a3", "a4"} {
		if _, ok := reg.Forecast(actor, "elec", 4); !ok {
			t.Fatalf("%s: forecast not served under refit starvation", actor)
		}
	}
	st := reg.Stats()
	if st.QueueOverflows == 0 {
		t.Fatal("no queue overflows despite a saturated depth-1 queue")
	}
	if st.MaxStaleness < 40 {
		t.Fatalf("max staleness = %d, want >= 40 (refits starved)", st.MaxStaleness)
	}
	if st.RefitsDone != 0 {
		t.Fatalf("refits done = %d, want 0 while wedged", st.RefitsDone)
	}

	close(gate.release)
	if err := reg.Quiesce(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	reg.Close()
}

// TestRegistryConcurrentRace hammers one hot series and a spread of
// cold ones from concurrent updaters, forecasters, stats readers and
// the background refit pool. Run under -race.
func TestRegistryConcurrentRace(t *testing.T) {
	cfg := testRegistryConfig()
	cfg.Workers = 2
	cfg.QueueDepth = 64
	reg := newTestRegistry(t, cfg, 8)

	const rounds = 120
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < rounds; i++ {
				// The shared hot series plus a per-worker cold spread.
				reg.UpdateMeasurements(seriesBatch("hot", i*2, 2))
				actor := fmt.Sprintf("cold-%d-%d", w, rng.Intn(8))
				reg.UpdateMeasurements(seriesBatch(actor, i*2, 2))
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			reg.Forecast("hot", "elec", 4)
			reg.Stats()
		}
	}()
	wg.Wait()

	if err := reg.Quiesce(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	st := reg.Stats()
	if st.RefitsFailed != 0 {
		t.Fatalf("refits failed = %d", st.RefitsFailed)
	}
	if st.Models == 0 {
		t.Fatal("no models created")
	}
	reg.Close()
}

// TestOneStepMatchesForecast1 pins the one-step prediction step returns,
// the value the estimation objective scores, to the general forecast.
func TestOneStepMatchesForecast1(t *testing.T) {
	m, err := NewHWT(4, 8)
	if err != nil {
		t.Fatal(err)
	}
	// The first observation bootstraps the level before predicting.
	m.Update(10)
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 200; i++ {
		want := m.Forecast(1)[0]
		if got := m.step(10 + rng.NormFloat64()); got != want {
			t.Fatalf("step %d: step predicted %.12f, Forecast(1)[0] %.12f", i, got, want)
		}
	}
}
