//go:build !race

package forecast

import (
	"testing"
	"time"

	"mirabel/internal/flexoffer"
	"mirabel/internal/store"
)

// The race detector instruments allocations, so the zero-alloc pins
// only run in plain builds — CI runs both variants.

// TestHWTOneStepZeroAlloc: step, the one-step prediction and update the
// Maintainer runs per observation, allocates nothing.
func TestHWTOneStepZeroAlloc(t *testing.T) {
	m, err := NewHWT(4, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 32; i++ {
		m.Update(float64(i % 4))
	}
	if n := testing.AllocsPerRun(1000, func() {
		_ = m.step(2)
	}); n != 0 {
		t.Fatalf("step allocates %.1f times per op, want 0", n)
	}
}

func TestMaintainerUpdateZeroAlloc(t *testing.T) {
	m, err := NewHWT(4)
	if err != nil {
		t.Fatal(err)
	}
	hist := make([]float64, 8)
	if err := m.Init(hist); err != nil {
		t.Fatal(err)
	}
	// A zero interval never triggers: the steady-state path with no
	// re-estimation in sight.
	pool := &syncPool{}
	mt := newMaintainer(m, hist, MaintainerConfig{}, 0, pool.enqueue)
	one := []store.Measurement{{KWh: 3}}
	if n := testing.AllocsPerRun(1000, func() {
		updateRun(mt, one)
	}); n != 0 {
		t.Fatalf("a Maintainer observation allocates %.1f times, want 0", n)
	}
}

func TestRegistryUpdateBatchZeroAlloc(t *testing.T) {
	reg := newTestRegistry(t, testRegistryConfig(), 0)
	defer reg.Close()

	batch := make([]store.Measurement, 16)
	for i := range batch {
		batch[i] = store.Measurement{Actor: "a1", EnergyType: "elec", Slot: flexoffer.Time(i), KWh: 5}
	}
	reg.UpdateMeasurements(batch) // past warm-up: model exists
	// The model's first estimation runs on the background pool; let it
	// land so its allocations stay out of the malloc counters. No
	// re-estimation is ever due after it.
	if err := reg.Quiesce(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(200, func() {
		reg.UpdateMeasurements(batch)
	}); n != 0 {
		t.Fatalf("UpdateMeasurements allocates %.1f times per batch, want 0", n)
	}
}

// TestHWTObjectiveAllocFree: an objective evaluation — copy the seed,
// replay the training window, score the hold-out — runs entirely in the
// fit's scratch model.
func TestHWTObjectiveAllocFree(t *testing.T) {
	for _, periods := range [][]int{{48}, {8, 24}, {4, 12, 36}} {
		longest := longestPeriod(periods)
		history := noisySeasonal(1, 4*longest, periods...)
		obj, err := newHWTObjective(periods, history, 3*longest)
		if err != nil {
			t.Fatal(err)
		}
		p := defaultParams(len(periods))
		if n := testing.AllocsPerRun(200, func() {
			p[0] = 1 - p[0] // a different point every evaluation
			_ = obj.eval(p)
		}); n != 0 {
			t.Fatalf("periods %v: objective evaluation allocates %.1f times, want 0", periods, n)
		}
	}
}
