package forecast

import (
	"fmt"
	"testing"
	"time"

	"mirabel/internal/flexoffer"
	"mirabel/internal/store"
)

func BenchmarkHWTStep(b *testing.B) {
	m, err := NewHWT(48)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 96; i++ {
		m.Update(float64(i % 48))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.step(float64(i % 48))
	}
}

func BenchmarkMaintainerUpdate(b *testing.B) {
	m, err := NewHWT(48)
	if err != nil {
		b.Fatal(err)
	}
	hist := make([]float64, 96)
	if err := m.Init(hist); err != nil {
		b.Fatal(err)
	}
	pool := &syncPool{}
	mt := newMaintainer(m, hist, MaintainerConfig{}, 0, pool.enqueue)
	one := make([]store.Measurement, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		one[0].KWh = float64(i % 7)
		updateRun(mt, one)
	}
}

func BenchmarkRegistryUpdateBatch(b *testing.B) {
	reg := newTestRegistry(b, RegistryConfig{Periods: []int{24}}, 0)
	defer reg.Close()

	// 64 series x 4 observations per batch — the ingest-drain shape.
	const nSeries, perSeries = 64, 4
	batch := make([]store.Measurement, 0, nSeries*perSeries)
	for s := 0; s < nSeries; s++ {
		actor := fmt.Sprintf("a%03d", s)
		for i := 0; i < perSeries; i++ {
			batch = append(batch, store.Measurement{
				Actor: actor, EnergyType: "elec", Slot: flexoffer.Time(i), KWh: 5,
			})
		}
	}
	for i := 0; i < 12; i++ {
		reg.UpdateMeasurements(batch) // past warm-up for every series
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reg.UpdateMeasurements(batch)
	}
}

// BenchmarkFleetCreation times the bench fleet's creation burst: 320
// households fed five rounds of one 16-fact batch each (80 observations,
// past the 72 a model needs) into a default registry, until every
// series' first estimation is done (Quiesce). refits/op counts them.
func BenchmarkFleetCreation(b *testing.B) {
	const fleet, rounds = 320, 5
	batches := make([][]store.Measurement, 0, fleet*rounds)
	for round := 0; round < rounds; round++ {
		for id := 0; id < fleet; id++ {
			batch := make([]store.Measurement, 16)
			for i, kwh := range householdSeries(7, id, round*16, 16) {
				batch[i] = store.Measurement{Actor: fmt.Sprintf("h%04d", id), EnergyType: "demand", KWh: kwh}
			}
			batches = append(batches, batch)
		}
	}
	var refits uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reg, err := NewRegistry(RegistryConfig{})
		if err != nil {
			b.Fatal(err)
		}
		for _, batch := range batches {
			reg.UpdateMeasurements(batch)
		}
		if err := reg.Quiesce(time.Minute); err != nil {
			b.Fatal(err)
		}
		refits += reg.Stats().RefitsDone
		reg.Close()
	}
	b.ReportMetric(float64(refits)/float64(b.N), "refits/op")
}
