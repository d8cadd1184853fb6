package store_test

import (
	"os"
	"path/filepath"
	"testing"

	"mirabel/internal/flexoffer"
	"mirabel/internal/store"
	"mirabel/internal/workload"
)

// BenchmarkStoreOpen times the cold replay of a WAL in the record mix
// the repository benchmark's recover workload reopens: 7 500 offers put
// in the ingest drain's batches, 5 000 of them scheduled by a cycle
// commit (transitions that carry their schedule) and then settled
// (executed) or expired (state-only steps that keep it), and a round of
// meter facts. wal_bytes is the size of the log every open replays.
func BenchmarkStoreOpen(b *testing.B) {
	dir := b.TempDir()
	s, err := store.Open(dir)
	if err != nil {
		b.Fatal(err)
	}
	offers := workload.GenerateFlexOffers(workload.FlexOfferConfig{Count: 7500, Seed: 7})
	const batch = 256 // ingest's default coalescing bound
	for lo := 0; lo < len(offers); lo += batch {
		bt := store.NewBatch()
		for _, f := range offers[lo:min(lo+batch, len(offers))] {
			bt.PutOffer(store.OfferRecord{Offer: f, Owner: f.Prosumer, State: store.OfferAccepted})
		}
		if err := s.ApplyBatch(bt); err != nil {
			b.Fatal(err)
		}
	}
	planned := offers[:5000]
	scheduled := make([]store.OfferUpdate, len(planned))
	closed := make([]store.OfferUpdate, len(planned))
	for i, f := range planned {
		sch := f.DefaultSchedule()
		scheduled[i] = store.OfferUpdate{ID: f.ID, Mutate: func(r *store.OfferRecord) {
			r.State, r.Schedule = store.OfferScheduled, sch
		}}
		end := store.OfferExecuted
		if i%50 == 0 {
			end = store.OfferExpired
		}
		closed[i] = store.OfferUpdate{ID: f.ID, Mutate: func(r *store.OfferRecord) { r.State = end }}
	}
	for _, ups := range [][]store.OfferUpdate{scheduled, closed} {
		if _, err := s.UpdateOffers(ups); err != nil {
			b.Fatal(err)
		}
	}
	// The meter facts arrive as intake does, one batch per event; only
	// the log is wanted, so nothing applies them.
	s.SetIntakeHandoff(func(store.Intake) {})
	for q := 0; q < 320; q++ {
		ms := make([]store.Measurement, 16)
		for i := range ms {
			ms[i] = store.Measurement{Actor: offers[q].Prosumer, EnergyType: "demand", Slot: flexoffer.Time(i), KWh: 0.25}
		}
		if err := s.AppendIntake(store.Intake{Meas: ms}); err != nil {
			b.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		b.Fatal(err)
	}
	fi, err := os.Stat(filepath.Join(dir, "wal.log"))
	if err != nil {
		b.Fatal(err)
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := store.Open(dir)
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if got := s.Stats().Offers; got != len(offers) {
			b.Fatalf("reopen restored %d of %d offers", got, len(offers))
		}
		if err := s.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	b.ReportMetric(float64(fi.Size()), "wal_bytes")
}
