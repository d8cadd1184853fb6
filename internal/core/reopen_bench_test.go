package core

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"mirabel/internal/agg"
	"mirabel/internal/flexoffer"
	"mirabel/internal/forecast"
	"mirabel/internal/ingest"
	"mirabel/internal/settle"
	"mirabel/internal/store"
	"mirabel/internal/workload"
)

// writeCrashedNode leaves in dir what a BRP leaves when it dies in the
// middle of intake, in the record mix of the repository benchmark's
// recover workload: n offers acked through the ingest queue, the first
// planned of them scheduled by a cycle commit and then settled onto the
// ledger (executed) or expired, a round of meter facts, and a WAL tail
// of the offers still accepted — acked, and then killed before an
// intake barrier applied them.
func writeCrashedNode(tb testing.TB, dir string, n, planned int) {
	tb.Helper()
	st, err := store.Open(dir)
	if err != nil {
		tb.Fatal(err)
	}
	q, err := ingest.Open(ingest.Config{Store: st})
	if err != nil {
		tb.Fatal(err)
	}
	offers := workload.GenerateFlexOffers(workload.FlexOfferConfig{Count: n, Seed: 7})
	ack := func(fs []*flexoffer.FlexOffer) {
		for _, f := range fs {
			if err := q.SubmitOffer(context.Background(), store.OfferRecord{Offer: f, Owner: f.Prosumer, State: store.OfferAccepted}); err != nil {
				tb.Fatal(err)
			}
		}
	}
	ack(offers[:planned])
	if err := q.Drain(context.Background()); err != nil {
		tb.Fatal(err)
	}
	scheduled := make([]store.OfferUpdate, planned)
	closed := make([]store.OfferUpdate, planned)
	var lines []settle.Entry
	for i, f := range offers[:planned] {
		sch := f.DefaultSchedule()
		scheduled[i] = store.OfferUpdate{ID: f.ID, Mutate: func(r *store.OfferRecord) {
			r.State, r.Schedule = store.OfferScheduled, sch
		}}
		end := store.OfferExecuted
		if i%50 == 0 {
			end = store.OfferExpired
		} else {
			lines = append(lines, settle.Entry{Kind: settle.EntryLine, Actor: f.Prosumer, OfferID: f.ID, Slot: sch.Start, KWh: 1, AmountEUR: 0.05, Compliant: true})
		}
		closed[i] = store.OfferUpdate{ID: f.ID, Mutate: func(r *store.OfferRecord) { r.State = end }}
	}
	for _, ups := range [][]store.OfferUpdate{scheduled, closed} {
		if _, err := st.UpdateOffers(ups); err != nil {
			tb.Fatal(err)
		}
	}
	for i := 0; i < 320; i++ {
		ms := make([]store.Measurement, 16)
		for j := range ms {
			ms[j] = store.Measurement{Actor: offers[i%n].Prosumer, EnergyType: "demand", Slot: flexoffer.Time(j), KWh: 0.25}
		}
		if err := q.SubmitMeasurements(context.Background(), ms); err != nil {
			tb.Fatal(err)
		}
	}
	ack(offers[planned:])
	q.Kill()
	if err := st.Close(); err != nil {
		tb.Fatal(err)
	}

	l, err := settle.OpenLedger(settle.LedgerConfig{Path: filepath.Join(dir, "ledger.log")})
	if err != nil {
		tb.Fatal(err)
	}
	const batch = 256 // settle.Run's default batch
	for lo := 0; lo < len(lines); lo += batch {
		if _, err := l.Append(lines[lo:min(lo+batch, len(lines))]); err != nil {
			tb.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		tb.Fatal(err)
	}
}

// reopenConfig is the BRP configuration that reopens a crashed
// directory: the store st opened over dir, and the ledger beside it.
func reopenConfig(dir string, st *store.Store) Config {
	return Config{
		Name: "brp1", Store: st,
		AggParams:   agg.ParamsP3,
		Forecasting: &forecast.RegistryConfig{},
		Settlement:  &settle.LedgerConfig{Path: filepath.Join(dir, "ledger.log")},
	}
}

// copyFiles copies the regular files of src into dst, which it creates.
func copyFiles(tb testing.TB, src, dst string) {
	tb.Helper()
	if err := os.MkdirAll(dst, 0o755); err != nil {
		tb.Fatal(err)
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		tb.Fatal(err)
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		raw, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			tb.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), raw, 0o644); err != nil {
			tb.Fatal(err)
		}
	}
}

// BenchmarkNodeReopen times NewNode over a fresh copy of a crashed BRP
// directory at the recover workload's sizes (7 500 offers, 5 000 of them
// planned, a 2 500-offer tail the applier never reached): the forecast
// registry's start, the ledger's chain walk and the re-admission of the
// accepted offers. The store, whose WAL replay brings the tail back, is
// opened outside the timer; BenchmarkStoreOpen times that replay.
func BenchmarkNodeReopen(b *testing.B) {
	crashed := b.TempDir()
	writeCrashedNode(b, crashed, 7500, 5000)
	dir := filepath.Join(b.TempDir(), "reopen")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if err := os.RemoveAll(dir); err != nil {
			b.Fatal(err)
		}
		copyFiles(b, crashed, dir)
		st, err := store.Open(dir)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		n, err := NewNode(reopenConfig(dir, st))
		b.StopTimer()
		if err != nil {
			b.Fatal(err)
		}
		if got := n.RecoveredPending(); got != 2500 {
			b.Fatalf("reopen re-admitted %d of 2500 accepted offers", got)
		}
		n.Kill()
		b.StartTimer()
	}
}
