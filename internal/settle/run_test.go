package settle

import (
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"testing"

	"mirabel/internal/flexoffer"
	"mirabel/internal/store"
)

func scheduledOffer(id flexoffer.ID, prosumer string, premium float64, energy []float64) store.OfferRecord {
	profile := make([]flexoffer.Slice, len(energy))
	for i, e := range energy {
		profile[i] = flexoffer.Slice{EnergyMin: e - 5, EnergyMax: e + 5}
	}
	return store.OfferRecord{
		Offer: &flexoffer.FlexOffer{
			ID: id, Prosumer: prosumer, EarliestStart: 10, LatestStart: 20, AssignBefore: 5,
			Profile: profile, CostPerKWh: premium,
		},
		Owner:    prosumer,
		State:    store.OfferScheduled,
		Schedule: &flexoffer.Schedule{OfferID: id, Start: 12, Energy: energy},
	}
}

// seededStore is an in-memory store holding recs.
func seededStore(t *testing.T, recs ...store.OfferRecord) *store.Store {
	t.Helper()
	st := store.NewInMemory()
	b := store.NewBatch()
	for _, rec := range recs {
		b.PutOffer(rec)
	}
	if err := st.ApplyBatch(b); err != nil {
		t.Fatal(err)
	}
	return st
}

func assertStates(t *testing.T, st *store.Store, state store.OfferState, want int) {
	t.Helper()
	if got := len(st.Offers(store.OfferFilter{State: state})); got != want {
		t.Errorf("offers in state %q = %d, want %d", state, got, want)
	}
}

func TestRunSettlesScheduledOffers(t *testing.T) {
	var recs []store.OfferRecord
	for i := 1; i <= 5; i++ {
		recs = append(recs, scheduledOffer(flexoffer.ID(i), fmt.Sprintf("p%d", i), 0.02, []float64{10, 10}))
	}
	st := seededStore(t, recs...)
	led := openTestLedger(t, filepath.Join(t.TempDir(), "ledger.log"))
	defer led.Close()

	rep, err := Run(RunConfig{
		Store:  st,
		Ledger: led,
		Settle: Config{ShareFrac: 0.5, RealizedProfitEUR: 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Lines) != 5 || rep.CompliantCount != 5 || rep.AlreadySettled != 0 {
		t.Fatalf("report = %+v", rep)
	}
	assertStates(t, st, store.OfferScheduled, 0)
	assertStates(t, st, store.OfferExecuted, 5)

	// Each compliant line lands as one line entry plus one share entry,
	// and per-actor balances equal the line nets.
	stats := led.Stats()
	if stats.Entries != 10 || stats.SettledOffers != 5 {
		t.Errorf("ledger stats = %+v", stats)
	}
	for _, l := range rep.Lines {
		b, ok := led.Balance(l.Prosumer)
		if !ok || math.Abs(b.NetEUR-l.NetEUR) > 1e-9 {
			t.Errorf("balance(%s) = %+v, want net %g", l.Prosumer, b, l.NetEUR)
		}
	}
	res, err := led.Verify()
	if err != nil || !res.OK {
		t.Fatalf("verify = %+v, %v", res, err)
	}

	// A second run finds nothing: no scheduled offers, no duplicates.
	rep2, err := Run(RunConfig{Store: st, Ledger: led})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep2.Lines) != 0 || rep2.AlreadySettled != 0 {
		t.Errorf("re-run report = %+v", rep2)
	}
	if led.Stats().Entries != 10 {
		t.Error("re-run appended entries")
	}
}

func TestRunEntriesReconcileWithLineNet(t *testing.T) {
	// Offer 1 compliant; offer 2 deviates so hard the penalty exceeds
	// the payment — the ledger must charge only the clamped amount.
	st := seededStore(t, scheduledOffer(1, "good", 0.02, []float64{10, 10}), scheduledOffer(2, "bad", 0.001, []float64{10}))
	led := openTestLedger(t, filepath.Join(t.TempDir(), "ledger.log"))
	defer led.Close()

	rep, err := Run(RunConfig{
		Store:   st,
		Ledger:  led,
		Metered: map[flexoffer.ID][]float64{2: {30}},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range rep.Lines {
		b, ok := led.Balance(l.Prosumer)
		if !ok || math.Abs(b.NetEUR-l.NetEUR) > 1e-9 {
			t.Errorf("Σ entries for %s = %g, want line net %g", l.Prosumer, b.NetEUR, l.NetEUR)
		}
	}
	if b, _ := led.Balance("bad"); b.NetEUR != 0 || b.Deviations != 1 {
		t.Errorf("clamped penalty balance = %+v", b)
	}
}

// TestRunCrashRecoveryIdempotent is the crash-acceptance test: the run
// dies between a batch's (acked) ledger append and its offer
// transition; after "reboot" (reopening the ledger from disk), a second
// run must recognize the already-settled offers from the chain, finish
// their transitions without re-appending, and settle the untouched rest
// normally.
func TestRunCrashRecoveryIdempotent(t *testing.T) {
	const offers, batchSize = 10, 4
	var recs []store.OfferRecord
	for i := 1; i <= offers; i++ {
		recs = append(recs, scheduledOffer(flexoffer.ID(i), fmt.Sprintf("p%d", i), 0.02, []float64{10}))
	}
	st := seededStore(t, recs...)
	path := filepath.Join(t.TempDir(), "ledger.log")
	led := openTestLedger(t, path)

	testCrashAfterBatch = func(batch int) bool { return batch == 0 }
	defer func() { testCrashAfterBatch = nil }()
	_, err := Run(RunConfig{Store: st, Ledger: led, BatchSize: batchSize})
	if !errors.Is(err, errCrashed) {
		t.Fatalf("run error = %v, want simulated crash", err)
	}
	// The crash hit after batch 0's append: its 4 lines are durable on
	// the chain, but every offer is still scheduled.
	if got := led.Stats().Entries; got != batchSize {
		t.Fatalf("entries at crash = %d, want %d", got, batchSize)
	}
	assertStates(t, st, store.OfferScheduled, offers)
	if err := led.Close(); err != nil {
		t.Fatal(err)
	}
	testCrashAfterBatch = nil

	// Reboot: reopen the ledger from disk and re-run.
	led = openTestLedger(t, path)
	defer led.Close()
	if led.Stats().RecoveredEntries != batchSize {
		t.Fatalf("recovered = %d, want %d", led.Stats().RecoveredEntries, batchSize)
	}
	rep, err := Run(RunConfig{Store: st, Ledger: led, BatchSize: batchSize})
	if err != nil {
		t.Fatal(err)
	}
	if rep.AlreadySettled != batchSize {
		t.Errorf("already settled = %d, want %d", rep.AlreadySettled, batchSize)
	}
	if len(rep.Lines) != offers-batchSize {
		t.Errorf("fresh lines = %d, want %d", len(rep.Lines), offers-batchSize)
	}
	assertStates(t, st, store.OfferScheduled, 0)
	assertStates(t, st, store.OfferExecuted, offers)

	// No duplicates: exactly one line entry per offer, chain verifies.
	stats := led.Stats()
	if stats.Entries != offers || stats.SettledOffers != offers {
		t.Errorf("ledger after recovery = %+v", stats)
	}
	res, err := led.Verify()
	if err != nil || !res.OK || res.Entries != offers {
		t.Fatalf("verify after recovery = %+v, %v", res, err)
	}

	// A third run is a no-op.
	rep3, err := Run(RunConfig{Store: st, Ledger: led})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep3.Lines) != 0 || rep3.AlreadySettled != 0 || led.Stats().Entries != offers {
		t.Errorf("third run = %+v, entries = %d", rep3, led.Stats().Entries)
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(RunConfig{}); err == nil {
		t.Error("run without store/ledger accepted")
	}
}

func TestTradeAndNegotiationEntries(t *testing.T) {
	led := openTestLedger(t, filepath.Join(t.TempDir(), "ledger.log"))
	defer led.Close()
	if _, err := led.Append([]Entry{
		{Kind: EntryTrade, Actor: "market", Slot: 40, KWh: 12.5, AmountEUR: 1.75, Memo: "buy imbalance cover"},
		{Kind: EntryNegotiation, Actor: "p7", OfferID: 7, Compliant: true, Memo: "accepted at 0.031000 EUR/kWh"},
		{Kind: EntryNegotiation, Actor: "p8", OfferID: 8, Memo: "rejected: cap below reservation"},
	}); err != nil {
		t.Fatal(err)
	}
	if b, _ := led.Balance("market"); math.Abs(b.NetEUR-1.75) > 1e-12 {
		t.Errorf("market balance = %+v", b)
	}
	// Negotiation entries are audit-only: no cash movement.
	if b, _ := led.Balance("p7"); b.NetEUR != 0 || b.Entries != 1 {
		t.Errorf("p7 balance = %+v", b)
	}
	if led.HasSettled(7) {
		t.Error("negotiation entry marked offer as settled")
	}
	res, err := led.Verify()
	if err != nil || !res.OK || res.Entries != 3 {
		t.Fatalf("verify = %+v, %v", res, err)
	}
}
