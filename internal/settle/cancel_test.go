package settle

import (
	"math"
	"path/filepath"
	"testing"

	"mirabel/internal/flexoffer"
	"mirabel/internal/store"
)

func openOffer(id flexoffer.ID, prosumer string, state store.OfferState, energy []float64) store.OfferRecord {
	rec := scheduledOffer(id, prosumer, 0.02, energy)
	rec.State = state
	if state != store.OfferScheduled {
		rec.Schedule = nil
	}
	return rec
}

func TestCancelActorVoidsOpenOffers(t *testing.T) {
	// p1 holds one offer in each open state, plus an executed one that
	// is history and must stay untouched.
	st := seededStore(t,
		openOffer(1, "p1", store.OfferReceived, []float64{10}),
		openOffer(2, "p1", store.OfferAccepted, []float64{10, 10}),
		openOffer(3, "p1", store.OfferScheduled, []float64{10}),
		openOffer(4, "p1", store.OfferExecuted, []float64{10}),
		openOffer(5, "p2", store.OfferAccepted, []float64{10}),
	)
	led := openTestLedger(t, filepath.Join(t.TempDir(), "ledger.log"))
	defer led.Close()

	cfg := CancelConfig{PenaltyEUR: 1, PenaltyPerKWh: 0.1, Memo: "left at cycle 7"}
	rep, err := CancelActor(st, led, "p1", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Cancelled) != 3 || rep.AlreadyCancelled != 0 {
		t.Fatalf("report = %+v", rep)
	}
	// Profile maxima are energy+5 per slice: 15 + 30 + 15 kWh voided.
	wantPenalty := 3*cfg.PenaltyEUR + cfg.PenaltyPerKWh*(15+30+15)
	if math.Abs(rep.PenaltyEUR-wantPenalty) > 1e-9 {
		t.Errorf("penalty = %g, want %g", rep.PenaltyEUR, wantPenalty)
	}
	assertStates(t, st, store.OfferCancelled, 3)
	assertStates(t, st, store.OfferExecuted, 1)
	if got := st.Offers(store.OfferFilter{State: store.OfferAccepted}); len(got) != 1 || got[0].Owner != "p2" {
		t.Errorf("p2's offer disturbed: %+v", got)
	}

	// The close-out zeroes the departing actor's balance exactly.
	if b, ok := led.Balance("p1"); !ok || math.Abs(b.NetEUR) > 1e-9 {
		t.Errorf("balance after close-out = %+v", b)
	}
	if math.Abs(rep.CloseoutEUR-wantPenalty) > 1e-9 {
		t.Errorf("close-out = %g, want %g", rep.CloseoutEUR, wantPenalty)
	}
	if res, err := led.Verify(); err != nil || !res.OK {
		t.Fatalf("verify = %+v, %v", res, err)
	}

	// Re-running the departure is a no-op: no open offers remain, the
	// balance is already zero, nothing lands on the chain.
	before := led.Stats().Entries
	rep2, err := CancelActor(st, led, "p1", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep2.Cancelled) != 0 || rep2.AlreadyCancelled != 0 || led.Stats().Entries != before {
		t.Errorf("re-run = %+v, entries %d -> %d", rep2, before, led.Stats().Entries)
	}
}

// TestCancelActorCrashRecovery plays the crash window: a prior run
// appended offer 1's cancel entry (acked, durable) but died before the
// store transition. After reopening the ledger from disk, a fresh run
// must finish the transition without charging the offer twice, and void
// the remaining open offer normally.
func TestCancelActorCrashRecovery(t *testing.T) {
	st := seededStore(t,
		openOffer(1, "p1", store.OfferAccepted, []float64{10}),
		openOffer(2, "p1", store.OfferScheduled, []float64{10}),
	)
	path := filepath.Join(t.TempDir(), "ledger.log")
	led := openTestLedger(t, path)
	if _, err := led.Append([]Entry{{
		Kind: EntryCancel, Actor: "p1", OfferID: 1, KWh: 15, AmountEUR: -2.5,
		Memo: "cancelled while accepted",
	}}); err != nil {
		t.Fatal(err)
	}
	if err := led.Close(); err != nil {
		t.Fatal(err)
	}

	// Reboot: recovery must rebuild the settled set from the chain so
	// the stale offer is recognized.
	led = openTestLedger(t, path)
	defer led.Close()
	if led.Stats().RecoveredEntries != 1 || !led.HasSettled(1) {
		t.Fatalf("recovery stats = %+v, settled(1)=%v", led.Stats(), led.HasSettled(1))
	}
	rep, err := CancelActor(st, led, "p1", CancelConfig{PenaltyEUR: 2.5})
	if err != nil {
		t.Fatal(err)
	}
	if rep.AlreadyCancelled != 1 {
		t.Errorf("already cancelled = %d, want 1", rep.AlreadyCancelled)
	}
	if len(rep.Cancelled) != 1 || rep.Cancelled[0] != 2 {
		t.Errorf("fresh cancels = %v, want [2]", rep.Cancelled)
	}
	assertStates(t, st, store.OfferCancelled, 2)
	// Chain holds the crashed entry, one fresh cancel, one close-out —
	// no duplicate for offer 1 — and the balance still zeroes.
	if got := led.Stats().Entries; got != 3 {
		t.Errorf("entries = %d, want 3", got)
	}
	if b, _ := led.Balance("p1"); math.Abs(b.NetEUR) > 1e-9 {
		t.Errorf("balance = %+v", b)
	}
	if res, err := led.Verify(); err != nil || !res.OK {
		t.Fatalf("verify = %+v, %v", res, err)
	}
}

// A departing actor with earnings but no open offers still gets a
// close-out entry returning the balance to zero.
func TestCancelActorCloseoutOnly(t *testing.T) {
	st := store.NewInMemory()
	led := openTestLedger(t, filepath.Join(t.TempDir(), "ledger.log"))
	defer led.Close()
	if _, err := led.Append([]Entry{{Kind: EntryLine, Actor: "p1", OfferID: 9, AmountEUR: 5}}); err != nil {
		t.Fatal(err)
	}
	rep, err := CancelActor(st, led, "p1", CancelConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Cancelled) != 0 || math.Abs(rep.CloseoutEUR+5) > 1e-9 {
		t.Errorf("report = %+v, want close-out -5", rep)
	}
	if b, _ := led.Balance("p1"); math.Abs(b.NetEUR) > 1e-9 {
		t.Errorf("balance = %+v", b)
	}
}

func TestCancelActorValidation(t *testing.T) {
	if _, err := CancelActor(nil, nil, "p1", CancelConfig{}); err == nil {
		t.Error("cancel without store/ledger accepted")
	}
}
