package settle

import (
	"fmt"
	"math"

	"mirabel/internal/flexoffer"
	"mirabel/internal/store"
)

// RunConfig parameterizes a batched settlement run over the store.
type RunConfig struct {
	// Store holds the scheduled offers to settle.
	Store *store.Store
	// Ledger receives the settlement entries; its append ack gates the
	// offer transitions.
	Ledger *Ledger
	// Metered maps offer → measured energy per schedule slice; offers
	// without an entry settle as perfectly compliant (metered ==
	// scheduled), the common case.
	Metered map[flexoffer.ID][]float64
	// Settle parameterizes the settlement arithmetic.
	Settle Config
	// BatchSize bounds one ledger-append + offer-transition unit
	// (default 256).
	BatchSize int
}

// RunReport extends Report with the run's durability accounting.
type RunReport struct {
	Report
	// AlreadySettled counts offers whose settlement line was already on
	// the ledger from an earlier run that crashed before transitioning
	// them — they were moved to executed without new ledger entries.
	AlreadySettled int
	// Batches is the number of ledger-append/transition units committed.
	Batches int
}

// testCrashAfterBatch, when set by tests, simulates a crash between a
// batch's ledger append (acked, durable) and its offer transition: if
// it returns true for the just-appended batch index, Run stops
// immediately, leaving those offers scheduled. Re-running must then
// dedup against the ledger.
var testCrashAfterBatch func(batch int) bool

// errCrashed marks the simulated crash.
var errCrashed = fmt.Errorf("settle: simulated crash after ledger append")

// Run settles every scheduled offer in the store as one batched run:
// the settlement arithmetic happens once over all fresh offers (so the
// profit-share pool splits globally, not per batch), then entries are
// appended to the ledger and offers transitioned to executed in
// batches, with each batch's ledger append acked before its
// transitions. A crash between the two leaves the batch's offers
// scheduled but their lines on the chain; the next Run detects them via
// the ledger's settled-offer index and just completes the transition —
// re-settlement is idempotent, the chain never holds duplicates.
func Run(cfg RunConfig) (*RunReport, error) {
	if cfg.Store == nil || cfg.Ledger == nil {
		return nil, fmt.Errorf("settle: run requires store and ledger")
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 256
	}

	recs := cfg.Store.Offers(store.OfferFilter{State: store.OfferScheduled})
	var (
		items []Item         // fresh offers to settle
		ids   []flexoffer.ID // ids aligned with items
		stale []flexoffer.ID // already on the ledger, just transition
	)
	for _, rec := range recs {
		if rec.Schedule == nil {
			continue
		}
		if cfg.Ledger.HasSettled(rec.Offer.ID) {
			stale = append(stale, rec.Offer.ID)
			continue
		}
		metered, ok := cfg.Metered[rec.Offer.ID]
		if !ok {
			metered = MeteredFromSchedule(rec.Schedule)
		}
		// The ledger needs an actor per line; offers submitted over the
		// wire often carry only the store record's owner, not an
		// embedded prosumer name.
		off := rec.Offer
		if off.Prosumer == "" && rec.Owner != "" {
			c := *off
			c.Prosumer = rec.Owner
			off = &c
		}
		items = append(items, Item{
			Offer:      off,
			Schedule:   rec.Schedule,
			PremiumEUR: off.CostPerKWh,
			Metered:    metered,
		})
		ids = append(ids, rec.Offer.ID)
	}

	rep, err := Settle(items, cfg.Settle)
	if err != nil {
		return nil, err
	}
	out := &RunReport{Report: *rep, AlreadySettled: len(stale)}

	// Complete the transitions an earlier crashed run left behind
	// before settling anything new: their money is already on the
	// chain.
	if len(stale) > 0 {
		if err := transitionExecuted(cfg.Store, stale); err != nil {
			return nil, err
		}
	}

	for start := 0; start < len(rep.Lines); start += cfg.BatchSize {
		end := start + cfg.BatchSize
		if end > len(rep.Lines) {
			end = len(rep.Lines)
		}
		var entries []Entry
		for i := start; i < end; i++ {
			entries = append(entries, entriesForLine(&rep.Lines[i])...)
		}
		// The append ack is the commit point: only once the batch is
		// durable may its offers leave the scheduled state.
		if _, err := cfg.Ledger.Append(entries); err != nil {
			return nil, err
		}
		if testCrashAfterBatch != nil && testCrashAfterBatch(out.Batches) {
			return out, errCrashed
		}
		if err := transitionExecuted(cfg.Store, ids[start:end]); err != nil {
			return nil, err
		}
		out.Batches++
	}
	return out, nil
}

// entriesForLine translates one settlement line into its ledger
// entries. The amounts reconcile exactly: Σ AmountEUR over an offer's
// entries equals the line's NetEUR (the penalty entry charges only what
// the never-below-zero clamp actually deducts).
func entriesForLine(l *Line) []Entry {
	entries := []Entry{{
		Kind:      EntryLine,
		Actor:     l.Prosumer,
		OfferID:   l.OfferID,
		KWh:       l.MeteredKWh,
		AmountEUR: l.PaymentEUR,
		Compliant: l.Compliant,
	}}
	if l.PenaltyEUR > 0 {
		charged := math.Min(l.PenaltyEUR, l.PaymentEUR)
		entries = append(entries, Entry{
			Kind:      EntryPenalty,
			Actor:     l.Prosumer,
			OfferID:   l.OfferID,
			KWh:       l.DeviationKWh,
			AmountEUR: -charged,
			Memo:      fmt.Sprintf("raw penalty %.6f EUR", l.PenaltyEUR),
		})
	}
	if l.ShareEUR > 0 {
		entries = append(entries, Entry{
			Kind:      EntryShare,
			Actor:     l.Prosumer,
			OfferID:   l.OfferID,
			AmountEUR: l.ShareEUR,
		})
	}
	return entries
}

// transitionExecuted moves the given offers scheduled → executed as one
// WAL-group batch.
func transitionExecuted(st *store.Store, ids []flexoffer.ID) error {
	if len(ids) == 0 {
		return nil
	}
	ups := make([]store.OfferUpdate, len(ids))
	for i, id := range ids {
		ups[i] = store.OfferUpdate{ID: id, Mutate: func(rec *store.OfferRecord) {
			rec.State = store.OfferExecuted
		}}
	}
	failed, err := st.UpdateOffers(ups)
	if err != nil {
		return err
	}
	for i, err := range failed {
		if err != nil {
			return fmt.Errorf("settle: transition offer %d: %w", ids[i], err)
		}
	}
	return nil
}
