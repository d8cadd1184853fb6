package settle

import (
	"fmt"
	"math"

	"mirabel/internal/flexoffer"
	"mirabel/internal/store"
)

// CancelConfig parameterizes a mid-contract prosumer cancellation
// (ROADMAP "Prosumer churn mid-contract").
type CancelConfig struct {
	// PenaltyEUR is the flat cancellation charge per voided open offer.
	PenaltyEUR float64
	// PenaltyPerKWh additionally charges the offer's maximum committed
	// energy: walking away from a big flexibility window costs more
	// than abandoning a small one.
	PenaltyPerKWh float64
	// Memo annotates the close-out entry (e.g. "left mid-contract at
	// cycle 7").
	Memo string
}

// CancelReport accounts one cancellation run.
type CancelReport struct {
	Prosumer string
	// Cancelled lists the offers voided by this run (fresh cancel
	// entries on the chain).
	Cancelled []flexoffer.ID
	// AlreadyCancelled counts offers whose cancel entry was already on
	// the chain from an earlier run that crashed before transitioning
	// them.
	AlreadyCancelled int
	// PenaltyEUR is the total charged by this run's cancel entries.
	PenaltyEUR float64
	// CloseoutEUR is the close-out entry's amount — the final transfer
	// that zeroes the actor's net balance (0 when the balance was
	// already settled to zero and no entry was needed).
	CloseoutEUR float64
}

// openStates are the lifecycle states a departing prosumer's offers can
// be voided from. Executed/expired/rejected offers are history; a
// scheduled offer is voided too — the BRP re-plans without it at the
// next cycle and the penalty compensates the broken commitment.
var openStates = []store.OfferState{store.OfferReceived, store.OfferAccepted, store.OfferScheduled}

// CancelActor settles a prosumer leaving mid-contract: every open offer
// of theirs gets a penalty (EntryCancel) on the hash-chained ledger,
// followed by one balance close-out (EntryClose) that zeroes the
// actor's net position. The batch's ledger append is acked durable
// before any offer transitions to cancelled — the same commit
// discipline as Run — and EntryCancel marks its offer settled on the
// chain, so a run crashing between append and transition re-runs
// idempotently: already-chained offers just complete their transition,
// with no second charge.
func CancelActor(st *store.Store, ledger *Ledger, prosumer string, cfg CancelConfig) (*CancelReport, error) {
	if st == nil || ledger == nil {
		return nil, fmt.Errorf("settle: cancel requires store and ledger")
	}
	rep := &CancelReport{Prosumer: prosumer}

	var (
		entries []Entry
		fresh   []flexoffer.ID // transition after the append ack
		stale   []flexoffer.ID // chained by a crashed run: transition only
	)
	for _, state := range openStates {
		for _, rec := range st.Offers(store.OfferFilter{State: state}) {
			if rec.Offer == nil || !offerBelongsTo(&rec, prosumer) {
				continue
			}
			if ledger.HasSettled(rec.Offer.ID) {
				stale = append(stale, rec.Offer.ID)
				continue
			}
			penalty := cfg.PenaltyEUR + cfg.PenaltyPerKWh*maxTotalEnergy(rec.Offer)
			entries = append(entries, Entry{
				Kind:      EntryCancel,
				Actor:     prosumer,
				OfferID:   rec.Offer.ID,
				KWh:       maxTotalEnergy(rec.Offer),
				AmountEUR: -penalty,
				Memo:      fmt.Sprintf("cancelled while %s", state),
			})
			fresh = append(fresh, rec.Offer.ID)
			rep.PenaltyEUR += penalty
		}
	}
	rep.AlreadyCancelled = len(stale)

	// Complete what an earlier crashed run left behind first: their
	// penalties are already on the chain.
	if err := transitionCancelled(st, stale); err != nil {
		return nil, err
	}

	// The close-out zeroes the actor's running balance as it will stand
	// after this run's penalties land — computed up front so the whole
	// departure is one atomic chain batch.
	net := 0.0
	if b, ok := ledger.Balance(prosumer); ok {
		net = b.NetEUR
	}
	for i := range entries {
		net += entries[i].AmountEUR
	}
	if len(entries) > 0 || math.Abs(net) > 1e-9 {
		rep.CloseoutEUR = -net
		entries = append(entries, Entry{
			Kind:      EntryClose,
			Actor:     prosumer,
			AmountEUR: -net,
			Memo:      closeMemo(cfg.Memo),
		})
	}
	if len(entries) > 0 {
		// The append ack is the commit point: only once the departure is
		// durable on the chain may its offers leave the open states.
		if _, err := ledger.Append(entries); err != nil {
			return nil, err
		}
	}
	if err := transitionCancelled(st, fresh); err != nil {
		return nil, err
	}
	rep.Cancelled = fresh
	return rep, nil
}

func closeMemo(memo string) string {
	if memo == "" {
		return "contract close-out"
	}
	return "contract close-out: " + memo
}

// offerBelongsTo matches a record against the departing prosumer by the
// embedded prosumer name or, like Run, by the record's owner when the
// wire submission carried no name.
func offerBelongsTo(rec *store.OfferRecord, prosumer string) bool {
	if rec.Offer.Prosumer != "" {
		return rec.Offer.Prosumer == prosumer
	}
	return rec.Owner == prosumer
}

// maxTotalEnergy sums the profile's per-slice maxima — the offer's
// largest committed energy.
func maxTotalEnergy(f *flexoffer.FlexOffer) float64 {
	var sum float64
	for _, s := range f.Profile {
		sum += s.EnergyMax
	}
	return sum
}

// transitionCancelled moves the given offers to cancelled as one WAL
// group.
func transitionCancelled(st *store.Store, ids []flexoffer.ID) error {
	if len(ids) == 0 {
		return nil
	}
	ups := make([]store.OfferUpdate, len(ids))
	for i, id := range ids {
		ups[i] = store.OfferUpdate{ID: id, Mutate: func(rec *store.OfferRecord) {
			rec.State = store.OfferCancelled
		}}
	}
	failed, err := st.UpdateOffers(ups)
	if err != nil {
		return err
	}
	for i, err := range failed {
		if err != nil {
			return fmt.Errorf("settle: cancel offer %d: %w", ids[i], err)
		}
	}
	return nil
}
