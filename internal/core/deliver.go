package core

import (
	"context"
	"errors"

	"mirabel/internal/agg"
	"mirabel/internal/flexoffer"
	"mirabel/internal/store"
)

// commitMicroSchedules is the scheduling cycle's commit phase, its one
// caller. Under the node lock it reconciles planned micro schedules
// against the offers the pipeline still holds as it stages them: a
// schedule for an offer that is no longer pending is dropped (reported
// in the reconciled count) rather than double-scheduled, and since
// staging accumulates each offer's delete, a second schedule for one
// offer in the same batch is dropped the same way — the first wins,
// before any store write. Survivors are persisted as scheduled, leave
// the aggregation pipeline, and are grouped by owner for the deliver
// phase; an offer whose store update failed is inserted again, which
// cancels its pending delete. Offers accepted mid-plan are untouched:
// they were never in the snapshot, stay pending and keep their place
// in the live pipeline for the next cycle.
func (n *Node) commitMicroSchedules(micro []*flexoffer.Schedule) (map[string][]*flexoffer.Schedule, int, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	reconciled := 0

	// Stage the transitions of every schedule still pending, then apply
	// them as one UpdateOffers batch: a single WAL group commit instead
	// of one log append per micro schedule. One Mutate serves the whole
	// batch: UpdateOffers calls it in update order and only for stored
	// records, so a cursor over staged finds each record's schedule.
	staged := make([]*flexoffer.Schedule, 0, len(micro))
	leaving := make([]agg.FlexOfferUpdate, 0, len(micro))
	updates := make([]store.OfferUpdate, 0, len(micro))
	next := 0
	schedule := func(r *store.OfferRecord) {
		for staged[next].OfferID != r.Offer.ID {
			next++
		}
		r.State = store.OfferScheduled
		r.Schedule = staged[next]
		next++
	}
	for _, s := range micro {
		f, ok := n.pipeline.Offer(s.OfferID)
		if !ok {
			reconciled++
			continue
		}
		u := agg.FlexOfferUpdate{Kind: agg.Delete, Offer: f}
		_ = n.pipeline.Accumulate(u) // f is held: the delete cannot fail
		updates = append(updates, store.OfferUpdate{ID: s.OfferID, Mutate: schedule})
		staged = append(staged, s)
		leaving = append(leaving, u)
	}
	// restore gives the offers the store did not schedule back to the
	// pipeline exactly as they were.
	restore := func(us ...agg.FlexOfferUpdate) {
		for i := range us {
			us[i].Kind = agg.Insert
		}
		_ = n.pipeline.Accumulate(us...)
	}
	results, err := n.store.UpdateOffers(updates)
	if err != nil {
		restore(leaving...)
		return nil, reconciled, err
	}

	byOwner := make(map[string][]*flexoffer.Schedule)
	var failed error
	for i := range results {
		res, s := &results[i], staged[i]
		if res.Err != nil {
			restore(leaving[i])
			if errors.Is(res.Err, store.ErrUnknownOffer) {
				reconciled++
			} else if failed == nil {
				failed = res.Err
			}
			continue
		}
		byOwner[res.Record.Owner] = append(byOwner[res.Record.Owner], s)
	}
	// Every offer the store scheduled leaves the aggregates now, before
	// a per-update failure is surfaced.
	if len(byOwner) > 0 {
		n.pipeline.Process()
	}
	if failed != nil {
		return nil, reconciled, failed
	}
	return byOwner, reconciled, nil
}

// deliver fans the committed schedules out to their owners with bounded
// concurrency, outside the node lock. It returns the number of owners
// that could not be reached after the retry policy gave up.
func (n *Node) deliver(ctx context.Context, byOwner map[string][]*flexoffer.Schedule) int {
	if n.client == nil || len(byOwner) == 0 {
		return 0
	}
	return len(n.client.NotifySchedulesAll(ctx, byOwner))
}
