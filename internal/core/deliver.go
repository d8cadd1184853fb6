package core

import (
	"context"
	"errors"
	"fmt"

	"mirabel/internal/agg"
	"mirabel/internal/comm"
	"mirabel/internal/flexoffer"
	"mirabel/internal/store"
)

// handleScheduleNotify records the final schedules a prosumer's BRP
// sends back in the offers' store records, their only copy (prosumer
// duty; a BRP does not register it). The notify is refused whole,
// before any record changes, when it comes from anyone but the parent,
// when a schedule is not finite, or when one names an offer this
// prosumer never submitted.
func (n *Node) handleScheduleNotify(ctx context.Context, env comm.Envelope) (*comm.Envelope, error) {
	if env.From != n.cfg.Parent {
		return nil, fmt.Errorf("core: %s takes schedules from its BRP %q, not from %q", n.cfg.Name, n.cfg.Parent, env.From)
	}
	var body comm.ScheduleNotify
	if err := env.Decode(comm.MsgScheduleNotify, &body); err != nil {
		return nil, err
	}
	for _, s := range body.Schedules {
		if err := s.CheckFinite(); err != nil {
			return nil, err
		}
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	// A prosumer's store never drops an offer, so every record found
	// here is still there to update below.
	for _, s := range body.Schedules {
		if _, ok := n.store.GetOffer(s.OfferID); !ok {
			return nil, fmt.Errorf("core: %s never submitted offer %d: %w", n.cfg.Name, s.OfferID, store.ErrUnknownOffer)
		}
	}
	for _, s := range body.Schedules {
		sched := s
		if _, err := n.store.UpdateOffer(s.OfferID, func(rec *store.OfferRecord) {
			rec.State = store.OfferScheduled
			rec.Schedule = sched
		}); err != nil {
			return nil, err
		}
	}
	return nil, nil
}

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
