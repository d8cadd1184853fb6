package core

import (
	"context"
	"errors"
	"sort"

	"mirabel/internal/agg"
	"mirabel/internal/comm"
	"mirabel/internal/flexoffer"
	"mirabel/internal/store"
)

// handleScheduleNotify records the final schedules a prosumer's BRP
// sends back (prosumer duty; a BRP does not register it). The whole
// notify is refused before any of it is committed if one schedule is
// not finite.
func (n *Node) handleScheduleNotify(ctx context.Context, env comm.Envelope) (*comm.Envelope, error) {
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
	for _, s := range body.Schedules {
		n.schedules[s.OfferID] = s
		sched := s
		if _, err := n.store.UpdateOffer(s.OfferID, func(rec *store.OfferRecord) {
			rec.State = store.OfferScheduled
			rec.Schedule = sched
		}); err != nil && !errors.Is(err, store.ErrUnknownOffer) {
			return nil, err
		}
	}
	return nil, nil
}

// commitMicroSchedules is the scheduling cycle's commit phase, its one
// caller. Under the node lock it reconciles planned micro schedules
// against the live pending set: an offer that is no longer pending, or
// that a batch names twice, is dropped (reported in the reconciled
// count) rather than double-scheduled. Survivors are persisted as
// scheduled, leave the pending set and the aggregation pipeline, and
// are grouped by owner for the deliver phase. Offers accepted mid-plan
// are untouched: they were never in the snapshot, stay pending and
// keep their place in the live pipeline for the next cycle.
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
		if _, ok := n.pending[s.OfferID]; !ok {
			reconciled++
			continue
		}
		updates = append(updates, store.OfferUpdate{ID: s.OfferID, Mutate: schedule})
		staged = append(staged, s)
	}
	results, err := n.store.UpdateOffers(updates)
	if err != nil {
		return nil, reconciled, err
	}

	byOwner := make(map[string][]*flexoffer.Schedule)
	done := make([]agg.FlexOfferUpdate, 0, len(staged))
	var failed error
	for i := range results {
		res, s := &results[i], staged[i]
		if res.Err != nil {
			if errors.Is(res.Err, store.ErrUnknownOffer) {
				reconciled++
			} else if failed == nil {
				failed = res.Err
			}
			continue
		}
		// A duplicate micro schedule in the same batch (two schedules
		// for one offer) passes staging both times — pending is only
		// pruned here. The second occurrence finds the offer gone;
		// feeding a nil offer into the pipeline delete would corrupt the
		// retire batch, so reconcile it away instead.
		f, ok := n.pending[s.OfferID]
		if !ok {
			reconciled++
			continue
		}
		delete(n.pending, s.OfferID)
		done = append(done, agg.FlexOfferUpdate{Kind: agg.Delete, Offer: f})
		byOwner[res.Record.Owner] = append(byOwner[res.Record.Owner], s)
	}
	// Every offer the store scheduled leaves the pipeline as it left
	// pending, before a per-update failure is surfaced: the two never
	// disagree about which offers are still to plan.
	if len(done) > 0 {
		if _, err := n.pipeline.Apply(done...); err != nil {
			return nil, reconciled, err
		}
	}
	if failed != nil {
		return nil, reconciled, failed
	}
	return byOwner, reconciled, nil
}

// deliver fans the committed schedules out to their owners with bounded
// concurrency, outside the node lock. It returns the number of owners
// that could not be reached and, separately, the owners skipped because
// their circuit breaker is open — the degraded-delivery signal the
// cycle report surfaces instead of stalling on dead peers.
func (n *Node) deliver(ctx context.Context, byOwner map[string][]*flexoffer.Schedule) (int, []string) {
	if n.client == nil || len(byOwner) == 0 {
		return 0, nil
	}
	failed := n.client.NotifySchedulesAll(ctx, byOwner)
	fails := 0
	var skipped []string
	for owner, err := range failed {
		if errors.Is(err, comm.ErrBreakerOpen) {
			skipped = append(skipped, owner)
			continue
		}
		fails++
	}
	sort.Strings(skipped)
	return fails, skipped
}

// ScheduleFor returns the schedule a prosumer received for an offer, or
// the offer's default schedule after its assignment deadline passed (the
// paper's graceful fallback: "pending flexibilities simply timeout and
// customers fall back to the open contract").
//
// The expiry transition is staged under the node lock and applied after
// releasing it: UpdateOffer appends to the WAL (a group commit that can
// block on fsync), and message handlers must never queue behind a disk
// flush just because a caller polled its schedule. UpdateOffer's own
// mutate-under-record-lock semantics keep the transition safe against a
// schedule arriving concurrently — a record that moved to
// OfferScheduled meanwhile is left untouched.
func (n *Node) ScheduleFor(f *flexoffer.FlexOffer, now flexoffer.Time) *flexoffer.Schedule {
	n.mu.Lock()
	if s, ok := n.schedules[f.ID]; ok {
		n.mu.Unlock()
		return s
	}
	expired := now >= f.AssignBefore
	n.mu.Unlock()
	if !expired {
		return nil
	}
	_, _ = n.store.UpdateOffer(f.ID, func(rec *store.OfferRecord) {
		if rec.State != store.OfferScheduled {
			rec.State = store.OfferExpired
		}
	})
	return f.DefaultSchedule()
}
