package core

import (
	"context"
	"errors"
	"slices"

	"mirabel/internal/agg"
	"mirabel/internal/flexoffer"
	"mirabel/internal/store"
)

// plannedAggregate is one planned aggregate on its way to commit: the
// snapshot the plan disaggregated and the micro schedules its macro
// schedule became, one per member in member order (snap.Disaggregate's
// order). A nil snap vouches for nothing, and its schedules take the
// per-member path.
type plannedAggregate struct {
	snap  *agg.Aggregate
	micro []*flexoffer.Schedule
}

// commitSpan is a run of staged updates: the micro schedules of an
// aggregate that leaves the pipeline whole (snap set), or, last, the
// ones whose offers leave it one by one.
type commitSpan struct {
	snap     *agg.Aggregate
	from, to int
}

// commitScratch is the commit phase's staging, kept by the node and
// reused by every cycle's commit; the node lock serializes them.
// updates, staged and owners have one entry per staged update.
type commitScratch struct {
	updates []store.OfferUpdate
	staged  []*flexoffer.Schedule // the update's schedule
	owners  []string              // its record's owner, as Mutate saw it
	leaving []agg.FlexOfferUpdate // the per-member span's deletes, in update order
	slots   []uint64              // LeaveWhole's member slots
	spans   []commitSpan
	rest    []int                    // the plan's aggregates that take the per-member path
	next    int                      // schedule's cursor
	mutate  func(*store.OfferRecord) // schedule, made once
}

// schedule is the commit's one Mutate: UpdateOffers calls it in update
// order and only for stored records, so a cursor over the staged
// schedules finds each record's schedule.
func (sc *commitScratch) schedule(r *store.OfferRecord) {
	for sc.staged[sc.next].OfferID != r.Offer.ID {
		sc.next++
	}
	r.State = store.OfferScheduled
	r.Schedule = sc.staged[sc.next]
	sc.owners[sc.next] = r.Owner
	sc.next++
}

// stage queues one micro schedule's store update.
func (sc *commitScratch) stage(s *flexoffer.Schedule, slot uint64) {
	if sc.mutate == nil {
		sc.mutate = sc.schedule
	}
	sc.updates = append(sc.updates, store.OfferUpdate{ID: s.OfferID, Slot: store.Slot(slot), Mutate: sc.mutate})
	sc.staged = append(sc.staged, s)
}

// reset lets go of what the last commit staged, keeping the room.
func (sc *commitScratch) reset() {
	clear(sc.updates)
	clear(sc.staged)
	clear(sc.owners)
	clear(sc.leaving)
	clear(sc.spans)
	sc.updates, sc.staged, sc.owners, sc.leaving = sc.updates[:0], sc.staged[:0], sc.owners[:0], sc.leaving[:0]
	sc.slots, sc.spans, sc.rest, sc.next = sc.slots[:0], sc.spans[:0], sc.rest[:0], 0
}

// commitMicroSchedules is the scheduling cycle's commit phase, its one
// caller. Under the node lock it stages a store update for every
// planned micro schedule whose offer the pipeline still holds, persists
// them as one UpdateOffers batch — a single WAL group commit — and
// takes the scheduled offers out of the pipeline; the survivors are
// grouped by owner for the deliver phase. Each update names the slot
// the offer's record took at intake, so the store writes the record in
// place.
//
// An aggregate still at its snapshot's Version leaves whole
// (agg.Pipeline.LeaveWhole): its members are exactly the ones the
// snapshot planned, so none needs looking up, and they leave in one
// pass. The schedules of any other aggregate take the per-member path,
// which reconciles them against the offers the pipeline still holds: a
// schedule for an offer that is no longer pending is dropped (reported
// in the reconciled count) rather than double-scheduled, and since
// staging accumulates each offer's delete, a second schedule for one
// offer in the same batch is dropped the same way — the first wins,
// before any store write. A failed write leaves the pipeline as it was;
// an offer whose own update failed stays pending. Offers accepted
// mid-plan are untouched: they were never in the snapshot, stay pending
// and keep their place in the live pipeline for the next cycle.
func (n *Node) commitMicroSchedules(plan []plannedAggregate) (map[string][]*flexoffer.Schedule, int, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	sc := &n.commit
	defer sc.reset()
	reconciled := 0

	// Whole aggregates first, so that the per-member path cannot stage
	// one of their members a second time.
	for i, pa := range plan {
		n0 := len(sc.slots)
		var whole bool
		if pa.snap != nil && len(pa.micro) == pa.snap.NumMembers() {
			sc.slots, whole = n.pipeline.LeaveWhole(pa.snap, sc.slots)
		}
		if !whole {
			sc.rest = append(sc.rest, i)
			continue
		}
		from := len(sc.updates)
		for k, s := range pa.micro {
			sc.stage(s, sc.slots[n0+k])
		}
		sc.spans = append(sc.spans, commitSpan{snap: pa.snap, from: from, to: len(sc.updates)})
	}
	if len(sc.rest) > 0 {
		from := len(sc.updates)
		for _, i := range sc.rest {
			for _, s := range plan[i].micro {
				f, slot, ok := n.pipeline.Member(s.OfferID)
				if !ok {
					reconciled++
					continue
				}
				u := agg.FlexOfferUpdate{Kind: agg.Delete, Offer: f, Slot: slot}
				_ = n.pipeline.Accumulate(u) // f is held: the delete cannot fail
				sc.stage(s, slot)
				sc.leaving = append(sc.leaving, u)
			}
		}
		sc.spans = append(sc.spans, commitSpan{from: from, to: len(sc.updates)})
	}
	sc.owners = slices.Grow(sc.owners, len(sc.updates))[:len(sc.updates)]

	failed, err := n.store.UpdateOffers(sc.updates)
	if err != nil {
		n.stay(sc.spans)
		return nil, reconciled, err
	}

	var refused error
	if failed != nil {
		reconciled, refused = n.keepFailed(failed, reconciled)
	}
	byOwner := make(map[string][]*flexoffer.Schedule)
	for i, s := range sc.staged {
		if failed == nil || failed[i] == nil {
			byOwner[sc.owners[i]] = append(byOwner[sc.owners[i]], s)
		}
	}
	// Every offer the store scheduled leaves the aggregates now, before
	// a per-update failure is surfaced.
	if len(byOwner) > 0 {
		n.pipeline.Process()
	}
	if refused != nil {
		return nil, reconciled, refused
	}
	return byOwner, reconciled, nil
}

// stay gives every offer the commit staged back to the pipeline exactly
// as it was: a whole aggregate's departure is taken back, and a
// per-member delete is cancelled by inserting the offer again.
func (n *Node) stay(spans []commitSpan) {
	sc := &n.commit
	for _, sp := range spans {
		if sp.snap != nil {
			n.pipeline.StayWhole(sp.snap)
			continue
		}
		for i := range sc.leaving {
			sc.leaving[i].Kind = agg.Insert
		}
		_ = n.pipeline.Accumulate(sc.leaving...)
	}
}

// keepFailed keeps the offers whose own update failed in the pipeline
// and counts the failures: an unknown record is reconciled, anything
// else is the error the commit returns. A whole aggregate with a failed
// member takes the per-member path after all: its departure is taken
// back and every other member leaves on its own.
func (n *Node) keepFailed(failed []error, reconciled int) (int, error) {
	sc := &n.commit
	var refused error
	for _, sp := range sc.spans {
		if !slices.ContainsFunc(failed[sp.from:sp.to], func(err error) bool { return err != nil }) {
			continue
		}
		if sp.snap != nil {
			n.pipeline.StayWhole(sp.snap)
		}
		for i := sp.from; i < sp.to; i++ {
			switch {
			case failed[i] == nil && sp.snap != nil: // leaves on its own
				f, slot, _ := n.pipeline.Member(sc.staged[i].OfferID)
				_ = n.pipeline.Accumulate(agg.FlexOfferUpdate{Kind: agg.Delete, Offer: f, Slot: slot})
			case failed[i] != nil && sp.snap == nil: // stays: cancel its delete
				u := sc.leaving[i-sp.from]
				u.Kind = agg.Insert
				_ = n.pipeline.Accumulate(u)
			}
			if failed[i] == nil {
				continue
			}
			if errors.Is(failed[i], store.ErrUnknownOffer) {
				reconciled++
			} else if refused == nil {
				refused = failed[i]
			}
		}
	}
	return reconciled, refused
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
