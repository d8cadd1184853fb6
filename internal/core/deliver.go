package core

import (
	"context"
	"fmt"
	"slices"

	"mirabel/internal/agg"
	"mirabel/internal/flexoffer"
	"mirabel/internal/store"
)

// plannedAggregate is one planned aggregate on its way to commit: the
// snapshot the plan disaggregated and the micro schedules its macro
// schedule became, one per member in member order (snap.Disaggregate's
// order).
type plannedAggregate struct {
	snap  *agg.Aggregate
	micro []*flexoffer.Schedule
}

// commitScratch is the commit phase's staging, kept by the node and
// reused by every cycle's commit; the node lock serializes them.
// updates, staged, owners and slots have one entry per planned member,
// in plan order.
type commitScratch struct {
	updates []store.OfferUpdate
	staged  []*flexoffer.Schedule    // the update's schedule
	owners  []string                 // its record's owner, as Mutate saw it
	slots   []uint64                 // LeaveWhole's member slots
	next    int                      // schedule's cursor
	mutate  func(*store.OfferRecord) // schedule, made once
}

// schedule is the commit's one Mutate: UpdateOffers calls it once per
// update, in update order, so a cursor over the staged schedules finds
// each record's schedule.
func (sc *commitScratch) schedule(r *store.OfferRecord) {
	r.State = store.OfferScheduled
	r.Schedule = sc.staged[sc.next]
	sc.owners[sc.next] = r.Owner
	sc.next++
}

// reset lets go of what the last commit staged, keeping the room.
func (sc *commitScratch) reset() {
	clear(sc.updates)
	clear(sc.staged)
	clear(sc.owners)
	sc.updates, sc.staged, sc.owners = sc.updates[:0], sc.staged[:0], sc.owners[:0]
	sc.slots, sc.next = sc.slots[:0], 0
}

// commitMicroSchedules is the scheduling cycle's commit phase, its one
// caller. Under the node lock every planned aggregate leaves the
// pipeline whole (agg.Pipeline.LeaveWhole), every planned micro
// schedule is persisted in one UpdateOffers batch — a single WAL group
// commit, each update naming the slot its offer's record took at
// intake — and the schedules are grouped by owner for the deliver
// phase.
//
// Every planned aggregate is still at its snapshot's Version here:
// between the snapshot and the commit nothing processes the pipeline,
// and the flows that delete a member (expiry, CancelProsumer) hold
// cycleMu. Offers accepted mid-plan are pending inserts: they stay
// pending for the next cycle. A refused departure breaks that
// invariant, and a failed store write (the batch applies whole or not
// at all) fails the commit; either way every departure is taken back,
// so the store and the pipeline are as they were.
func (n *Node) commitMicroSchedules(plan []plannedAggregate) (map[string][]*flexoffer.Schedule, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	sc := &n.commit
	defer sc.reset()
	if sc.mutate == nil {
		sc.mutate = sc.schedule
	}
	for i, pa := range plan {
		ok := len(pa.micro) == pa.snap.NumMembers()
		if ok {
			sc.slots, ok = n.pipeline.LeaveWhole(pa.snap, sc.slots)
		}
		if !ok {
			n.stay(plan[:i])
			return nil, fmt.Errorf("core: commit: aggregate %d is not as its snapshot planned it", pa.snap.Offer.ID)
		}
		for _, s := range pa.micro {
			slot := sc.slots[len(sc.updates)]
			sc.updates = append(sc.updates, store.OfferUpdate{ID: s.OfferID, Slot: store.Slot(slot), Mutate: sc.mutate})
			sc.staged = append(sc.staged, s)
		}
	}
	sc.owners = slices.Grow(sc.owners, len(sc.updates))[:len(sc.updates)]
	if _, err := n.store.UpdateOffers(sc.updates); err != nil {
		n.stay(plan)
		return nil, err
	}
	n.pipeline.Process()
	byOwner := make(map[string][]*flexoffer.Schedule)
	for i, s := range sc.staged {
		byOwner[sc.owners[i]] = append(byOwner[sc.owners[i]], s)
	}
	return byOwner, nil
}

// stay takes back the departure of every aggregate in plan.
func (n *Node) stay(plan []plannedAggregate) {
	for _, pa := range plan {
		n.pipeline.StayWhole(pa.snap)
	}
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
