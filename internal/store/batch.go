package store

import (
	"fmt"
	"sort"
	"sync"

	"mirabel/internal/flexoffer"
	"mirabel/internal/wire"
)

// Batch collects offer record upserts to be applied in one call. A
// batch is logged as a single WAL group (one buffered append, one fsync
// under SyncAlways) and applied while every touched stripe is locked at
// once, so concurrent readers on other stripes keep flowing and
// concurrent writers to the same batch coalesce with it in the
// committer.
//
// A batch is not a transaction: a crash mid-group can persist a prefix
// of its records. Every record is an idempotent upsert, so the prefix
// is a valid (earlier) state. Records of the same offer apply in
// insertion order.
type Batch struct {
	recs []OfferRecord
	err  error // first validation failure, surfaced by ApplyBatch
}

// NewBatch returns an empty batch.
func NewBatch() *Batch { return &Batch{} }

// PutOffer queues a flex-offer record upsert.
func (b *Batch) PutOffer(r OfferRecord) {
	if r.Offer == nil && b.err == nil {
		b.err = fmt.Errorf("store: batch offer record without offer")
	}
	b.recs = append(b.recs, r)
}

// ApplyBatch applies every queued record: encode outside locks, lock the
// touched stripes in index order, log the whole batch as one WAL group,
// apply, unlock. The batch is reusable input (it is not consumed) but
// must not be mutated concurrently.
func (s *Store) ApplyBatch(b *Batch) error {
	if s.readOnly {
		return ErrReadOnly
	}
	if b.err != nil {
		return b.err
	}
	if len(b.recs) == 0 {
		return nil
	}

	// Encode every record, back to back in one pooled buffer, before any
	// lock is taken.
	var frames *[]byte
	if s.w != nil {
		frames = wire.GetBuf()
		defer wire.PutBuf(frames)
		for i := range b.recs {
			*frames = appendOfferFrame(*frames, &b.recs[i])
		}
	}

	var touched uint64
	for i := range b.recs {
		touched |= 1 << s.offers.stripeOf(b.recs[i].Offer.ID)
	}
	s.offers.lockStripes(touched)
	defer s.offers.unlockStripes(touched)

	// One group commit for the whole batch.
	if s.w != nil {
		if _, err := s.w.commit([][]byte{*frames}, len(b.recs), nil); err != nil {
			return err
		}
	}

	// Apply under the held locks.
	for _, r := range b.recs {
		id := r.Offer.ID
		old, had := s.offers.put(id, r)
		s.offerIdx.update(id, old, had, r)
	}
	return nil
}

// OfferUpdate names one offer transition of an UpdateOffers batch.
// Mutate edits the record it is handed: it may set the state, the owner
// and the Schedule pointer, or point Offer at another offer, but it must
// not modify *r.Offer (or *r.Schedule) in place — the store shares them
// with every reader, and a mutation that keeps the Offer pointer and the
// owner is logged as a transition (state and schedule only), so an
// in-place edit of the offer would be lost on recovery. A mutation that
// changes nothing (the same Offer pointer, Owner, State and Schedule
// pointer) is neither logged nor applied.
type OfferUpdate struct {
	ID flexoffer.ID
	// Slot, when set, is where the record lives — the Slot AppendOffer
	// returned for it — and the update mutates it there without looking
	// ID up. A Slot that no longer holds ID's record is passed over, and
	// the update finds the record by ID.
	Slot   Slot
	Mutate func(*OfferRecord)
}

// offerChange is one applied mutation of an UpdateOffers batch: where
// the record lives, what it was before and the state the mutation left
// it in. A failed commit restores prev; a committed one moves id in the
// state index from prev.State to now.
type offerChange struct {
	rec  *OfferRecord
	prev OfferRecord
	id   flexoffer.ID
	now  OfferState
}

// offerChanges recycles UpdateOffers' change lists, so a batch
// allocates nothing per update.
var offerChanges = sync.Pool{New: func() any { return new([]offerChange) }}

// UpdateOffers applies a batch of atomic offer transitions: all touched
// stripes are locked at once (in stripe order), each record is mutated
// in place — at the update's Slot, or found by ID — every mutation that
// changes its record is logged (as a transition when it kept the offer
// and the owner), and the whole set is committed as one WAL group, then
// indexed under one index lock. Per-update failures (unknown id, record
// left without an offer) leave their record as it was and are reported
// in failed, which is nil when every update applied and otherwise holds
// one entry per update (nil for the ones that applied); ErrUnknownOffer
// marks an id no record holds (match with errors.Is). The returned error
// is reserved for log failures, in which case nothing was applied.
//
// Updates listing the same id chain: each mutation sees its
// predecessor's result.
func (s *Store) UpdateOffers(updates []OfferUpdate) (failed []error, err error) {
	if s.readOnly {
		return nil, ErrReadOnly
	}
	if len(updates) == 0 {
		return nil, nil
	}

	var touched uint64
	for i := range updates {
		touched |= 1 << s.offers.stripeOf(updates[i].ID)
	}
	s.offers.lockStripes(touched)
	defer s.offers.unlockStripes(touched)

	// Mutate every record in place, in update order, so same-id updates
	// chain through the table itself, and frame each one that changes its
	// record. No reader can see the table until the locks go, and a
	// failed commit restores every changed record, last first.
	var frames *[]byte
	if s.w != nil {
		frames = wire.GetBuf()
		defer wire.PutBuf(frames)
	}
	changes := offerChanges.Get().(*[]offerChange)
	defer func() {
		clear(*changes)
		*changes = (*changes)[:0]
		offerChanges.Put(changes)
	}()
	fail := func(i int, err error) {
		if failed == nil {
			failed = make([]error, len(updates))
		}
		failed[i] = err
	}
	for i := range updates {
		u := &updates[i]
		r := s.offers.locate(u.ID, u.Slot)
		if r == nil {
			fail(i, fmt.Errorf("%w: %d", ErrUnknownOffer, u.ID))
			continue
		}
		prev := *r
		u.Mutate(r)
		if r.Offer == nil {
			*r = prev
			fail(i, fmt.Errorf("store: offer record without offer"))
			continue
		}
		if *r == prev {
			continue
		}
		if frames != nil {
			*frames = appendUpdateFrame(*frames, &prev, r)
		}
		*changes = append(*changes, offerChange{rec: r, prev: prev, id: u.ID, now: r.State})
	}

	if frames != nil && len(*changes) > 0 {
		if _, err := s.w.commit([][]byte{*frames}, len(*changes), nil); err != nil {
			for i := len(*changes) - 1; i >= 0; i-- {
				c := &(*changes)[i]
				*c.rec = c.prev
			}
			return nil, err
		}
	}
	if len(*changes) > 0 {
		s.offerIdx.move(*changes)
	}
	return failed, nil
}

func sortSeriesByID(series []*slotSeries) {
	sort.Slice(series, func(i, j int) bool { return series[i].id < series[j].id })
}
