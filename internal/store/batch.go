package store

import (
	"fmt"
	"sort"

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
		touched |= 1 << s.offers.shardIndex(b.recs[i].Offer.ID)
	}
	s.offers.lockStripes(touched)
	defer s.offers.unlockStripes(touched)

	// One group commit for the whole batch.
	if s.w != nil {
		if err := s.w.commit([][]byte{*frames}, len(b.recs), nil); err != nil {
			return err
		}
	}

	// Apply under the held locks.
	for _, r := range b.recs {
		id := r.Offer.ID
		sh := s.offers.shard(id)
		old, had := sh.m[id]
		sh.m[id] = r
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
	ID     flexoffer.ID
	Mutate func(*OfferRecord)
}

// OfferUpdateResult is the per-update outcome of UpdateOffers: the
// stored record after the mutation, or ErrUnknownOffer (match with
// errors.Is) when no record existed.
type OfferUpdateResult struct {
	Record OfferRecord
	Err    error

	// prev is the record the update replaced, when it changed one: a
	// failed commit restores it, and the state index moves off its state.
	prev    OfferRecord
	changed bool
}

// UpdateOffers applies a batch of atomic offer transitions: all touched
// stripes are locked at once (in stripe order), every mutation that
// changes its record is logged — as a transition when it kept the offer
// and the owner — and the whole set is committed as one WAL group, then
// indexed under one index lock. Per-update failures (unknown id, record
// left without an offer) are reported in the result slice without
// failing the batch; the returned error is reserved for log failures, in
// which case nothing was applied.
//
// Updates listing the same id chain: each mutation sees its
// predecessor's result.
func (s *Store) UpdateOffers(updates []OfferUpdate) ([]OfferUpdateResult, error) {
	if s.readOnly {
		return nil, ErrReadOnly
	}
	if len(updates) == 0 {
		return nil, nil
	}

	var touched uint64
	for _, u := range updates {
		touched |= 1 << s.offers.shardIndex(u.ID)
	}
	s.offers.lockStripes(touched)
	defer s.offers.unlockStripes(touched)

	// Apply every mutation under the locks, in order, so same-id updates
	// chain through the table itself, and frame each one that changes its
	// record. No reader can see the table until the locks go, and a
	// failed commit restores every changed record, last first.
	results := make([]OfferUpdateResult, len(updates))
	var frames *[]byte
	if s.w != nil {
		frames = wire.GetBuf()
		defer wire.PutBuf(frames)
	}
	changed := 0
	for i, u := range updates {
		res := &results[i]
		sh := s.offers.shard(u.ID)
		old, ok := sh.m[u.ID]
		if !ok {
			res.Err = fmt.Errorf("%w: %d", ErrUnknownOffer, u.ID)
			continue
		}
		// Mutate edits the result in place: a local copy handed to the
		// closure would escape to the heap, one allocation per update.
		res.Record = old
		u.Mutate(&res.Record)
		r := &res.Record
		if r.Offer == nil {
			res.Record, res.Err = OfferRecord{}, fmt.Errorf("store: offer record without offer")
			continue
		}
		if *r == old {
			continue
		}
		if frames != nil {
			*frames = appendUpdateFrame(*frames, &old, r)
		}
		sh.m[u.ID] = *r
		res.prev, res.changed = old, true
		changed++
	}

	if frames != nil && changed > 0 {
		if err := s.w.commit([][]byte{*frames}, changed, nil); err != nil {
			for i := len(updates) - 1; i >= 0; i-- {
				if results[i].changed {
					id := updates[i].ID
					s.offers.shard(id).m[id] = results[i].prev
				}
			}
			return nil, err
		}
	}
	if changed > 0 {
		s.offerIdx.move(updates, results)
	}
	return results, nil
}

func sortSeriesByID(series []*slotSeries) {
	sort.Slice(series, func(i, j int) bool { return series[i].id < series[j].id })
}
