package store

import (
	"fmt"

	"mirabel/internal/flexoffer"
	"mirabel/internal/wire"
)

// replayBatch is how many decoded records the decode stage hands the
// applier at a time, and replayBuffers how many such batches a replay
// may have: the decode stage runs up to replayBuffers-1 batches ahead,
// which carries it through the applier's stalls (a map growing, a GC
// assist) without parking.
const (
	replayBatch   = 256
	replayBuffers = 8
)

// replayed is one decoded WAL record on its way to the applier. tag
// says which fields hold it; the others may still hold an earlier
// record's, since the slots of a batch are reused. A transition keeps
// its offer ID in id and what it assigns in rec.State (and, unless it
// is a state-only step, rec.Schedule); a prune mark keeps its bound in
// before.
type replayed struct {
	tag    byte
	id     flexoffer.ID
	rec    OfferRecord
	meas   Measurement
	before flexoffer.Time
}

// replay is one recovery pass of a store, in the two stages the package
// comment describes. Its decode stage owns a string table and a slab,
// so the few hundred names of thousands of records are allocated once
// each and their offers and schedules a chunk at a time; decoded
// records alias neither the frame buffer ReplayFrames reuses nor each
// other's profiles and energies. Every error is the decode stage's, so
// the applier cannot fail.
type replay struct {
	s     *Store
	path  string // of the log, for errors
	names wire.Interner
	slab  flexoffer.Slab
	// stored holds the ID of every offer a decoded record put, so the
	// decode stage refuses a transition for any other offer. The set
	// is exact only because the store never deletes an offer: a frame
	// that drops one must remove its ID here too.
	stored idSet

	batch []replayed // being filled by the decode stage
	made  int        // batches allocated so far
	// full and free pass batches to the applier and back; each has room
	// for every batch a replay makes, so no send on either blocks.
	full, free chan []replayed
	done       chan struct{} // closed when the applier has exited
}

// startReplay starts the applier of a recovery pass of the log at path
// into s. The caller hands every frame to frame, in log order, and then
// calls finish, whether the walk succeeded or not.
func (s *Store) startReplay(path string) *replay {
	rp := &replay{
		s:      s,
		path:   path,
		names:  wire.Interner{},
		stored: idSet{words: make(map[flexoffer.ID]uint64)},
		full:   make(chan []replayed, replayBuffers),
		free:   make(chan []replayed, replayBuffers),
		done:   make(chan struct{}),
	}
	go rp.applyLoop()
	return rp
}

// frame is the ReplayFrames callback: it decodes and validates one
// frame into the next slot of the batch the applier gets next. A legacy
// actors row is skipped unread; a retired or unknown tag fails the
// replay at the frame's offset.
func (rp *replay) frame(off int64, tag byte, payload []byte) error {
	if tag == tagActor {
		return nil
	}
	if err := refuseTag(tag); err != nil {
		return fmt.Errorf("%s offset %d: %w", rp.path, off, err)
	}
	if rp.batch == nil {
		rp.batch = rp.nextBatch()
	}
	n := len(rp.batch)
	rp.batch = rp.batch[:n+1]
	if err := rp.decode(&rp.batch[n], off, tag, payload); err != nil {
		rp.batch = rp.batch[:n]
		return err
	}
	if n+1 == replayBatch {
		rp.full <- rp.batch
		rp.batch = nil
	}
	return nil
}

// nextBatch returns an empty batch: one the applier is done with, else
// a new one while fewer than replayBuffers exist, else the next one the
// applier frees.
func (rp *replay) nextBatch() []replayed {
	select {
	case b := <-rp.free:
		return b
	default:
	}
	if rp.made < replayBuffers {
		rp.made++
		return make([]replayed, 0, replayBatch)
	}
	return <-rp.free
}

// finish hands the applier the last partial batch and waits until it
// has applied everything queued and exited.
func (rp *replay) finish() {
	if len(rp.batch) > 0 {
		rp.full <- rp.batch
	}
	close(rp.full)
	<-rp.done
}

func (rp *replay) applyLoop() {
	defer close(rp.done)
	for b := range rp.full {
		for i := range b {
			rp.s.applyReplayed(&b[i])
		}
		rp.free <- b[:0]
	}
}

// decode decodes one WAL frame of a tag this build replays. A
// transition names an offer an earlier record stored, so one for an
// unknown offer means the log is not this store's history: recovery
// fails at the frame's offset.
func (rp *replay) decode(it *replayed, off int64, tag byte, payload []byte) error {
	it.tag = tag
	r := wire.NewInterningReader(payload, rp.names)
	switch tag {
	case tagOffer, tagOfferIfAbsent:
		it.rec.ReadWire(&r, &rp.slab)
	case tagOfferState:
		var t offerTransition
		t.readWire(&r, &rp.slab)
		it.id, it.rec.State, it.rec.Schedule = t.ID, t.State, t.Schedule
	case tagOfferStateOnly:
		var t offerStateStep
		t.readWire(&r)
		it.id, it.rec.State = t.ID, t.State
	case tagMeasurement:
		it.meas.ReadWire(&r)
	case tagPrune:
		it.before = flexoffer.Time(r.Varint())
	}
	if err := r.Done(); err != nil {
		return decodeError(tag, err)
	}
	switch tag {
	case tagOffer, tagOfferIfAbsent:
		rp.stored.add(it.rec.Offer.ID)
	case tagOfferState, tagOfferStateOnly:
		if !rp.stored.has(it.id) {
			return fmt.Errorf("%w: the transition at wal offset %d names offer %d, which no earlier record stored", ErrUnknownOffer, off, it.id)
		}
	}
	return nil
}

// applyReplayed applies one decoded record, log- and index-free:
// recovery builds the offer index once, when the last file is in.
func (s *Store) applyReplayed(it *replayed) {
	switch it.tag {
	case tagOffer:
		applyPut(s.offers, it.rec.Offer.ID, it.rec)
	case tagOfferIfAbsent:
		applyIfAbsent(s.offers, it.rec.Offer.ID, it.rec)
	case tagOfferState:
		s.applyTransition(it.id, it.rec.State, it.rec.Schedule, false)
	case tagOfferStateOnly:
		s.applyTransition(it.id, it.rec.State, nil, true)
	case tagMeasurement:
		s.applyMeasurement(it.meas)
	case tagPrune:
		for _, ss := range s.meas.all() {
			ss.mu.Lock()
			ss.pruneLocked(it.before)
			ss.mu.Unlock()
		}
	}
}

// applyTransition assigns a replayed transition's state — and, unless
// the frame is a state-only step, its schedule — to the stored offer.
// The decode stage has checked that an earlier record stored it.
func (s *Store) applyTransition(id flexoffer.ID, state OfferState, schedule *flexoffer.Schedule, keepSchedule bool) {
	st := &s.offers.stripes[s.offers.stripeOf(id)]
	st.mu.Lock()
	r := s.offers.locate(id, NoSlot)
	r.State = state
	if !keepSchedule {
		r.Schedule = schedule
	}
	st.mu.Unlock()
}
