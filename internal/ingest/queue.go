package ingest

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"mirabel/internal/store"
	"mirabel/internal/wire"
)

// JournalMagic heads the ingest journal and its sealed segment; the
// last byte is the format version (rule in store/frame.go).
const JournalMagic = "MRBLJNL\x01"

// The journal is a store frame log (store/frame.go): one frame per
// acked event, its tag the event kind. deferredBit marks events parked
// on disk by PolicyDefer — the refill reader re-admits them even when
// they sit past the recovery horizon. Payloads, in the store's record
// encodings:
//
//	offer: OfferRecord
//	meas:  count uvarint | count × Measurement
const (
	tagOffer    byte = 1
	tagMeas     byte = 2
	deferredBit byte = 0x80
)

// event is one queued unit of intake work. Exactly one of offer/meas is
// set. out, when non-nil, is the submission epoch's outstanding counter
// — the compactor waits for a sealed epoch to drain to zero before
// deleting the journal segment its events were acked into.
type event struct {
	offer *store.OfferRecord
	meas  []store.Measurement
	out   *atomic.Int64
}

// appendEvent appends ev to dst as one journal frame.
func appendEvent(dst []byte, ev event, deferred bool) []byte {
	tag := tagMeas
	if ev.offer != nil {
		tag = tagOffer
	}
	if deferred {
		tag |= deferredBit
	}
	dst, mark := store.BeginFrame(dst, tag)
	if ev.offer != nil {
		dst = ev.offer.AppendWire(dst)
	} else {
		dst = store.AppendMeasurements(dst, ev.meas)
	}
	return store.EndFrame(dst, mark)
}

// decodeEvent decodes one journal frame. A frame reaches here with its
// checksum verified, so a failure means a foreign or newer writer, not
// a torn write; callers skip and count such frames.
func decodeEvent(tag byte, payload []byte) (ev event, deferred bool, err error) {
	deferred = tag&deferredBit != 0
	r := wire.NewReader(payload)
	switch tag &^ deferredBit {
	case tagOffer:
		ev.offer = new(store.OfferRecord)
		ev.offer.ReadWire(&r)
	case tagMeas:
		ev.meas = store.ReadMeasurements(&r)
	default:
		return event{}, false, fmt.Errorf("ingest: unknown journal tag %#x", tag)
	}
	if err := r.Done(); err != nil {
		return event{}, false, fmt.Errorf("ingest: decode journal event: %w", err)
	}
	return ev, deferred, nil
}

// DecodeJournalRecord decodes one journal frame for inspection: the
// event kind, whether it was parked on disk, and the store.OfferRecord
// or []store.Measurement it carries.
func DecodeJournalRecord(tag byte, payload []byte) (kind string, deferred bool, v any, err error) {
	ev, deferred, err := decodeEvent(tag, payload)
	if err != nil {
		return "", false, nil, err
	}
	if ev.offer != nil {
		return "offer", deferred, *ev.offer, nil
	}
	return "meas", deferred, ev.meas, nil
}

// Queue is the durable async intake path. See the package comment for
// the full contract. All methods are safe for concurrent use.
type Queue struct {
	cfg Config
	log *store.GroupLog // nil for a volatile queue

	// gate serializes submissions against Drain/Close: producers hold
	// the read side for a whole submit, the drain barrier takes the
	// write side so it observes a quiescent producer set.
	gate sync.RWMutex

	ch   chan event
	stop chan struct{} // closed to retire consumers
	done sync.WaitGroup

	// pending counts events staged in memory (queued + being applied);
	// deferred counts events parked in the journal awaiting refill.
	// Drain waits for both to hit zero while holding the gate.
	pending  atomic.Int64
	deferred atomic.Int64

	// horizon guards the refill reader's view of the journal: offsets
	// below recoveredEnd predate this Queue and are re-applied
	// wholesale; past it only deferredBit-tagged frames are admitted.
	// readOff is the next unread byte. Offsets are logical positions in
	// the concatenation <Path>.old ++ <Path>: oldSize is the sealed
	// segment's length (0 when none), so physical positions in the live
	// journal are offset by it.
	horizon      sync.Mutex
	readOff      int64
	recoveredEnd int64
	oldSize      int64

	// epoch is the outstanding counter stamped onto submissions
	// (written under gate.Lock at rotation, read under gate.RLock);
	// prev, touched only by the compactor goroutine, is the sealed
	// epoch still draining.
	epoch *atomic.Int64
	prev  *atomic.Int64

	refillKick chan struct{} // cap 1: "the journal may hold refill work"

	closed  atomic.Bool
	stopped atomic.Bool // consumers have fully exited (Close/Kill done)
	stalled atomic.Bool // the refill reader is stuck behind a corrupt frame

	stats statsCollector
}

// Open builds the queue, recovers any un-consumed journaled events, and
// starts the consumer goroutines.
func Open(cfg Config) (*Queue, error) {
	if cfg.Store == nil {
		return nil, fmt.Errorf("ingest: Config.Store is required")
	}
	if cfg.Policy == PolicyDefer && cfg.Path == "" {
		return nil, fmt.Errorf("ingest: PolicyDefer needs a journal (Config.Path)")
	}
	if cfg.Queue <= 0 {
		cfg.Queue = 4096
	}
	if cfg.Consumers <= 0 {
		cfg.Consumers = 2
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 256
	}
	q := &Queue{
		cfg:        cfg,
		ch:         make(chan event, cfg.Queue),
		stop:       make(chan struct{}),
		refillKick: make(chan struct{}, 1),
		epoch:      new(atomic.Int64),
	}
	if cfg.Path != "" {
		// Survey the existing journal — a sealed compaction segment
		// first, if a crash left one behind, then the live file — count
		// recoverable events, and find each intact prefix so a torn
		// tail never hides appends.
		recovered := 0
		count := func(_ int64, tag byte, payload []byte) error {
			if _, _, err := decodeEvent(tag, payload); err == nil {
				recovered++
			}
			return nil
		}
		oldIntact, err := store.ReplayFrames(oldJournalPath(cfg.Path), JournalMagic, 0, count)
		if err != nil {
			return nil, err
		}
		if err := store.TruncateTail(oldJournalPath(cfg.Path), oldIntact); err != nil {
			return nil, err
		}
		if oldIntact == 0 {
			_ = os.Remove(oldJournalPath(cfg.Path)) // empty or absent
		}
		intact, err := store.ReplayFrames(cfg.Path, JournalMagic, 0, count)
		if err != nil {
			return nil, err
		}
		if err := store.TruncateTail(cfg.Path, intact); err != nil {
			return nil, err
		}
		log, err := store.OpenGroupLog(cfg.Path, JournalMagic, cfg.Sync, cfg.SyncInterval)
		if err != nil {
			return nil, err
		}
		q.log = log
		q.oldSize = oldIntact
		q.recoveredEnd = oldIntact + intact
		if recovered > 0 {
			q.deferred.Store(int64(recovered))
			q.stats.recovered.Store(uint64(recovered))
			q.kick()
		}
	}
	q.done.Add(cfg.Consumers)
	for i := 0; i < cfg.Consumers; i++ {
		go q.consume()
	}
	if q.log != nil && (cfg.CompactBytes > 0 || q.oldSize > 0) {
		q.done.Add(1)
		go q.compactLoop()
	}
	return q, nil
}

// oldJournalPath is where a rotation seals the journal's prior contents.
func oldJournalPath(path string) string { return path + ".old" }

// JournalFiles returns the files of the journal at path, in replay
// order; either may be absent.
func JournalFiles(path string) []string { return []string{oldJournalPath(path), path} }

// SubmitOffer queues a flex-offer upsert. The returned nil is the
// durability ack (journal committed per the fsync policy); under
// PolicyShed a full queue yields ErrOverloaded.
func (q *Queue) SubmitOffer(ctx context.Context, rec store.OfferRecord) error {
	if rec.Offer == nil {
		return fmt.Errorf("ingest: offer record without offer")
	}
	return q.submit(ctx, event{offer: &rec})
}

// SubmitMeasurements queues a measurement batch. A batch holding a
// non-finite reading is refused whole: the binary codec would carry NaN
// or ±Inf faithfully into the store and every forecast model fed from
// it.
func (q *Queue) SubmitMeasurements(ctx context.Context, ms []store.Measurement) error {
	if len(ms) == 0 {
		return nil
	}
	for i := range ms {
		if math.IsNaN(ms[i].KWh) || math.IsInf(ms[i].KWh, 0) {
			return fmt.Errorf("ingest: measurement %d of %s/%s at slot %d is not finite (%g kWh)",
				i, ms[i].Actor, ms[i].EnergyType, ms[i].Slot, ms[i].KWh)
		}
	}
	return q.submit(ctx, event{meas: ms})
}

func (q *Queue) submit(ctx context.Context, ev event) error {
	if q.closed.Load() {
		return ErrClosed
	}
	start := time.Now()
	q.gate.RLock()
	defer q.gate.RUnlock()
	if q.closed.Load() {
		return ErrClosed
	}

	// Stamp the submission epoch before staging so the consumer can
	// retire the event against the right generation (gate.RLock makes
	// the read race-free against rotation's swap).
	ev.out = q.epoch
	ev.out.Add(1)

	deferred := false
	switch q.cfg.Policy {
	case PolicyBlock:
		q.pending.Add(1)
		select {
		case q.ch <- ev:
		case <-ctx.Done():
			q.pending.Add(-1)
			ev.out.Add(-1)
			return ctx.Err()
		case <-q.stop:
			q.pending.Add(-1)
			ev.out.Add(-1)
			return ErrClosed
		}
	case PolicyShed:
		q.pending.Add(1)
		select {
		case q.ch <- ev:
		default:
			q.pending.Add(-1)
			ev.out.Add(-1)
			q.stats.shed.Add(1)
			return ErrOverloaded
		}
	case PolicyDefer:
		q.pending.Add(1)
		select {
		case q.ch <- ev:
		default:
			q.pending.Add(-1)
			ev.out.Add(-1) // disk-parked: tracked by deferred instead
			deferred = true
		}
	default:
		ev.out.Add(-1)
		return fmt.Errorf("ingest: unknown policy %v", q.cfg.Policy)
	}

	if q.log != nil {
		if deferred {
			// Count before the append lands: a concurrent refill must
			// never apply a journal frame that is not yet reflected in
			// the backlog counter, or the counter would stick above
			// zero and Drain would never finish.
			q.deferred.Add(1)
		}
		buf := wire.GetBuf()
		*buf = appendEvent(*buf, ev, deferred)
		err := q.log.Append([][]byte{*buf})
		wire.PutBuf(buf)
		if err != nil {
			// A non-deferred event is already staged and will still be
			// applied from memory; the ack fails because durability
			// can't be promised.
			if deferred {
				q.deferred.Add(-1)
				return fmt.Errorf("ingest: defer to journal: %w", err)
			}
			return fmt.Errorf("ingest: journal event: %w", err)
		}
	}
	if deferred {
		q.stats.deferredTotal.Add(1)
		q.kick()
	}
	q.stats.enqueued.Add(1)
	q.stats.observeAck(time.Since(start))
	return nil
}

// kick nudges a consumer toward the journal refill path. The channel
// holds one token; a pending token already promises a future scan.
func (q *Queue) kick() {
	select {
	case q.refillKick <- struct{}{}:
	default:
	}
}

// consume is one drain goroutine: pull an event, greedily coalesce
// whatever else is queued (up to MaxBatch), apply as one store round.
func (q *Queue) consume() {
	defer q.done.Done()
	for {
		select {
		case <-q.stop:
			return
		case ev := <-q.ch:
			batch := q.coalesce(ev)
			q.applyEvents(batch)
			for _, b := range batch {
				if b.out != nil {
					b.out.Add(-1)
				}
			}
			q.pending.Add(-int64(len(batch)))
		case <-q.refillKick:
			q.refill()
		}
	}
}

func (q *Queue) coalesce(first event) []event {
	batch := make([]event, 1, 16)
	batch[0] = first
	for len(batch) < q.cfg.MaxBatch {
		select {
		case ev := <-q.ch:
			batch = append(batch, ev)
		default:
			return batch
		}
	}
	return batch
}

// applyEvents drains one coalesced batch into the store. Measurements
// and brand-new offers go through one ApplyBatch (one WAL group);
// already-present offers go through UpdateOffers with a guard that
// never downgrades a record that progressed to scheduled/executed —
// that keeps journal replay idempotent.
func (q *Queue) applyEvents(events []event) {
	b := store.NewBatch()
	var updates []store.OfferUpdate
	for _, ev := range events {
		switch {
		case ev.meas != nil:
			for _, m := range ev.meas {
				b.PutMeasurement(m)
			}
		case ev.offer != nil:
			rec := *ev.offer
			if _, ok := q.cfg.Store.GetOffer(rec.Offer.ID); ok {
				updates = append(updates, store.OfferUpdate{
					ID: rec.Offer.ID,
					Mutate: func(r *store.OfferRecord) {
						if r.State == store.OfferScheduled || r.State == store.OfferExecuted {
							return // never roll back a progressed offer
						}
						*r = rec
					},
				})
			} else {
				b.PutOffer(rec)
			}
		}
	}
	if b.Len() > 0 {
		if err := q.cfg.Store.ApplyBatch(b); err != nil {
			q.stats.noteApplyErr(err)
		}
	}
	if q.cfg.OnMeasurements != nil {
		for _, ev := range events {
			if len(ev.meas) > 0 {
				q.cfg.OnMeasurements(ev.meas)
			}
		}
	}
	if len(updates) > 0 {
		results, err := q.cfg.Store.UpdateOffers(updates)
		if err != nil {
			q.stats.noteApplyErr(err)
		}
		for i, res := range results {
			// The existence probe raced a concurrent delete/compaction:
			// fall back to a plain upsert.
			if errors.Is(res.Err, store.ErrUnknownOffer) {
				var rec store.OfferRecord
				u := updates[i]
				u.Mutate(&rec)
				if rec.Offer != nil {
					if perr := q.cfg.Store.PutOffer(rec); perr != nil {
						q.stats.noteApplyErr(perr)
					}
				}
			} else if res.Err != nil {
				q.stats.noteApplyErr(res.Err)
			}
		}
	}
	q.stats.observeBatch(len(events))
}

// refill is the single-flight disk lane: it re-reads the journal and
// applies every recovered-region or Deferred-flagged event until the
// disk backlog is empty. horizon makes it single-flight — a second
// consumer kicked concurrently just finds nothing left to read.
func (q *Queue) refill() {
	q.horizon.Lock()
	defer q.horizon.Unlock()
	for q.deferred.Load() > 0 && !q.stalled.Load() {
		events, err := q.readDiskBacklog()
		if err != nil {
			q.stats.noteApplyErr(err)
			return
		}
		if len(events) == 0 {
			q.checkStall()
			return
		}
		q.applyEvents(events)
		q.deferred.Add(-int64(len(events)))
	}
}

// checkStall tells the two reasons a pass can come back empty while
// events are still parked. Usually a submission counted itself before
// its frame was committed, and its kick brings the reader back. But once
// the committer is quiesced every byte of the live journal is a whole
// committed frame, so a reader that still stops short of the end is
// looking at a frame that fails its checksum: the torn-tail rule hides
// everything behind it and no later pass will do better. That is
// reported as an apply error, and Drain stops waiting for the backlog.
// Caller holds horizon.
func (q *Queue) checkStall() {
	size, err := q.log.Size()
	if err != nil {
		return
	}
	from := max64(q.readOff-q.oldSize, store.LogHeaderLen)
	end, err := store.ReplayFrames(q.cfg.Path, JournalMagic, from, func(int64, byte, []byte) error {
		return store.ErrStopReplay
	})
	if err != nil || from >= size || end > from {
		return // clean end, or a frame landed since the pass: its kick reads it
	}
	q.stalled.Store(true)
	q.stats.noteApplyErr(fmt.Errorf("ingest: corrupt journal frame at offset %d: the %d parked events from there on cannot be re-admitted",
		q.readOff, q.deferred.Load()))
}

// readDiskBacklog scans forward from readOff and collects up to
// MaxBatch applicable events. Caller holds horizon. Logical offsets run
// across the sealed segment (immutable, read to EOF) and then the live
// journal; a partial last frame in the live file (a group flush racing
// this read) is left for the next pass.
func (q *Queue) readDiskBacklog() ([]event, error) {
	if q.readOff < q.oldSize {
		events, err := q.scanSegment(oldJournalPath(q.cfg.Path), 0)
		if err != nil || len(events) > 0 {
			return events, err
		}
		// Sealed segment exhausted without an admissible event: fall
		// through to the live journal.
	}
	return q.scanSegment(q.cfg.Path, q.oldSize)
}

// scanSegment reads one journal file whose first byte sits at logical
// offset base, advancing q.readOff past every frame consumed.
func (q *Queue) scanSegment(path string, base int64) ([]event, error) {
	var events []event
	end, err := store.ReplayFrames(path, JournalMagic, q.readOff-base, func(off int64, tag byte, payload []byte) error {
		ev, deferred, err := decodeEvent(tag, payload)
		if err != nil {
			q.stats.noteApplyErr(fmt.Errorf("%w (journal offset %d)", err, base+off))
			return nil
		}
		if base+off < q.recoveredEnd || deferred {
			events = append(events, ev)
			if len(events) >= q.cfg.MaxBatch {
				return store.ErrStopReplay
			}
		}
		return nil
	})
	if err != nil {
		return events, fmt.Errorf("ingest: scan journal: %w", err)
	}
	if base+end > q.readOff { // an empty file reports 0: nothing consumed
		q.readOff = base + end
	}
	return events, nil
}

// compactLoop bounds the journal between drains without stalling
// producers: rotation pauses submissions only for a rename, and the
// sealed segment is retired in the background once everything in it is
// durably applied.
func (q *Queue) compactLoop() {
	defer q.done.Done()
	interval := q.cfg.CompactInterval
	if interval <= 0 {
		interval = 100 * time.Millisecond
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-q.stop:
			return
		case <-tick.C:
			q.compactOnce()
		}
	}
}

func (q *Queue) compactOnce() {
	q.horizon.Lock()
	sealed := q.oldSize
	q.horizon.Unlock()
	if sealed > 0 {
		q.retireSealed()
		return
	}
	if q.cfg.CompactBytes <= 0 {
		return
	}
	if size, err := q.log.Size(); err != nil || size < q.cfg.CompactBytes {
		return
	}

	// Seal the journal. The exclusive gate pauses producers for just
	// the flush+rename; holding horizon too keeps the refill reader's
	// offsets coherent with the file swap (logical positions are
	// unchanged: the old bytes keep their offsets, new appends land
	// after them).
	q.gate.Lock()
	defer q.gate.Unlock()
	if q.closed.Load() || q.stopped.Load() {
		return
	}
	q.horizon.Lock()
	defer q.horizon.Unlock()
	if q.deferred.Load() != 0 || q.oldSize != 0 {
		// Disk-parked events still live in the current file; sealing
		// now would strand the refill backlog behind two segments of
		// bookkeeping for no benefit. Wait for the backlog to clear.
		return
	}
	size, err := q.log.Size()
	if err != nil || size == 0 {
		return
	}
	if err := q.log.Rotate(oldJournalPath(q.cfg.Path)); err != nil {
		q.stats.noteApplyErr(fmt.Errorf("ingest: rotate journal: %w", err))
		return
	}
	q.oldSize = size
	q.prev, q.epoch = q.epoch, new(atomic.Int64)
}

// retireSealed deletes the sealed segment once no event journaled in it
// can still be lost: the sealed submission epoch has drained, no disk
// backlog remains, and the store has fsynced everything applied.
func (q *Queue) retireSealed() {
	if q.prev != nil && q.prev.Load() != 0 {
		return
	}
	if q.deferred.Load() != 0 {
		return
	}
	if err := q.cfg.Store.Sync(); err != nil {
		q.stats.noteApplyErr(err)
		return
	}
	q.horizon.Lock()
	defer q.horizon.Unlock()
	if q.oldSize == 0 {
		q.prev = nil
		return // a concurrent Drain already cleaned up
	}
	if err := os.Remove(oldJournalPath(q.cfg.Path)); err != nil && !os.IsNotExist(err) {
		q.stats.noteApplyErr(fmt.Errorf("ingest: retire sealed journal: %w", err))
		return
	}
	freed := q.oldSize
	q.readOff = max64(0, q.readOff-freed)
	q.recoveredEnd = max64(0, q.recoveredEnd-freed)
	q.oldSize = 0
	q.prev = nil
	q.stats.compactions.Add(1)
	q.stats.compactedByte.Add(uint64(freed))
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// Drain blocks new submissions, waits until every staged and deferred
// event has been applied, then compacts the journal (store fsync first,
// so no acked event's only copy is lost). It is the cycle's intake
// barrier and the graceful half of Close. A disk backlog stranded behind
// a corrupt journal frame (checkStall) ends the wait with that error and
// the journal kept.
func (q *Queue) Drain(ctx context.Context) error {
	q.gate.Lock()
	defer q.gate.Unlock()
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	for q.pending.Load() > 0 || (q.deferred.Load() > 0 && !q.stalled.Load()) {
		if q.stopped.Load() {
			return ErrClosed
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-tick.C:
		}
	}
	if err := q.stats.firstApplyErr(); err != nil {
		// Events may sit in the store partially; keep the journal so a
		// restart can re-apply, and surface the failure.
		return err
	}
	if q.log != nil && !q.stopped.Load() {
		if err := q.cfg.Store.Sync(); err != nil {
			return err
		}
		if err := q.log.Truncate(); err != nil {
			return err
		}
		q.horizon.Lock()
		defer q.horizon.Unlock()
		if rerr := os.Remove(oldJournalPath(q.cfg.Path)); rerr != nil && !os.IsNotExist(rerr) {
			return rerr
		}
		q.readOff, q.recoveredEnd, q.oldSize = 0, 0, 0
	}
	return nil
}

// Close drains gracefully, retires the consumers, and closes the
// journal. Subsequent submissions return ErrClosed.
func (q *Queue) Close() error {
	if !q.closed.CompareAndSwap(false, true) {
		return nil
	}
	err := q.Drain(context.Background())
	if errors.Is(err, ErrClosed) {
		err = nil
	}
	close(q.stop)
	q.done.Wait()
	q.stopped.Store(true)
	if q.log != nil {
		if cerr := q.log.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// Kill simulates a crash: consumers stop immediately, nothing is
// drained or compacted, in-memory events are abandoned. Acked events
// survive in the journal (to the extent the fsync policy promised) and
// are recovered by the next Open on the same path.
func (q *Queue) Kill() {
	if !q.closed.CompareAndSwap(false, true) {
		return
	}
	close(q.stop)
	q.done.Wait()
	q.stopped.Store(true)
	if q.log != nil {
		_ = q.log.Close()
	}
}

// Stats snapshots the queue's counters.
func (q *Queue) Stats() Stats {
	s := q.stats.snapshot()
	s.Depth = int(q.pending.Load())
	s.DiskBacklog = int(q.deferred.Load())
	if q.log != nil {
		s.Journal = q.log.Stats()
	}
	return s
}
