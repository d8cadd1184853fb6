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

	"mirabel/internal/flexoffer"
	"mirabel/internal/store"
	"mirabel/internal/wire"
)

// JournalMagic heads the ingest journal and its sealed segment; the
// last byte is the format version (rule in store/frame.go).
const JournalMagic = "MRBLJNL\x01"

// The journal is a store frame log (store/frame.go): one frame per
// acked event, its tag the event kind. Payloads, in the store's record
// encodings:
//
//	offer: OfferRecord
//	meas:  count uvarint | count × Measurement
const (
	tagOffer byte = 1
	tagMeas  byte = 2
)

// event is one queued unit of intake work. Exactly one of offer/meas is
// set. out is the submission epoch's outstanding counter (nil on an
// event recovered by Open, which never queues) — the compactor waits
// for a sealed epoch to drain to zero before deleting the journal
// segment its events were acked into.
type event struct {
	offer *store.OfferRecord
	meas  []store.Measurement
	out   *atomic.Int64
}

// appendEvent appends ev to dst as one journal frame.
func appendEvent(dst []byte, ev event) []byte {
	tag := tagMeas
	if ev.offer != nil {
		tag = tagOffer
	}
	dst, mark := store.BeginFrame(dst, tag)
	if ev.offer != nil {
		dst = ev.offer.AppendWire(dst)
	} else {
		dst = store.AppendMeasurements(dst, ev.meas)
	}
	return store.EndFrame(dst, mark)
}

// decodeEvent decodes one journal frame, its strings through names and
// its offer and schedule from slab (nil: fresh copies). A frame reaches
// here with its checksum verified, so a failure means a foreign or newer
// writer, not a torn write; recovery skips and counts such frames.
func decodeEvent(tag byte, payload []byte, names wire.Interner, slab *flexoffer.Slab) (event, error) {
	var ev event
	r := wire.NewInterningReader(payload, names)
	switch tag {
	case tagOffer:
		ev.offer = new(store.OfferRecord)
		ev.offer.ReadWire(&r, slab)
	case tagMeas:
		ev.meas = store.ReadMeasurements(&r)
	default:
		return event{}, fmt.Errorf("ingest: unknown journal tag %#x", tag)
	}
	if err := r.Done(); err != nil {
		return event{}, fmt.Errorf("ingest: decode journal event: %w", err)
	}
	return ev, nil
}

// DecodeJournalRecord decodes one journal frame for inspection: the
// event kind and the store.OfferRecord or []store.Measurement it
// carries.
func DecodeJournalRecord(tag byte, payload []byte) (kind string, v any, err error) {
	ev, err := decodeEvent(tag, payload, nil, nil)
	if err != nil {
		return "", nil, err
	}
	if ev.offer != nil {
		return "offer", *ev.offer, nil
	}
	return "meas", ev.meas, nil
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

	// reserved counts the queue slots held by submissions: taken before
	// the journal append, given back when a consumer takes its batch off
	// ch. It never exceeds cap(ch), so staging an acked event never
	// blocks. space, when non-nil, is closed by the next release to wake
	// producers waiting for a slot (PolicyBlock).
	reserved atomic.Int64
	spaceMu  sync.Mutex
	space    chan struct{}

	// pending counts events staged in memory (queued + being applied).
	// Drain waits for it to hit zero while holding the gate.
	pending atomic.Int64

	// bar is what a Drain shares with the consumers.
	bar barrier

	// journaled is set while the journal may hold bytes a barrier has
	// not yet retired: since the last truncate an append landed, or the
	// queue was opened. A Drain that finds it clear is free.
	journaled atomic.Bool

	// oldSize is the sealed segment's length (0 when there is none).
	// sealMu orders Drain's cleanup against the compactor's retirement.
	sealMu  sync.Mutex
	oldSize int64

	// epoch is the outstanding counter stamped onto submissions
	// (written under gate.Lock at rotation, read under gate.RLock);
	// prev, touched only by the compactor goroutine, is the sealed
	// epoch still draining.
	epoch *atomic.Int64
	prev  *atomic.Int64

	closed  atomic.Bool
	stopped atomic.Bool // consumers have fully exited (Close/Kill done)

	stats statsCollector
}

// Open builds the queue, recovers a predecessor's journal, and starts
// the consumer goroutines. Recovery is the journal's one read: every
// intact frame — of a sealed compaction segment first, if a crash left
// one behind, then of the live file — is decoded and applied to the
// store, MaxBatch events a round, through the same funnel live events
// take (OnMeasurements included) before Open returns. The journal is
// kept until the next Drain proves the store has it all.
func Open(cfg Config) (*Queue, error) {
	if cfg.Store == nil {
		return nil, fmt.Errorf("ingest: Config.Store is required")
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
		cfg:   cfg,
		ch:    make(chan event, cfg.Queue),
		stop:  make(chan struct{}),
		epoch: new(atomic.Int64),
	}
	if cfg.Path != "" {
		if err := q.openJournal(); err != nil {
			return nil, err
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

// openJournal recovers the journal and opens it for appending. The
// replay owns one string table, so the owners, prosumers and series
// names its events repeat are allocated once each, and one slab, so
// its offers and schedules are allocated a chunk at a time.
func (q *Queue) openJournal() error {
	names := wire.Interner{}
	var slab flexoffer.Slab
	batch := make([]event, 0, q.cfg.MaxBatch)
	flush := func() {
		q.applyEvents(batch)
		q.stats.recovered.Add(uint64(len(batch)))
		batch = batch[:0]
	}
	log, _, err := store.OpenGroupLog(JournalFiles(q.cfg.Path), JournalMagic, q.cfg.Sync, true,
		func(off int64, tag byte, payload []byte) error {
			ev, err := decodeEvent(tag, payload, names, &slab)
			if err != nil {
				// Counted and surfaced by Drain, which then keeps the
				// journal: the frame is evidence, not garbage.
				q.stats.noteApplyErr(fmt.Errorf("%w (journal frame at offset %d)", err, off))
				return nil
			}
			if batch = append(batch, ev); len(batch) == q.cfg.MaxBatch {
				flush()
			}
			return nil
		})
	if err != nil {
		return err
	}
	if len(batch) > 0 {
		flush()
	}
	q.log = log
	if fi, err := os.Stat(oldJournalPath(q.cfg.Path)); err == nil {
		q.oldSize = fi.Size()
	}
	q.journaled.Store(true) // whatever Open found is retired by the first barrier
	return nil
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

	// Only an acked event is ever applied: take its queue slot first
	// (the Policy acts here, before anything is journaled), journal it,
	// and stage it only once the append succeeded.
	if err := q.reserve(ctx); err != nil {
		return err
	}
	if q.log != nil {
		if !q.journaled.Load() {
			q.journaled.Store(true)
		}
		buf := wire.GetBuf()
		*buf = appendEvent(*buf, ev)
		err := q.log.Append([][]byte{*buf})
		wire.PutBuf(buf)
		if err != nil {
			q.release(1)
			return fmt.Errorf("ingest: journal event: %w", err)
		}
	}

	// Stamp the submission epoch so the consumer retires the event
	// against the generation whose journal segment holds it (gate.RLock
	// makes the read race-free against rotation's swap).
	ev.out = q.epoch
	ev.out.Add(1)
	q.pending.Add(1)
	q.ch <- ev // the reservation guarantees room
	q.stats.ack.Record(int64(time.Since(start)))
	return nil
}

// reserve takes one queue slot; what a full queue does to the producer
// is the Policy.
func (q *Queue) reserve(ctx context.Context) error {
	limit := int64(cap(q.ch))
	for {
		if q.reserved.Add(1) <= limit {
			return nil
		}
		q.reserved.Add(-1)
		if q.cfg.Policy == PolicyShed {
			q.stats.shed.Add(1)
			return ErrOverloaded
		}
		q.spaceMu.Lock()
		if q.space == nil {
			q.space = make(chan struct{})
		}
		space := q.space
		q.spaceMu.Unlock()
		if q.reserved.Load() < limit {
			continue // a release landed before space was registered
		}
		select {
		case <-space:
		case <-ctx.Done():
			return ctx.Err()
		case <-q.stop:
			return ErrClosed
		}
	}
}

// release gives n queue slots back and wakes producers waiting for one.
func (q *Queue) release(n int) {
	q.reserved.Add(-int64(n))
	q.spaceMu.Lock()
	if q.space != nil {
		close(q.space)
		q.space = nil
	}
	q.spaceMu.Unlock()
}

// batchWait bounds how long a consumer holding fewer than MaxBatch
// events waits for more before it applies them. Acked events are
// journaled already, so the wait costs no durability, only visibility,
// and Drain cuts it short. At 500µs the bench's intake workload (two
// cores, closed loop) applies ~17 events per store round instead of
// ~1, one WAL group each, and a prosumer's ack no longer wakes a
// consumer.
const batchWait = 500 * time.Microsecond

// barrier is the state a Drain shares with the consumers.
type barrier struct {
	mu sync.Mutex
	// active is set while a Drain waits: consumers do not linger.
	active bool
	// wake, when non-nil, is closed by a Drain to end every consumer's
	// linger.
	wake chan struct{}
	// idle, when non-nil, is closed by the consumer that brings pending
	// to zero.
	idle chan struct{}
}

// consume is one drain goroutine: take an event, linger until MaxBatch
// events are queued, batchWait passes or a Drain flushes, then apply
// everything queued (up to MaxBatch) as one store round.
func (q *Queue) consume() {
	defer q.done.Done()
	wait := time.NewTimer(batchWait)
	stopTimer(wait)
	batch := make([]event, 0, q.cfg.MaxBatch)
	for {
		select {
		case <-q.stop:
			return
		case ev := <-q.ch:
			batch = append(batch, ev)
		}
		if !q.linger(wait) {
			return // killed: the journal keeps the batch
		}
		batch = q.coalesce(batch)
		q.release(len(batch))
		q.applyEvents(batch)
		for _, b := range batch {
			b.out.Add(-1)
		}
		n := len(batch)
		clear(batch)
		batch = batch[:0]
		if q.pending.Add(-int64(n)) == 0 {
			q.bar.mu.Lock()
			if q.bar.idle != nil {
				close(q.bar.idle)
				q.bar.idle = nil
			}
			q.bar.mu.Unlock()
		}
	}
}

// linger waits for the rest of a batch whose first event a consumer
// holds. It returns false when the queue is stopped.
func (q *Queue) linger(wait *time.Timer) bool {
	if len(q.ch)+1 >= q.cfg.MaxBatch || q.reserved.Load() >= int64(cap(q.ch)) {
		return true
	}
	q.bar.mu.Lock()
	if q.bar.active {
		q.bar.mu.Unlock()
		return true
	}
	if q.bar.wake == nil {
		q.bar.wake = make(chan struct{})
	}
	wake := q.bar.wake
	q.bar.mu.Unlock()
	wait.Reset(batchWait)
	select {
	case <-wait.C:
		return true
	case <-wake:
	case <-q.stop:
		stopTimer(wait)
		return false
	}
	stopTimer(wait)
	return true
}

// stopTimer stops t and empties its channel if it had fired.
func stopTimer(t *time.Timer) {
	if !t.Stop() {
		select {
		case <-t.C:
		default:
		}
	}
}

// coalesce appends whatever else is queued to batch, up to MaxBatch.
func (q *Queue) coalesce(batch []event) []event {
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
// that keeps journal replay idempotent. An offer the store already
// holds in the event's state and owner is skipped, so replaying a
// journal whose events all reached the store writes nothing. A rejected
// offer never replaces a stored record: a refused duplicate of a
// pending offer's id must leave the original — its state, its owner,
// its schedule's destination — alone. Rejected records are inserted
// last, each only if its id is still free when it lands.
func (q *Queue) applyEvents(events []event) {
	b := store.NewBatch()
	var updates []store.OfferUpdate
	var rejected []store.OfferRecord
	for _, ev := range events {
		switch {
		case ev.meas != nil:
			for _, m := range ev.meas {
				b.PutMeasurement(m)
			}
		case ev.offer.State == store.OfferRejected:
			rejected = append(rejected, *ev.offer)
		default:
			rec := *ev.offer
			stored, ok := q.cfg.Store.GetOffer(rec.Offer.ID)
			switch {
			case !ok:
				b.PutOffer(rec)
			case stored.State == rec.State && stored.Owner == rec.Owner:
				// Applied before: a journal replayed over its own store.
			default:
				updates = append(updates, store.OfferUpdate{
					ID: rec.Offer.ID,
					Mutate: func(r *store.OfferRecord) {
						if r.State == store.OfferScheduled || r.State == store.OfferExecuted {
							return // never roll back a progressed offer
						}
						*r = rec
					},
				})
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
	for _, rec := range rejected {
		if _, err := q.cfg.Store.InsertOffer(rec); err != nil {
			q.stats.noteApplyErr(err)
		}
	}
	q.stats.batch.Record(int64(len(events)))
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
	q.sealMu.Lock()
	sealed := q.oldSize
	q.sealMu.Unlock()
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

	// Seal the journal. The exclusive gate pauses producers — and keeps
	// a Drain out — for just the flush+rename.
	q.gate.Lock()
	defer q.gate.Unlock()
	if q.closed.Load() || q.stopped.Load() {
		return
	}
	size, err := q.log.Size()
	if err != nil || size == 0 {
		return // a Drain emptied it since the check above
	}
	if err := q.log.Rotate(oldJournalPath(q.cfg.Path)); err != nil {
		q.stats.noteApplyErr(fmt.Errorf("ingest: rotate journal: %w", err))
		return
	}
	q.sealMu.Lock()
	q.oldSize = size
	q.sealMu.Unlock()
	q.prev, q.epoch = q.epoch, new(atomic.Int64)
}

// retireSealed deletes the sealed segment once no event journaled in it
// can still be lost: the sealed submission epoch has drained (a segment
// Open recovered has none: its events were applied before Open
// returned) and the store has fsynced everything applied.
func (q *Queue) retireSealed() {
	if q.prev != nil && q.prev.Load() != 0 {
		return
	}
	if err := q.cfg.Store.Sync(); err != nil {
		q.stats.noteApplyErr(err)
		return
	}
	q.sealMu.Lock()
	defer q.sealMu.Unlock()
	q.prev = nil
	if q.oldSize == 0 {
		return // a concurrent Drain already cleaned up
	}
	if err := os.Remove(oldJournalPath(q.cfg.Path)); err != nil && !os.IsNotExist(err) {
		q.stats.noteApplyErr(fmt.Errorf("ingest: retire sealed journal: %w", err))
		return
	}
	q.stats.compactions.Add(1)
	q.stats.compactedByte.Add(uint64(q.oldSize))
	q.oldSize = 0
}

// Drain blocks new submissions, waits until every staged event has been
// applied, then compacts the journal (store fsync first, so no acked
// event's only copy is lost). It is the cycle's intake barrier and the
// graceful half of Close. A barrier with nothing journaled since the
// last one costs no fsync; one after a failed apply (or a recovered
// frame nobody could decode) returns that error and keeps the journal.
func (q *Queue) Drain(ctx context.Context) error {
	q.gate.Lock()
	defer q.gate.Unlock()
	if err := q.awaitApplied(ctx); err != nil {
		return err
	}
	if err := q.stats.firstApplyErr(); err != nil {
		// Events may sit in the store partially; keep the journal so a
		// restart can re-apply, and surface the failure.
		return err
	}
	if q.log == nil || q.stopped.Load() || !q.journaled.Load() {
		return nil
	}
	if err := q.cfg.Store.Sync(); err != nil {
		return err
	}
	if err := q.log.Truncate(); err != nil {
		return err
	}
	q.sealMu.Lock()
	defer q.sealMu.Unlock()
	if err := os.Remove(oldJournalPath(q.cfg.Path)); err != nil && !os.IsNotExist(err) {
		return err
	}
	q.oldSize = 0
	q.journaled.Store(false)
	return nil
}

// awaitApplied flushes lingering consumers and waits until no staged
// event is left, woken by the consumer that applies the last one. The
// caller holds the gate, so nothing new is staged meanwhile.
func (q *Queue) awaitApplied(ctx context.Context) error {
	q.bar.mu.Lock()
	q.bar.active = true
	if q.bar.wake != nil {
		close(q.bar.wake)
		q.bar.wake = nil
	}
	q.bar.mu.Unlock()
	defer func() {
		q.bar.mu.Lock()
		q.bar.active = false
		q.bar.mu.Unlock()
	}()
	for q.pending.Load() > 0 {
		q.bar.mu.Lock()
		if q.bar.idle == nil {
			q.bar.idle = make(chan struct{})
		}
		idle := q.bar.idle
		q.bar.mu.Unlock()
		if q.pending.Load() == 0 {
			break // the last apply finished before idle was registered
		}
		select {
		case <-idle:
		case <-ctx.Done():
			return ctx.Err()
		case <-q.stop:
			return ErrClosed
		}
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
	if cerr := q.halt(); err == nil {
		err = cerr
	}
	return err
}

// Kill simulates a crash: consumers stop immediately, nothing is
// drained or compacted, in-memory events are abandoned. Acked events
// survive in the journal (to the extent the fsync policy promised) and
// are recovered by the next Open on the same path.
func (q *Queue) Kill() {
	if q.closed.CompareAndSwap(false, true) {
		_ = q.halt()
	}
}

// halt stops the consumers and the compactor and closes the journal.
func (q *Queue) halt() error {
	close(q.stop)
	q.done.Wait()
	q.stopped.Store(true)
	if q.log == nil {
		return nil
	}
	return q.log.Close()
}

// Stats snapshots the queue's counters.
func (q *Queue) Stats() Stats {
	s := q.stats.snapshot()
	s.Depth = int(q.pending.Load())
	if q.log != nil {
		s.Journal = q.log.Stats()
	}
	return s
}
