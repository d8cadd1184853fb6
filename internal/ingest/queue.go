package ingest

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"mirabel/internal/store"
)

// Queue is the durable async intake path. See the package comment for
// the full contract. All methods are safe for concurrent use.
type Queue struct {
	cfg Config

	// gate serializes submissions against Drain/Close: producers hold
	// the read side for a whole submit, the drain barrier takes the
	// write side so it observes a quiescent producer set.
	gate sync.RWMutex

	ch   chan store.Intake
	stop chan struct{} // closed to retire the applier
	done sync.WaitGroup

	// reserved counts the queue slots held by submissions: taken before
	// the WAL append, given back when the applier takes its batch off
	// ch. It never exceeds cap(ch), so staging an acked event never
	// blocks. space, when non-nil, is closed by the next release to wake
	// producers waiting for a slot (PolicyBlock).
	reserved atomic.Int64
	spaceMu  sync.Mutex
	space    chan struct{}

	// pending counts events staged in memory (queued + being applied).
	// Drain waits for it to hit zero while holding the gate.
	pending atomic.Int64

	// bar is what a Drain shares with the applier.
	bar barrier

	closed atomic.Bool

	stats statsCollector
}

// Open builds the queue over cfg.Store, becomes the store's intake
// handoff, and starts the applier. It reads nothing: whatever a
// predecessor acked is in the store's WAL, which store.Open replayed.
func Open(cfg Config) (*Queue, error) {
	if cfg.Store == nil {
		return nil, fmt.Errorf("ingest: Config.Store is required")
	}
	if cfg.Queue <= 0 {
		cfg.Queue = 4096
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 256
	}
	q := &Queue{
		cfg:  cfg,
		ch:   make(chan store.Intake, cfg.Queue),
		stop: make(chan struct{}),
	}
	cfg.Store.SetIntakeHandoff(q.stage)
	q.done.Add(1)
	go q.apply()
	return q, nil
}

// SubmitOffer queues a flex-offer upsert. The returned nil is the
// durability ack (the record is in the store's WAL under its fsync
// policy); under PolicyShed a full queue yields ErrOverloaded. A
// rejected record is stored only if no record holds its ID when it
// applies.
func (q *Queue) SubmitOffer(ctx context.Context, rec store.OfferRecord) error {
	_, err := q.SubmitOfferSlot(ctx, rec)
	return err
}

// SubmitOfferSlot is SubmitOffer that also returns the Slot the record
// will live in once the applier has applied it (store.AppendOffer), so
// a later OfferUpdate can name it.
func (q *Queue) SubmitOfferSlot(ctx context.Context, rec store.OfferRecord) (store.Slot, error) {
	if rec.Offer == nil {
		return store.NoSlot, fmt.Errorf("ingest: offer record without offer")
	}
	return q.submit(ctx, store.Intake{Offer: &rec})
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
	_, err := q.submit(ctx, store.Intake{Meas: ms})
	return err
}

// submit acks ev and returns the Slot of its offer record (NoSlot for a
// meter batch).
func (q *Queue) submit(ctx context.Context, ev store.Intake) (store.Slot, error) {
	if q.closed.Load() {
		return store.NoSlot, ErrClosed
	}
	start := time.Now()
	q.gate.RLock()
	defer q.gate.RUnlock()
	if q.closed.Load() {
		return store.NoSlot, ErrClosed
	}

	// Only an acked event is ever applied: take its queue slot first
	// (the Policy acts here, before anything is logged), then append it
	// to the WAL, whose leader stages it (stage) only once the write
	// succeeded.
	if err := q.reserve(ctx); err != nil {
		return store.NoSlot, err
	}
	var slot store.Slot
	var err error
	if ev.Offer != nil {
		slot, err = q.cfg.Store.AppendOffer(ev.Offer)
	} else {
		err = q.cfg.Store.AppendIntake(ev)
	}
	if err != nil {
		q.release(1)
		return store.NoSlot, fmt.Errorf("ingest: log event: %w", err)
	}
	q.stats.ack.Record(int64(time.Since(start)))
	return slot, nil
}

// stage is the store's intake handoff: the WAL's leader calls it for
// every acked event, in log order, before the event's submission
// returns. The submission's reservation guarantees room in ch.
func (q *Queue) stage(ev store.Intake) {
	q.pending.Add(1)
	q.ch <- ev
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

// batchWait bounds how long the applier holding fewer than MaxBatch
// events waits for more before it applies them. Acked events are in the
// WAL already, so the wait costs no durability, only visibility, and
// Drain cuts it short. At 500µs a closed loop of one-at-a-time
// producers feeds the store rounds of many events instead of one, and a
// prosumer's ack no longer wakes the applier.
const batchWait = 500 * time.Microsecond

// barrier is the state a Drain shares with the applier.
type barrier struct {
	mu sync.Mutex
	// active is set while a Drain waits: the applier does not linger.
	active bool
	// wake, when non-nil, is closed by a Drain to end the applier's
	// linger.
	wake chan struct{}
	// idle, when non-nil, is closed by the apply that brings pending to
	// zero.
	idle chan struct{}
}

// apply is the one applier goroutine: take an event, linger until
// MaxBatch events are queued, batchWait passes or a Drain flushes, then
// apply everything queued (up to MaxBatch) as one store round. ch is
// filled in log order and drained by this goroutine alone, so events
// reach the tables in the order a replay of the WAL applies them.
func (q *Queue) apply() {
	defer q.done.Done()
	wait := time.NewTimer(batchWait)
	stopTimer(wait)
	batch := make([]store.Intake, 0, q.cfg.MaxBatch)
	for {
		select {
		case <-q.stop:
			return
		case ev := <-q.ch:
			batch = append(batch, ev)
		}
		if !q.linger(wait) {
			return // killed: the WAL keeps the batch
		}
		batch = q.coalesce(batch)
		q.release(len(batch))
		q.cfg.Store.ApplyIntake(batch)
		if q.cfg.OnMeasurements != nil {
			for _, ev := range batch {
				if len(ev.Meas) > 0 {
					q.cfg.OnMeasurements(ev.Meas)
				}
			}
		}
		n := len(batch)
		q.stats.batch.Record(int64(n))
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

// linger waits for the rest of a batch whose first event the applier
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
func (q *Queue) coalesce(batch []store.Intake) []store.Intake {
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

// Drain blocks new submissions and waits until every acked event has
// been applied to the store. It is the cycle's intake barrier and the
// graceful half of Close. It writes nothing: every event it waits for is
// in the WAL since its ack.
func (q *Queue) Drain(ctx context.Context) error {
	q.gate.Lock()
	defer q.gate.Unlock()
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

// Close drains gracefully and retires the applier. Subsequent
// submissions return ErrClosed.
func (q *Queue) Close() error {
	if !q.closed.CompareAndSwap(false, true) {
		return nil
	}
	err := q.Drain(context.Background())
	if errors.Is(err, ErrClosed) {
		err = nil
	}
	q.halt()
	return err
}

// Kill simulates a crash: the applier stops at once and the in-memory
// backlog is abandoned. Acked events survive in the store's WAL (to the
// extent its fsync policy promised) and are back after store.Open.
func (q *Queue) Kill() {
	if q.closed.CompareAndSwap(false, true) {
		q.halt()
	}
}

// halt stops the applier.
func (q *Queue) halt() {
	close(q.stop)
	q.done.Wait()
}

// Stats snapshots the queue's counters.
func (q *Queue) Stats() Stats {
	s := q.stats.snapshot()
	s.Depth = int(q.pending.Load())
	return s
}
