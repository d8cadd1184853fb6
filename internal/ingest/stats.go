package ingest

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mirabel/internal/store"
)

// Stats is a point-in-time snapshot of the queue's behaviour: how deep
// the backlog runs, how fast acks come back, and how well consumers
// coalesce.
type Stats struct {
	Enqueued  uint64 // events acked (journaled or staged)
	Consumed  uint64 // events applied to the store
	Shed      uint64 // submissions rejected with ErrOverloaded
	Recovered uint64 // events replayed from the journal by Open

	Depth int // events staged in memory right now

	AckP50, AckP95, AckP99 time.Duration // producer ack latency

	Batches      uint64  // coalesced store applies
	MeanBatch    float64 // events per apply
	MaxBatchSeen int

	ApplyErrors uint64

	Compactions    uint64 // sealed journal segments retired mid-run
	CompactedBytes uint64 // journal bytes reclaimed by those compactions

	Journal store.LogStats // group-commit counters of the journal
}

// ackWindow bounds the latency reservoir; recent acks dominate.
const ackWindow = 4096

// statsCollector accumulates queue counters with atomic hot paths and a
// small mutex-guarded latency ring.
type statsCollector struct {
	enqueued      atomic.Uint64
	consumed      atomic.Uint64
	shed          atomic.Uint64
	recovered     atomic.Uint64
	batches       atomic.Uint64
	batchEvents   atomic.Uint64
	maxBatch      atomic.Int64
	applyErrs     atomic.Uint64
	compactions   atomic.Uint64
	compactedByte atomic.Uint64

	mu       sync.Mutex
	ring     [ackWindow]time.Duration
	ringNext int
	ringLen  int
	firstErr error
}

func (c *statsCollector) observeAck(d time.Duration) {
	c.mu.Lock()
	c.ring[c.ringNext] = d
	c.ringNext = (c.ringNext + 1) % ackWindow
	if c.ringLen < ackWindow {
		c.ringLen++
	}
	c.mu.Unlock()
}

func (c *statsCollector) observeBatch(n int) {
	c.consumed.Add(uint64(n))
	c.batches.Add(1)
	c.batchEvents.Add(uint64(n))
	for {
		cur := c.maxBatch.Load()
		if int64(n) <= cur || c.maxBatch.CompareAndSwap(cur, int64(n)) {
			return
		}
	}
}

func (c *statsCollector) noteApplyErr(err error) {
	c.applyErrs.Add(1)
	c.mu.Lock()
	if c.firstErr == nil {
		c.firstErr = err
	}
	c.mu.Unlock()
}

func (c *statsCollector) firstApplyErr() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.firstErr
}

func (c *statsCollector) snapshot() Stats {
	s := Stats{
		Enqueued:     c.enqueued.Load(),
		Consumed:     c.consumed.Load(),
		Shed:         c.shed.Load(),
		Recovered:    c.recovered.Load(),
		Batches:      c.batches.Load(),
		MaxBatchSeen: int(c.maxBatch.Load()),
		ApplyErrors:  c.applyErrs.Load(),

		Compactions:    c.compactions.Load(),
		CompactedBytes: c.compactedByte.Load(),
	}
	if s.Batches > 0 {
		s.MeanBatch = float64(c.batchEvents.Load()) / float64(s.Batches)
	}
	c.mu.Lock()
	lat := make([]time.Duration, c.ringLen)
	copy(lat, c.ring[:c.ringLen])
	c.mu.Unlock()
	if len(lat) > 0 {
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		s.AckP50 = lat[len(lat)*50/100]
		s.AckP95 = lat[len(lat)*95/100]
		s.AckP99 = lat[len(lat)*99/100]
	}
	return s
}
