package ingest

import (
	"sync"
	"sync/atomic"
	"time"

	"mirabel/internal/obs"
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

	// AckP50/P95/P99 are producer ack latencies since Open, bucketed:
	// each reads high by at most 1/8.
	AckP50, AckP95, AckP99 time.Duration

	Batches      uint64  // coalesced store applies
	MeanBatch    float64 // events per apply
	MaxBatchSeen int

	ApplyErrors uint64

	Compactions    uint64 // sealed journal segments retired mid-run
	CompactedBytes uint64 // journal bytes reclaimed by those compactions

	Journal store.LogStats // group-commit counters of the journal
}

// statsCollector accumulates queue counters: atomics, one histogram
// of ack latencies and one of applied batch sizes.
type statsCollector struct {
	ack   obs.Histogram // producer ack latency (ns), one sample per acked event
	batch obs.Histogram // events per store apply

	shed          atomic.Uint64
	recovered     atomic.Uint64
	applyErrs     atomic.Uint64
	compactions   atomic.Uint64
	compactedByte atomic.Uint64

	mu       sync.Mutex
	firstErr error
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
		Enqueued:     c.ack.Count(),
		Consumed:     uint64(c.batch.Sum()),
		Shed:         c.shed.Load(),
		Recovered:    c.recovered.Load(),
		AckP50:       time.Duration(c.ack.Quantile(0.50)),
		AckP95:       time.Duration(c.ack.Quantile(0.95)),
		AckP99:       time.Duration(c.ack.Quantile(0.99)),
		Batches:      c.batch.Count(),
		MaxBatchSeen: int(c.batch.Max()),
		ApplyErrors:  c.applyErrs.Load(),

		Compactions:    c.compactions.Load(),
		CompactedBytes: c.compactedByte.Load(),
	}
	if s.Batches > 0 {
		s.MeanBatch = float64(s.Consumed) / float64(s.Batches)
	}
	return s
}
