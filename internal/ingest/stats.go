package ingest

import (
	"sync/atomic"
	"time"

	"mirabel/internal/obs"
	"mirabel/internal/store"
)

// Stats is a point-in-time snapshot of the queue's behaviour: how deep
// the backlog runs, how fast acks come back, and how well the applier
// coalesces.
type Stats struct {
	Enqueued uint64 // events acked (logged, or staged on a volatile store)
	Consumed uint64 // events applied to the store
	Shed     uint64 // submissions rejected with ErrOverloaded

	Depth int // events staged in memory right now

	// AckP50/P95/P99 are producer ack latencies since Open, bucketed:
	// each reads high by at most 1/8.
	AckP50, AckP95, AckP99 time.Duration

	Batches      uint64  // coalesced store applies
	MeanBatch    float64 // events per apply
	MaxBatchSeen int

	// Deprecated: always zero; intake is counted in the store's
	// WALStats. ROADMAP B(3) deletes it together with bench/'s reads.
	Journal store.LogStats
}

// statsCollector accumulates queue counters: the shed count, one
// histogram of ack latencies and one of applied batch sizes.
type statsCollector struct {
	ack   obs.Histogram // producer ack latency (ns), one sample per acked event
	batch obs.Histogram // events per store apply
	shed  atomic.Uint64
}

func (c *statsCollector) snapshot() Stats {
	s := Stats{
		Enqueued:     c.ack.Count(),
		Consumed:     uint64(c.batch.Sum()),
		Shed:         c.shed.Load(),
		AckP50:       time.Duration(c.ack.Quantile(0.50)),
		AckP95:       time.Duration(c.ack.Quantile(0.95)),
		AckP99:       time.Duration(c.ack.Quantile(0.99)),
		Batches:      c.batch.Count(),
		MaxBatchSeen: int(c.batch.Max()),
	}
	if s.Batches > 0 {
		s.MeanBatch = float64(s.Consumed) / float64(s.Batches)
	}
	return s
}
