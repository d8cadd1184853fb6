package ingest

import (
	"context"
	"sync/atomic"
	"testing"

	"mirabel/internal/store"
)

// TestOnMeasurementsHookSeesLiveBatches: the hook fires for every
// measurement flowing through the applier, including coalesced batches.
func TestOnMeasurementsHookSeesLiveBatches(t *testing.T) {
	s := testStore(t)
	var seen atomic.Int64
	q, err := Open(Config{
		Store: s, Queue: 32, Policy: PolicyBlock, MaxBatch: 16,
		OnMeasurements: func(ms []store.Measurement) { seen.Add(int64(len(ms))) },
	})
	if err != nil {
		t.Fatalf("open queue: %v", err)
	}
	ctx := context.Background()
	const n = 40
	for i := 0; i < n; i++ {
		if err := q.SubmitMeasurements(ctx, []store.Measurement{meas("p1", int64(i), 1)}); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	if err := q.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if got := seen.Load(); got != n {
		t.Fatalf("hook saw %d measurements, want %d", got, n)
	}
	if err := q.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}
