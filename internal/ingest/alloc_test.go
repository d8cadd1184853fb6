//go:build !race

package ingest

import (
	"testing"

	"mirabel/internal/store"
)

// The race detector instruments allocations, so the zero-alloc pin only
// runs in plain builds — CI runs both variants.

// TestEncodeMeasurementBatchZeroAlloc: framing a 16-fact meter batch as
// the WAL frames its ack appends, into a buffer that already has the
// room — the ack path's pooled buffer — allocates nothing.
func TestEncodeMeasurementBatchZeroAlloc(t *testing.T) {
	batch := make([]store.Measurement, 16)
	for i := range batch {
		batch[i] = meas("household-17", int64(480+i), 0.25*float64(i))
	}
	ev := store.Intake{Meas: batch}
	buf := make([]byte, 0, 1024)
	if n := testing.AllocsPerRun(1000, func() {
		buf, _ = store.AppendIntakeFrames(buf[:0], &ev)
	}); n != 0 {
		t.Fatalf("encoding a 16-fact batch allocates %.1f times per op, want 0", n)
	}
}
