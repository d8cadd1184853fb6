//go:build !race

package obs

import "testing"

// The race detector instruments allocations, so the zero-alloc pin only
// runs in plain builds — CI runs both variants.

// TestHistogramRecordAllocFree: recording a sample allocates nothing.
func TestHistogramRecordAllocFree(t *testing.T) {
	var h Histogram
	v := int64(1)
	if n := testing.AllocsPerRun(1000, func() {
		h.Record(v)
		v = v*3 + 1
	}); n != 0 {
		t.Fatalf("Record allocates %.1f times per op, want 0", n)
	}
}
