//go:build !race

package agg

import (
	"math/rand"
	"runtime"
	"testing"
)

// The race detector instruments allocations, so the zero-alloc pin only
// runs in plain builds — CI runs both variants.

// TestAccumulateZeroAlloc: intake accumulates one insert per accepted
// offer under the node lock, so once the builder's pending maps have
// room, validating and recording a batch allocates nothing — neither a
// single insert, nor the delete that cancels it, nor a multi-update
// batch checked against offers already applied.
func TestAccumulateZeroAlloc(t *testing.T) {
	p := NewPipeline(ParamsP3)
	offers := randomOffers(rand.New(rand.NewSource(1)), 64)
	if err := p.Apply(inserts(offers[:32]...)...); err != nil {
		t.Fatal(err)
	}
	f, g := offers[40], offers[41]
	if n := testing.AllocsPerRun(1000, func() {
		if err := p.Accumulate(FlexOfferUpdate{Kind: Insert, Offer: f}); err != nil {
			t.Fatal(err)
		}
		if err := p.Accumulate(FlexOfferUpdate{Kind: Delete, Offer: f}); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("a single-offer insert and its cancelling delete allocate %.1f times per op, want 0", n)
	}
	batch := []FlexOfferUpdate{
		{Kind: Insert, Offer: f}, {Kind: Insert, Offer: g},
		{Kind: Delete, Offer: f}, {Kind: Delete, Offer: g},
	}
	if n := testing.AllocsPerRun(1000, func() {
		if err := p.Accumulate(batch...); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("a four-update batch allocates %.1f times per op, want 0", n)
	}
	if got := pendingUpdates(p); got != 0 {
		t.Fatalf("pending after cancelled inserts = %d, want 0", got)
	}
}

// TestLeaveWholeZeroAlloc: the commit hands every planned aggregate
// back through LeaveWhole and retires them in one Process, under the
// node lock. Once the pipeline's scratch has room, that path allocates
// nothing: not the lookups and slots of LeaveWhole, nor the releases,
// deltas and group drops of the Process that follows. Each round
// refills the pipeline untimed, so the count is taken by hand around
// the two calls: the fewest mallocs of 20 warm rounds, which leaves out
// a runtime's own allocation that lands in a round now and then.
func TestLeaveWholeZeroAlloc(t *testing.T) {
	p := NewPipeline(ParamsP3)
	offers := randomOffers(rand.New(rand.NewSource(2)), 200)
	var slots []uint64
	fewest := uint64(1 << 62)
	var before, after runtime.MemStats
	for round := 0; round < 22; round++ {
		for _, f := range offers {
			f.ID += 1000 // a fresh ID every round
		}
		if err := p.Apply(inserts(offers...)...); err != nil {
			t.Fatal(err)
		}
		snaps := p.Aggregates()
		for i, a := range snaps {
			snaps[i] = a.Snapshot()
		}
		runtime.ReadMemStats(&before)
		var ok bool
		for _, s := range snaps {
			if slots, ok = p.LeaveWhole(s, slots[:0]); !ok {
				t.Fatalf("aggregate %d refused to leave whole", s.Offer.ID)
			}
		}
		p.Process()
		runtime.ReadMemStats(&after)
		if p.NumOffers() != 0 || len(p.Aggregates()) != 0 {
			t.Fatalf("round %d: %d offers held after every aggregate left", round, p.NumOffers())
		}
		if round >= 2 {
			fewest = min(fewest, after.Mallocs-before.Mallocs)
		}
	}
	if fewest != 0 {
		t.Fatalf("a warm LeaveWhole of every aggregate and its Process allocate %d objects, want 0", fewest)
	}
}
