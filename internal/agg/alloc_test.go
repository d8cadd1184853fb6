//go:build !race

package agg

import (
	"math/rand"
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
