//go:build !race

package store

import (
	"testing"

	"mirabel/internal/flexoffer"
)

// The race detector instruments allocations, so the zero-alloc pin only
// runs in plain builds — CI runs both variants.

// TestEncodeOfferRecordZeroAlloc: framing an offer record into a buffer
// that already has the room allocates nothing — through the function
// PutOffer frames with, through the one UpdateOffer and UpdateOffers
// frame a state-only step, a transition or a whole record with, and
// through the untyped one ApplyBatch hands its already boxed ops to.
func TestEncodeOfferRecordZeroAlloc(t *testing.T) {
	f := &flexoffer.FlexOffer{
		ID: 42, Prosumer: "household-17", EarliestStart: 88, LatestStart: 116, AssignBefore: 80, CostPerKWh: 0.07,
		Profile: make([]flexoffer.Slice, 8),
	}
	rec := OfferRecord{Offer: f, Owner: "household-17", State: OfferScheduled, Schedule: f.DefaultSchedule()}
	executed := rec
	executed.State = OfferExecuted
	rescheduled := rec
	rescheduled.Schedule = f.DefaultSchedule()
	moved := rec
	moved.Owner = "household-18"
	m := Measurement{Actor: "household-17", EnergyType: "demand", Slot: 480, KWh: 0.25}
	buf := make([]byte, 0, 1024)
	if n := testing.AllocsPerRun(1000, func() {
		buf = appendOfferFrame(buf[:0], &rec)
		buf = appendMeasurementFrame(buf, &m)
	}); n != 0 {
		t.Fatalf("framing an offer record and a measurement allocates %.1f times per op, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() {
		buf = appendUpdateFrame(buf[:0], &rec, &executed)
		buf = appendUpdateFrame(buf, &rec, &rescheduled)
		buf = appendUpdateFrame(buf, &rec, &moved)
	}); n != 0 {
		t.Fatalf("framing a state-only step, a transition and a whole-record update allocates %.1f times per op, want 0", n)
	}
	if tag := buf[frameHeaderLen]; tag != tagOfferStateOnly {
		t.Fatalf("an update that kept the schedule framed tag %d, want the state-only step", tag)
	}
	ops := []batchOp{{tagOffer, rec}, {tagMeasurement, m}}
	if n := testing.AllocsPerRun(1000, func() {
		buf = buf[:0]
		for _, op := range ops {
			buf, _ = appendRecord(buf, op.tag, op.val)
		}
	}); n != 0 {
		t.Fatalf("framing a batch's boxed ops allocates %.1f times per op, want 0", n)
	}
}

// TestUpdateOffersAllocFreePerUpdate: a batch of offer transitions
// allocates its result slice and nothing per update — not a copy of each
// record for its Mutate, not a move list for the state index.
func TestUpdateOffersAllocFreePerUpdate(t *testing.T) {
	s := NewInMemory()
	updates := make([]OfferUpdate, 256)
	flip := func(r *OfferRecord) {
		if r.State == OfferAccepted {
			r.State = OfferScheduled
		} else {
			r.State = OfferAccepted
		}
	}
	for i := range updates {
		id := flexoffer.ID(i + 1)
		if err := s.PutOffer(OfferRecord{Offer: &flexoffer.FlexOffer{ID: id}, Owner: "p1", State: OfferAccepted}); err != nil {
			t.Fatal(err)
		}
		updates[i] = OfferUpdate{ID: id, Mutate: flip}
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, err := s.UpdateOffers(updates); err != nil {
			t.Fatal(err)
		}
	}); n > 1 {
		t.Fatalf("a 256-update batch allocates %.1f times, want its result slice only", n)
	}
}
