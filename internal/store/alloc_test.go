//go:build !race

package store

import (
	"path/filepath"
	"runtime"
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

// TestGroupLogAppendAllocFree: an append allocates nothing in steady
// state — as the leader that writes its own group, and as a follower
// parked behind a leader that writes the follower's records with its
// own (the test holds the file as if a leader were writing until the
// follower has queued).
func TestGroupLogAppendAllocFree(t *testing.T) {
	g, _, err := OpenGroupLog([]string{filepath.Join(t.TempDir(), "wal.log")}, WALMagic, SyncFlush, false,
		func(int64, byte, []byte) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	m := Measurement{Actor: "household-17", EnergyType: "demand", Slot: 480, KWh: 0.25}
	recs := [][]byte{appendMeasurementFrame(nil, &m)}
	if n := testing.AllocsPerRun(1000, func() {
		if err := g.Append(recs); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("a leader's append allocates %.1f times, want 0", n)
	}

	start, result := make(chan struct{}), make(chan error)
	defer close(start)
	go func() {
		for range start {
			result <- g.Append(recs)
		}
	}()
	setWriting := func(v bool) {
		g.mu.Lock()
		g.writing = v
		g.mu.Unlock()
	}
	before := g.Stats()
	const runs = 1000
	if n := testing.AllocsPerRun(runs, func() {
		setWriting(true)
		start <- struct{}{}
		for queued := false; !queued; {
			runtime.Gosched()
			g.mu.Lock()
			queued = len(g.waiters) == 1
			g.mu.Unlock()
		}
		setWriting(false)
		if err := g.Append(recs); err != nil {
			t.Fatal(err)
		}
		if err := <-result; err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("a follower's append and the leader's that flushes it allocate %.1f times, want 0", n)
	}
	// AllocsPerRun adds one warm-up run.
	if after := g.Stats(); after.Records-before.Records != 2*(runs+1) || after.Groups-before.Groups != runs+1 {
		t.Fatalf("%d records in %d groups, want every follower coalesced with its leader",
			after.Records-before.Records, after.Groups-before.Groups)
	}
}
