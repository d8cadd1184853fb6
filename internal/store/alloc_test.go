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
// PutOffer and ApplyBatch frame with, and through the one UpdateOffer
// and UpdateOffers frame a state-only step, a transition or a whole
// record with.
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
	g, _, err := OpenGroupLog(filepath.Join(t.TempDir(), "wal.log"), WALMagic, SyncFlush, false,
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

// writeLifecycleWAL logs n offers into a fresh store at dir, each put,
// then scheduled (a transition with its schedule) and then executed (a
// state-only step): 3n records, the life most offers of a node lead.
func writeLifecycleWAL(t *testing.T, dir string, n int) {
	t.Helper()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	b := NewBatch()
	scheduled := make([]OfferUpdate, n)
	executed := make([]OfferUpdate, n)
	for i := range scheduled {
		id := flexoffer.ID(i + 1)
		f := &flexoffer.FlexOffer{ID: id, Prosumer: "household-17", EarliestStart: 88, LatestStart: 116, AssignBefore: 80, CostPerKWh: 0.07,
			Profile: make([]flexoffer.Slice, 8)}
		b.PutOffer(OfferRecord{Offer: f, Owner: "household-17", State: OfferAccepted})
		scheduled[i] = OfferUpdate{ID: id, Mutate: func(r *OfferRecord) {
			r.State, r.Schedule = OfferScheduled, r.Offer.DefaultSchedule()
		}}
		executed[i] = OfferUpdate{ID: id, Mutate: func(r *OfferRecord) { r.State = OfferExecuted }}
	}
	if err := s.ApplyBatch(b); err != nil {
		t.Fatal(err)
	}
	for _, ups := range [][]OfferUpdate{scheduled, executed} {
		if _, err := s.UpdateOffers(ups); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestReplayAllocs: a reopen decodes offers, schedules and their runs
// into per-replay slabs, so replaying a WAL allocates per chunk, not per
// record. 4,000 offers that were each scheduled and executed (12,000
// records) reopen in at most 1,000 allocations, and going from 1,000
// offers to 4,000 costs fewer than one allocation per 32 records.
func TestReplayAllocs(t *testing.T) {
	reopenAllocs := func(offers int) float64 {
		dir := t.TempDir()
		writeLifecycleWAL(t, dir, offers)
		return testing.AllocsPerRun(5, func() {
			s, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := reopenAllocs(1000), reopenAllocs(4000)
	t.Logf("a reopen allocates %.0f times for 1,000 offers' lives, %.0f for 4,000", small, large)
	if large > 1000 {
		t.Errorf("reopening 4,000 offers' lives (12,000 records) allocates %.0f times, want at most 1,000", large)
	}
	if perRecord := (large - small) / (3 * 3000); perRecord >= 1.0/32 {
		t.Errorf("3,000 more offers' lives cost %.0f more allocations (%.3f per record), want under 1/32 per record", large-small, perRecord)
	}
}
