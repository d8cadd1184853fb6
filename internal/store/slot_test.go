package store

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"reflect"
	"testing"

	"mirabel/internal/flexoffer"
)

// slottedStore is a durable store whose intake a test drives by hand:
// every acked event is queued, and apply applies the queue, so a test
// controls when the applier runs.
type slottedStore struct {
	*Store
	dir   string
	acked []Intake
}

func openSlotted(t *testing.T) *slottedStore {
	t.Helper()
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	ss := &slottedStore{Store: s, dir: dir}
	s.SetIntakeHandoff(func(ev Intake) { ss.acked = append(ss.acked, ev) })
	return ss
}

// offer acks rec and returns the slot it was given.
func (ss *slottedStore) offer(t *testing.T, rec OfferRecord) Slot {
	t.Helper()
	slot, err := ss.AppendOffer(&rec)
	if err != nil {
		t.Fatal(err)
	}
	if slot == NoSlot {
		t.Fatalf("offer %d acked without a slot", rec.Offer.ID)
	}
	return slot
}

func (ss *slottedStore) apply() {
	ss.ApplyIntake(ss.acked)
	ss.acked = ss.acked[:0]
}

func (ss *slottedStore) wal(t *testing.T) []byte {
	t.Helper()
	b, err := os.ReadFile(WALPath(ss.dir))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestCommitByHandleMatchesByID: one history of intake and update
// batches, applied to one store with every update naming its record's
// slot and to another naming none, leaves the same records, the same
// state index and the same WAL bytes on both — with same-id updates
// chaining inside a batch and a slot that holds another offer's record.
// A batch with an unknown id, and a batch whose group commit fails,
// restore every record they changed on both.
func TestCommitByHandleMatchesByID(t *testing.T) {
	byHandle, byID := openSlotted(t), openSlotted(t)
	rng := rand.New(rand.NewSource(52))
	const offers = 600
	slots := make(map[flexoffer.ID]Slot)
	for id := flexoffer.ID(1); id <= offers; id++ {
		f := &flexoffer.FlexOffer{ID: id, EarliestStart: 10, LatestStart: 20, AssignBefore: 5,
			Profile: make([]flexoffer.Slice, 1+rng.Intn(6))}
		rec := OfferRecord{Offer: f, Owner: "p1", State: OfferAccepted}
		slots[id] = byHandle.offer(t, rec)
		byID.offer(t, rec)
		if id%100 == 0 {
			byHandle.apply()
			byID.apply()
		}
	}
	scheduled := func(r *OfferRecord) {
		r.State, r.Schedule = OfferScheduled, r.Offer.DefaultSchedule()
	}
	// The schedule a Mutate sets must be the same pointer on both
	// stores for the records to compare equal, so each batch's
	// schedules are made once.
	batch := func(withSlots bool, ids []flexoffer.ID, mutate []func(*OfferRecord)) []OfferUpdate {
		ups := make([]OfferUpdate, len(ids))
		for i, id := range ids {
			ups[i] = OfferUpdate{ID: id, Mutate: mutate[i]}
			if withSlots {
				ups[i].Slot = slots[id]
			}
		}
		return ups
	}
	run := func(ids []flexoffer.ID, mutate []func(*OfferRecord)) (errH, errI error) {
		_, errH = byHandle.UpdateOffers(batch(true, ids, mutate))
		_, errI = byID.UpdateOffers(batch(false, ids, mutate))
		return
	}
	same := func(when string) {
		t.Helper()
		if h, i := storeContents(byHandle.Store), storeContents(byID.Store); !reflect.DeepEqual(h, i) {
			t.Fatalf("%s: the store updated by slot differs from the one updated by id", when)
		}
		if !bytes.Equal(byHandle.wal(t), byID.wal(t)) {
			t.Fatalf("%s: the two stores' WALs differ", when)
		}
	}

	for round := 0; round < 20; round++ {
		var ids []flexoffer.ID
		var mutate []func(*OfferRecord)
		for k := 0; k < 50; k++ {
			id := flexoffer.ID(1 + rng.Intn(offers))
			switch rng.Intn(4) {
			case 0: // a chain: the second update sees the first's result
				sched := (&flexoffer.FlexOffer{ID: id, Profile: make([]flexoffer.Slice, 2)}).DefaultSchedule()
				ids = append(ids, id, id)
				mutate = append(mutate,
					func(r *OfferRecord) { r.State, r.Schedule = OfferScheduled, sched },
					func(r *OfferRecord) {
						if r.State == OfferScheduled {
							r.State = OfferExecuted
						}
					})
			case 1:
				ids, mutate = append(ids, id), append(mutate, executeOffer)
			default:
				sched := (&flexoffer.FlexOffer{ID: id, Profile: make([]flexoffer.Slice, 3)}).DefaultSchedule()
				ids = append(ids, id)
				mutate = append(mutate, func(r *OfferRecord) { r.State, r.Schedule = OfferScheduled, sched })
			}
		}
		before := storeContents(byHandle.Store)
		// No record holds the last id: the batch fails whole.
		eh, ei := run(append(ids, offers+1), append(mutate, scheduled))
		if !errors.Is(eh, ErrUnknownOffer) || !errors.Is(ei, ErrUnknownOffer) {
			t.Fatalf("round %d: a batch with an unknown id = %v by slot, %v by id; want ErrUnknownOffer on both", round, eh, ei)
		}
		same("after a batch with an unknown id")
		if after := storeContents(byHandle.Store); !reflect.DeepEqual(after, before) {
			t.Fatalf("round %d: a batch with an unknown id left a record changed", round)
		}
		if eh, ei := run(ids, mutate); eh != nil || ei != nil {
			t.Fatalf("round %d: %v, %v", round, eh, ei)
		}
		same("after a committed batch")
	}

	// A slot that holds another offer's record is passed over.
	stale := []OfferUpdate{{ID: 1, Slot: slots[2], Mutate: executeOffer}}
	if _, err := byHandle.UpdateOffers(stale); err != nil {
		t.Fatal(err)
	}
	if _, err := byID.UpdateOffers([]OfferUpdate{{ID: 1, Mutate: executeOffer}}); err != nil {
		t.Fatal(err)
	}
	same("after an update with another offer's slot")
	if r1, _ := byHandle.GetOffer(1); r1.State != OfferExecuted {
		t.Fatalf("offer 1 = %+v after an update naming offer 2's slot, want executed", r1)
	}

	// A failed group commit restores every record on both stores.
	before := storeContents(byHandle.Store)
	for _, s := range []*slottedStore{byHandle, byID} {
		if err := s.w.Close(); err != nil {
			t.Fatal(err)
		}
	}
	ids := []flexoffer.ID{3, 4, 3, 5}
	mutate := []func(*OfferRecord){scheduled, scheduled, executeOffer, executeOffer}
	if eh, ei := run(ids, mutate); eh == nil || ei == nil {
		t.Fatalf("a batch on a closed WAL committed: %v, %v", eh, ei)
	}
	same("after a failed commit")
	if after := storeContents(byHandle.Store); !reflect.DeepEqual(after, before) {
		t.Fatal("a failed commit left a record changed")
	}
}

// TestIntakeRejectedDuplicateNeverTakesCommitSlot: a rejected record
// acked for an ID an accepted record holds (the offers_if_absent rule)
// gets a slot of its own but never takes or overwrites the accepted
// record's: the accepted record stays where the commit's handle points,
// whether the rejected one is applied in the same round or a later
// one, and a reopen keeps it too. An accepted record acked after a
// rejected one of its ID moves into its own slot.
func TestIntakeRejectedDuplicateNeverTakesCommitSlot(t *testing.T) {
	s := openSlotted(t)
	f := &flexoffer.FlexOffer{ID: 7, EarliestStart: 10, LatestStart: 20, AssignBefore: 5, Profile: make([]flexoffer.Slice, 2)}
	accepted := OfferRecord{Offer: f, Owner: "p1", State: OfferAccepted}
	dup := OfferRecord{Offer: f.Clone(), Owner: "p2", State: OfferRejected}

	kept := s.offer(t, accepted)
	late := s.offer(t, dup) // acked before the accepted record applies
	s.apply()
	later := s.offer(t, dup) // acked after
	s.apply()
	if kept == late || kept == later || late == later {
		t.Fatalf("slots %v, %v, %v: want one per acked record", kept, late, later)
	}
	holds := func(s *slottedStore, slot Slot, want OfferRecord) {
		t.Helper()
		st := &s.offers.stripes[slot.stripe()]
		st.mu.RLock()
		defer st.mu.RUnlock()
		e := st.peek(slot.index())
		if e == nil || !e.live || e.key != want.Offer.ID || e.val != want {
			t.Fatalf("slot %v holds %+v, want offer %d's record %+v", slot, e, want.Offer.ID, want)
		}
	}
	empty := func(s *slottedStore, slot Slot) {
		t.Helper()
		st := &s.offers.stripes[slot.stripe()]
		st.mu.RLock()
		defer st.mu.RUnlock()
		if e := st.peek(slot.index()); e != nil && e.live {
			t.Fatalf("slot %v holds %+v, want it empty", slot, e.val)
		}
	}
	holds(s, kept, accepted)
	empty(s, late)
	empty(s, later)

	// The commit's handle reaches the accepted record, and a handle to
	// the rejected record's slot finds it by ID.
	for _, slot := range []Slot{kept, late} {
		failed, err := s.UpdateOffers([]OfferUpdate{{ID: 7, Slot: slot, Mutate: func(r *OfferRecord) { r.State = OfferScheduled }}})
		if err != nil || failed != nil {
			t.Fatalf("update through slot %v: %v, %v", slot, failed, err)
		}
	}
	scheduled := accepted
	scheduled.State = OfferScheduled
	holds(s, kept, scheduled)
	if rec, _ := s.GetOffer(7); rec != scheduled {
		t.Fatalf("offer 7 = %+v, want %+v", rec, scheduled)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(s.dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if rec, _ := re.GetOffer(7); rec.Owner != "p1" || rec.State != OfferScheduled {
		t.Fatalf("reopened offer 7 = %+v, want p1's scheduled record", rec)
	}

	// A rejected record of a fresh ID is stored; an accepted one of
	// that ID then moves into its own slot and leaves the old one empty.
	s2 := openSlotted(t)
	g := &flexoffer.FlexOffer{ID: 9, EarliestStart: 10, LatestStart: 20, AssignBefore: 5, Profile: make([]flexoffer.Slice, 2)}
	first := s2.offer(t, OfferRecord{Offer: g, Owner: "p2", State: OfferRejected})
	s2.apply()
	second := s2.offer(t, OfferRecord{Offer: g, Owner: "p1", State: OfferAccepted})
	s2.apply()
	holds(s2, second, OfferRecord{Offer: g, Owner: "p1", State: OfferAccepted})
	empty(s2, first)
	if n := s2.Stats().Offers; n != 1 {
		t.Fatalf("%d offers stored, want 1", n)
	}
	if counts := s2.CountOffersByState(); counts[OfferAccepted] != 1 || counts[OfferRejected] != 0 {
		t.Fatalf("state counts %v, want offer 9 accepted only", counts)
	}
}

// TestOffersInIDOrderOnBothPaths: the state-indexed listing and the
// whole-table scan both return every matching record once, in ID order,
// for offers stored out of ID order across every stripe.
func TestOffersInIDOrderOnBothPaths(t *testing.T) {
	s := NewInMemory()
	rng := rand.New(rand.NewSource(3))
	const n = 2000
	for _, k := range rng.Perm(n) {
		id := flexoffer.ID(k + 1)
		state := OfferAccepted
		if id%3 == 0 {
			state = OfferScheduled
		}
		if err := s.PutOffer(OfferRecord{Offer: testOffer(id), Owner: []string{"p1", "p2"}[id%2], State: state}); err != nil {
			t.Fatal(err)
		}
	}
	for name, tc := range map[string]struct {
		f    OfferFilter
		want int
	}{
		"state index":     {OfferFilter{State: OfferScheduled}, n / 3},
		"state and owner": {OfferFilter{State: OfferAccepted, Owner: "p1"}, n/2 - n/6},
		"whole table":     {OfferFilter{}, n},
		"owner scan":      {OfferFilter{Owner: "p2"}, n / 2},
	} {
		got := s.Offers(tc.f)
		if len(got) != tc.want {
			t.Errorf("%s: %d records, want %d", name, len(got), tc.want)
		}
		for i := 1; i < len(got); i++ {
			if got[i].Offer.ID <= got[i-1].Offer.ID {
				t.Fatalf("%s: record %d has ID %d after %d, want ascending IDs", name, i, got[i].Offer.ID, got[i-1].Offer.ID)
			}
		}
	}
}
