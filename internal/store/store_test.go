package store

import (
	"errors"
	"path/filepath"
	"testing"
	"testing/quick"

	"mirabel/internal/flexoffer"
)

func testOffer(id flexoffer.ID) *flexoffer.FlexOffer {
	return &flexoffer.FlexOffer{
		ID: id, EarliestStart: 10, LatestStart: 20, AssignBefore: 5,
		Profile: []flexoffer.Slice{{EnergyMin: 1, EnergyMax: 2}},
	}
}

func TestInMemoryCRUD(t *testing.T) {
	s := NewInMemory()
	if err := s.PutOffer(OfferRecord{Offer: testOffer(1), Owner: "p1", State: OfferReceived}); err != nil {
		t.Fatal(err)
	}
	if err := s.PutOffer(OfferRecord{Offer: testOffer(1), Owner: "p2", State: OfferAccepted}); err != nil { // upsert
		t.Fatal(err)
	}
	if r, ok := s.GetOffer(1); !ok || r.Owner != "p2" || r.State != OfferAccepted {
		t.Errorf("GetOffer = %+v, %v", r, ok)
	}
	// A rejected intake record is stored under a fresh id only.
	s.SetIntakeHandoff(ignoreIntake)
	for id := flexoffer.ID(1); id <= 2; id++ {
		if err := ingest(s, Intake{Offer: &OfferRecord{Offer: testOffer(id), Owner: "p3", State: OfferRejected}}); err != nil {
			t.Fatal(err)
		}
	}
	if r, _ := s.GetOffer(1); r.Owner != "p2" || r.State != OfferAccepted {
		t.Errorf("a rejected record over a stored id replaced it: %+v", r)
	}
	if got := s.Offers(OfferFilter{Owner: "p3"}); len(got) != 1 || got[0].Offer.ID != 2 {
		t.Errorf("Offers by owner = %+v", got)
	}
	if _, ok := s.GetOffer(3); ok {
		t.Error("missing offer found")
	}
}

func TestMeasurementQueries(t *testing.T) {
	s := NewInMemory()
	s.SetIntakeHandoff(ignoreIntake)
	for slot := flexoffer.Time(0); slot < 10; slot++ {
		for _, actor := range []string{"p1", "p2"} {
			if err := putMeasurements(s, Measurement{Actor: actor, EnergyType: "demand", Slot: slot, KWh: 1}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := putMeasurements(s, Measurement{Actor: "p1", EnergyType: "solar", Slot: 3, KWh: -2}); err != nil {
		t.Fatal(err)
	}

	ms := s.Measurements(MeasurementFilter{Actor: "p1", EnergyType: "demand", FromSlot: 2, ToSlot: 5})
	if len(ms) != 3 {
		t.Fatalf("filtered measurements = %d, want 3", len(ms))
	}
	for i := 1; i < len(ms); i++ {
		if ms[i].Slot < ms[i-1].Slot {
			t.Error("measurements not ordered by slot")
		}
	}

	sums := sumBySlot(s, MeasurementFilter{EnergyType: "demand"})
	if sums[0] != 2 {
		t.Errorf("slot 0 sum = %g, want 2", sums[0])
	}
}

func TestMeasurementUpsertOverwrites(t *testing.T) {
	s := NewInMemory()
	s.SetIntakeHandoff(ignoreIntake)
	m := Measurement{Actor: "p1", EnergyType: "demand", Slot: 1, KWh: 5}
	if err := putMeasurements(s, m); err != nil {
		t.Fatal(err)
	}
	m.KWh = 7 // meter correction
	if err := putMeasurements(s, m); err != nil {
		t.Fatal(err)
	}
	if got := sumBySlot(s, MeasurementFilter{})[1]; got != 7 {
		t.Errorf("upsert kept old value: %g", got)
	}
}

func TestOfferLifecycle(t *testing.T) {
	s := NewInMemory()
	if err := s.PutOffer(OfferRecord{Offer: testOffer(1), Owner: "p1", State: OfferReceived}); err != nil {
		t.Fatal(err)
	}
	if err := s.PutOffer(OfferRecord{Offer: testOffer(2), Owner: "p1", State: OfferAccepted}); err != nil {
		t.Fatal(err)
	}
	if err := s.PutOffer(OfferRecord{}); err == nil {
		t.Error("record without offer accepted")
	}
	r, ok := s.GetOffer(1)
	if !ok || r.State != OfferReceived {
		t.Errorf("GetOffer = %+v, %v", r, ok)
	}
	counts := s.CountOffersByState()
	if counts[OfferReceived] != 1 || counts[OfferAccepted] != 1 {
		t.Errorf("counts = %+v", counts)
	}
	if got := s.Offers(OfferFilter{State: OfferAccepted}); len(got) != 1 || got[0].Offer.ID != 2 {
		t.Errorf("Offers filter = %+v", got)
	}
}

func TestDurabilityWALReplay(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s.SetIntakeHandoff(ignoreIntake)
	if err := putMeasurements(s, Measurement{Actor: "p1", EnergyType: "demand", Slot: 4, KWh: 9}); err != nil {
		t.Fatal(err)
	}
	if err := s.PutOffer(OfferRecord{Offer: testOffer(3), Owner: "p1", State: OfferScheduled,
		Schedule: &flexoffer.Schedule{OfferID: 3, Start: 12, Energy: []float64{1.5}}}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: WAL replay must restore everything.
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := sumBySlot(s2, MeasurementFilter{})[4]; got != 9 {
		t.Errorf("measurement lost: %g", got)
	}
	r, ok := s2.GetOffer(3)
	if !ok || r.State != OfferScheduled || r.Schedule.Start != 12 {
		t.Errorf("offer lost: %+v, %v", r, ok)
	}
}

func TestStats(t *testing.T) {
	s := NewInMemory()
	s.SetIntakeHandoff(ignoreIntake)
	putMeasurements(s, Measurement{Actor: "a", EnergyType: "demand", Slot: 1, KWh: 1})
	putMeasurements(s, Measurement{Actor: "a", EnergyType: "demand", Slot: 1, KWh: 2}) // upsert
	putMeasurements(s, Measurement{Actor: "a", EnergyType: "solar", Slot: 1, KWh: -1})
	s.PutOffer(OfferRecord{Offer: testOffer(1), Owner: "a", State: OfferAccepted})
	if st := s.Stats(); st != (Stats{Measurements: 2, Offers: 1}) {
		t.Errorf("Stats = %+v", st)
	}
}

// Property: durable store state after Close/Open equals in-memory state
// for random measurement batches.
func TestPropertyRecoveryEquivalence(t *testing.T) {
	dir := t.TempDir()
	i := 0
	f := func(slots []uint8, vals []float64) bool {
		i++
		sub := filepath.Join(dir, "case", string(rune('a'+i%26)), "x")
		n := len(slots)
		if len(vals) < n {
			n = len(vals)
		}
		s, err := Open(sub)
		if err != nil {
			return false
		}
		s.SetIntakeHandoff(ignoreIntake)
		want := make(map[flexoffer.Time]float64)
		for j := 0; j < n; j++ {
			v := vals[j]
			if v != v || v > 1e100 || v < -1e100 { // NaN/huge guards
				v = 1
			}
			m := Measurement{Actor: "p", EnergyType: "demand", Slot: flexoffer.Time(slots[j]), KWh: v}
			if err := putMeasurements(s, m); err != nil {
				return false
			}
			want[m.Slot] = v
		}
		if err := s.Close(); err != nil {
			return false
		}
		s2, err := Open(sub)
		if err != nil {
			return false
		}
		defer s2.Close()
		got := sumBySlot(s2, MeasurementFilter{})
		if len(got) != len(want) {
			return false
		}
		for k, v := range want {
			if got[k] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

func TestUpdateOfferAtomicTransition(t *testing.T) {
	s := NewInMemory()
	f := &flexoffer.FlexOffer{ID: 7, EarliestStart: 40, LatestStart: 48, AssignBefore: 32,
		Profile: []flexoffer.Slice{{EnergyMin: 0, EnergyMax: 5}}}
	if err := s.PutOffer(OfferRecord{Offer: f, Owner: "p7", State: OfferReceived}); err != nil {
		t.Fatal(err)
	}
	// A concurrent writer advanced the record (a schedule arrived).
	sched := &flexoffer.Schedule{OfferID: 7, Start: 40, Energy: []float64{1}}
	if _, err := s.UpdateOffer(7, func(r *OfferRecord) {
		r.State = OfferScheduled
		r.Schedule = sched
	}); err != nil {
		t.Fatal(err)
	}
	// The guarded transition observes the current state and declines,
	// preserving the schedule instead of stomping it.
	rec, err := s.UpdateOffer(7, func(r *OfferRecord) {
		if r.State == OfferReceived {
			r.State = OfferAccepted
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if rec.State != OfferScheduled || rec.Schedule != sched || rec.Owner != "p7" {
		t.Errorf("record = %+v, want scheduled state and fields preserved", rec)
	}
	if _, err := s.UpdateOffer(99, func(r *OfferRecord) {}); !errors.Is(err, ErrUnknownOffer) {
		t.Errorf("unknown offer err = %v, want ErrUnknownOffer", err)
	}
}
