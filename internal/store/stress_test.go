package store

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"mirabel/internal/flexoffer"
)

// TestStoreStressConcurrent hammers a durable store from every angle at
// once — batch writers, single-put writers, offer transitions, indexed
// readers and a retention sweep — and then proves the WAL
// and the in-memory state agree by recovering into a fresh store. Run
// under -race this is the engine's lock-discipline audit.
func TestStoreStressConcurrent(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s.SetIntakeHandoff(ignoreIntake)

	const (
		writers  = 4
		batches  = 20
		batchLen = 50
		offerN   = 200
	)
	var wg sync.WaitGroup

	// Batch measurement writers, one actor each: in-order meter streams.
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			actor := fmt.Sprintf("meter%d", w)
			for b := 0; b < batches; b++ {
				ms := make([]Measurement, batchLen)
				for i := range ms {
					slot := flexoffer.Time(b*batchLen + i)
					ms[i] = Measurement{Actor: actor, EnergyType: "demand", Slot: slot, KWh: 1}
				}
				if err := putMeasurements(s, ms...); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}

	// Single-put writers on a shared actor (same series, contended).
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < batches*batchLen; i++ {
				slot := flexoffer.Time(i*2 + w)
				if err := putMeasurements(s, Measurement{Actor: "shared", EnergyType: "demand", Slot: slot, KWh: 1}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}

	// Offer writers: insert, then batch-transition.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for id := flexoffer.ID(1); id <= offerN; id++ {
			if err := s.PutOffer(OfferRecord{Offer: testOffer(id), Owner: fmt.Sprintf("p%d", id%7), State: OfferAccepted}); err != nil {
				t.Error(err)
				return
			}
		}
		ups := make([]OfferUpdate, 0, offerN/2)
		for id := flexoffer.ID(1); id <= offerN/2; id++ {
			ups = append(ups, OfferUpdate{ID: id, Mutate: func(r *OfferRecord) { r.State = OfferScheduled }})
		}
		if _, err := s.UpdateOffers(ups); err != nil {
			t.Error(err)
		}
	}()

	// Readers over every index while the writers run.
	stopRead := make(chan struct{})
	var readWG sync.WaitGroup
	for r := 0; r < 3; r++ {
		readWG.Add(1)
		go func(r int) {
			defer readWG.Done()
			for {
				select {
				case <-stopRead:
					return
				default:
				}
				s.Measurements(MeasurementFilter{Actor: fmt.Sprintf("meter%d", r%writers), EnergyType: "demand", FromSlot: 10, ToSlot: 200})
				sumBySlot(s, MeasurementFilter{EnergyType: "demand"})
				s.Offers(OfferFilter{State: OfferScheduled})
				s.CountOffersByState()
				s.Stats()
			}
		}(r)
	}

	// A retention sweep races the load.
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := s.PruneMeasurements(5); err != nil {
			t.Error(err)
		}
	}()

	wg.Wait()
	close(stopRead)
	readWG.Wait()

	// Settle on a final state: prune is racy against late writers above,
	// so sweep once more deterministically.
	if _, err := s.PruneMeasurements(5); err != nil {
		t.Fatal(err)
	}
	want := s.Stats()
	wantSum := sumBySlot(s, MeasurementFilter{EnergyType: "demand"})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Recovery equivalence: the log replays to the exact same state.
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.Stats(); got != want {
		t.Errorf("recovered stats %+v != live %+v", got, want)
	}
	gotSum := sumBySlot(s2, MeasurementFilter{EnergyType: "demand"})
	if len(gotSum) != len(wantSum) {
		t.Fatalf("recovered %d slots, want %d", len(gotSum), len(wantSum))
	}
	for slot, v := range wantSum {
		if gotSum[slot] != v {
			t.Errorf("slot %d: recovered %g, want %g", slot, gotSum[slot], v)
		}
	}
	if got := len(s2.Offers(OfferFilter{State: OfferScheduled})); got != offerN/2 {
		t.Errorf("recovered scheduled offers = %d, want %d", got, offerN/2)
	}
}

// TestBatchPruneCreateNoDeadlock races measurement batches on existing
// series, new-series creation and prune sweeps, which hold the series
// index's read lock while they take every series lock: no writer may
// hold a series lock while it waits on the index.
func TestBatchPruneCreateNoDeadlock(t *testing.T) {
	s := NewInMemory()
	s.SetIntakeHandoff(ignoreIntake)
	done := make(chan struct{})
	go func() {
		defer close(done)
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) { // batch writers on existing series
				defer wg.Done()
				actor := fmt.Sprintf("m%d", w)
				for i := 0; i < 200; i++ {
					ms := []Measurement{
						{Actor: actor, EnergyType: "demand", Slot: flexoffer.Time(i), KWh: 1},
						{Actor: actor, EnergyType: "solar", Slot: flexoffer.Time(i), KWh: 1},
					}
					if err := putMeasurements(s, ms...); err != nil {
						t.Error(err)
						return
					}
				}
			}(w)
		}
		wg.Add(1)
		go func() { // a steady stream of brand-new series
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if err := putMeasurements(s, Measurement{Actor: fmt.Sprintf("new%d", i), EnergyType: "demand", Slot: 1, KWh: 1}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
		wg.Add(1)
		go func() { // retention sweeps racing both
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if _, err := s.PruneMeasurements(flexoffer.Time(i)); err != nil {
					t.Error(err)
					return
				}
			}
		}()
		wg.Wait()
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("store deadlocked under batch + prune + series creation")
	}
}

// TestConcurrentUpdateOfferTransitions races single and batched
// transitions of the same records: every transition must be an atomic
// read-modify-write (no lost updates).
func TestConcurrentUpdateOfferTransitions(t *testing.T) {
	s := NewInMemory()
	const n = 64
	for id := flexoffer.ID(1); id <= n; id++ {
		if err := s.PutOffer(OfferRecord{Offer: testOffer(id), Owner: "p", State: OfferAccepted}); err != nil {
			t.Fatal(err)
		}
	}
	// Each worker increments a counter hidden in the schedule length;
	// with atomic RMW the total is exact.
	const workers, rounds = 8, 25
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				id := flexoffer.ID(r%n + 1)
				bump := func(rec *OfferRecord) {
					rec.Schedule = &flexoffer.Schedule{OfferID: id, Energy: append(sliceOf(rec), 1)}
				}
				if w%2 == 0 {
					if _, err := s.UpdateOffer(id, bump); err != nil && !errors.Is(err, ErrUnknownOffer) {
						t.Error(err)
						return
					}
					continue
				}
				if _, err := s.UpdateOffers([]OfferUpdate{{ID: id, Mutate: bump}}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	total := 0
	for id := flexoffer.ID(1); id <= n; id++ {
		rec, ok := s.GetOffer(id)
		if !ok {
			t.Fatalf("offer %d lost", id)
		}
		if rec.Schedule != nil {
			total += len(rec.Schedule.Energy)
		}
	}
	if want := workers * rounds; total != want {
		t.Errorf("lost updates: counted %d bumps, want %d", total, want)
	}
}

func sliceOf(rec *OfferRecord) []float64 {
	if rec.Schedule == nil {
		return nil
	}
	return rec.Schedule.Energy
}
