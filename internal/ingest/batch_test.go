package ingest

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"mirabel/internal/flexoffer"
	"mirabel/internal/store"
)

// TestFailedWALAppendIsNotApplied: a submission whose WAL append fails
// is refused, and nothing of it reaches the store — the producer was
// told no, so the store must not hold the offer as accepted.
func TestFailedWALAppendIsNotApplied(t *testing.T) {
	s := testStore(t)
	q, err := Open(Config{Store: s})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Kill()
	if err := s.Close(); err != nil { // the WAL fails under the queue
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := q.SubmitOffer(ctx, offerRec(7, "p1", store.OfferAccepted)); err == nil {
		t.Fatal("submit over a closed WAL was acked")
	}
	if err := q.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if rec, ok := s.GetOffer(7); ok {
		t.Fatalf("refused offer 7 is in the store as %s", rec.State)
	}
	if st := q.Stats(); st.Enqueued != 0 || st.Consumed != 0 || st.Depth != 0 {
		t.Fatalf("enqueued/consumed/depth = %d/%d/%d after a refused submit, want 0/0/0", st.Enqueued, st.Consumed, st.Depth)
	}
}

// TestEventAppliedWithoutBarrier: the applier applies an acked event on
// its own, with no Drain to flush it.
func TestEventAppliedWithoutBarrier(t *testing.T) {
	s := testStore(t)
	q, err := Open(Config{Store: s})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	if err := q.SubmitOffer(context.Background(), offerRec(1, "p1", store.OfferAccepted)); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(time.Second); ; time.Sleep(time.Millisecond) {
		if _, ok := s.GetOffer(1); ok {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("acked offer not applied within 1s without a barrier")
		}
	}
}

// TestSequentialSubmissionsBatch: one producer's back-to-back acks —
// each a WAL write — are applied many to a store round, not one each.
func TestSequentialSubmissionsBatch(t *testing.T) {
	s := testStore(t)
	q, err := Open(Config{Store: s})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	const n = 1000
	ctx := context.Background()
	for i := 0; i < n; i++ {
		if err := q.SubmitMeasurements(ctx, []store.Measurement{meas("p1", int64(i), 1)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := q.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	st := q.Stats()
	if st.Consumed != n {
		t.Fatalf("consumed %d events, want %d", st.Consumed, n)
	}
	if st.Batches >= n/2 {
		t.Fatalf("%d sequential submissions took %d store applies, want fewer than %d", n, st.Batches, n/2)
	}
}

// TestDrainFlushesLingeringBatch: a barrier does not wait out the
// applier's linger; it returns with every acked event applied and
// nothing staged.
func TestDrainFlushesLingeringBatch(t *testing.T) {
	s := testStore(t)
	q, err := Open(Config{Store: s})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	ctx := context.Background()
	for round := 1; round <= 20; round++ {
		for i := 0; i < round; i++ {
			id := uint64(round*100 + i)
			if err := q.SubmitOffer(ctx, offerRec(id, "p1", store.OfferAccepted)); err != nil {
				t.Fatal(err)
			}
		}
		if err := q.Drain(ctx); err != nil {
			t.Fatal(err)
		}
		if d := q.Stats().Depth; d != 0 {
			t.Fatalf("round %d: Depth %d after Drain, want 0", round, d)
		}
		for i := 0; i < round; i++ {
			if _, ok := s.GetOffer(flexoffer.ID(round*100 + i)); !ok {
				t.Fatalf("round %d: offer %d not applied by Drain", round, round*100+i)
			}
		}
	}
}

// TestCloseAppliesEveryAckedEvent: Close flushes the lingering applier
// and applies every event it acked, from any number of producers.
func TestCloseAppliesEveryAckedEvent(t *testing.T) {
	s := testStore(t)
	q, err := Open(Config{Store: s, Queue: 32, MaxBatch: 8})
	if err != nil {
		t.Fatal(err)
	}
	const producers, per = 4, 60
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := q.SubmitMeasurements(context.Background(), []store.Measurement{meas(fmt.Sprintf("p%d", p), int64(i), 1)}); err != nil {
					t.Errorf("submit p%d/%d: %v", p, i, err)
					return
				}
			}
		}(p)
	}
	wg.Wait()
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}
	if got := len(s.Measurements(store.MeasurementFilter{})); got != producers*per {
		t.Fatalf("%d measurements after Close, want %d", got, producers*per)
	}
}
