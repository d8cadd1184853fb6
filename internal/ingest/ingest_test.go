package ingest

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sync"
	"testing"
	"time"

	"mirabel/internal/flexoffer"
	"mirabel/internal/store"
)

func testStore(t *testing.T) *store.Store {
	t.Helper()
	s, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func offerRec(id uint64, owner string, state store.OfferState) store.OfferRecord {
	return store.OfferRecord{
		Offer: &flexoffer.FlexOffer{
			ID:            flexoffer.ID(id),
			Prosumer:      owner,
			EarliestStart: 10,
			LatestStart:   14,
			AssignBefore:  8,
			Profile:       []flexoffer.Slice{{EnergyMin: 1, EnergyMax: 3}},
		},
		Owner: owner,
		State: state,
	}
}

func meas(actor string, slot int64, kwh float64) store.Measurement {
	return store.Measurement{Actor: actor, EnergyType: "elec", Slot: flexoffer.Time(slot), KWh: kwh}
}

// newIdleQueue builds a queue with no applier goroutine, so tests can
// fill the bounded channel deterministically. startApplier attaches the
// apply side when the test is ready.
func newIdleQueue(cfg Config) *Queue {
	q := &Queue{
		cfg:  cfg,
		ch:   make(chan store.Intake, cfg.Queue),
		stop: make(chan struct{}),
	}
	cfg.Store.SetIntakeHandoff(q.stage)
	return q
}

func startApplier(q *Queue) {
	q.done.Add(1)
	go q.apply()
}

func TestBlockPolicyHonorsContext(t *testing.T) {
	s := testStore(t)
	q := newIdleQueue(Config{Store: s, Queue: 1, Policy: PolicyBlock, MaxBatch: 8})
	ctx := context.Background()
	if err := q.SubmitOffer(ctx, offerRec(1, "p1", store.OfferReceived)); err != nil {
		t.Fatalf("first submit: %v", err)
	}
	// Queue full, no applier: the second submit must block until its
	// context expires.
	tctx, cancel := context.WithTimeout(ctx, 20*time.Millisecond)
	defer cancel()
	err := q.SubmitOffer(tctx, offerRec(2, "p1", store.OfferReceived))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("blocked submit err = %v, want DeadlineExceeded", err)
	}
	startApplier(q)
	if err := q.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if _, ok := s.GetOffer(1); !ok {
		t.Fatal("offer 1 not applied after close")
	}
}

func TestShedPolicyReturnsOverloaded(t *testing.T) {
	s := testStore(t)
	q := newIdleQueue(Config{Store: s, Queue: 1, Policy: PolicyShed, MaxBatch: 8})
	ctx := context.Background()
	if err := q.SubmitMeasurements(ctx, []store.Measurement{meas("p1", 1, 2)}); err != nil {
		t.Fatalf("first submit: %v", err)
	}
	err := q.SubmitMeasurements(ctx, []store.Measurement{meas("p1", 2, 2)})
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("overflow submit err = %v, want ErrOverloaded", err)
	}
	if got := q.Stats().Shed; got != 1 {
		t.Fatalf("Shed = %d, want 1", got)
	}
	startApplier(q)
	if err := q.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if got := len(s.Measurements(store.MeasurementFilter{Actor: "p1"})); got != 1 {
		t.Fatalf("measurements = %d, want 1 (second was shed)", got)
	}
}

func TestCoalescing(t *testing.T) {
	s := testStore(t)
	q := newIdleQueue(Config{Store: s, Queue: 16, Policy: PolicyBlock, MaxBatch: 16})
	ctx := context.Background()
	for i := 0; i < 10; i++ {
		if err := q.SubmitMeasurements(ctx, []store.Measurement{meas("p1", int64(i), 1)}); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	startApplier(q)
	if err := q.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	st := q.Stats()
	if st.MaxBatchSeen != 10 {
		t.Fatalf("MaxBatchSeen = %d, want 10 (one coalesced apply)", st.MaxBatchSeen)
	}
	if st.Consumed != 10 {
		t.Fatalf("Consumed = %d, want 10", st.Consumed)
	}
	if err := q.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}

func TestConcurrentProducersDrainClean(t *testing.T) {
	s := testStore(t)
	q, err := Open(Config{Store: s, Queue: 64, Policy: PolicyBlock, MaxBatch: 32})
	if err != nil {
		t.Fatalf("open queue: %v", err)
	}
	const producers, per = 8, 50
	var wg sync.WaitGroup
	ctx := context.Background()
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			actor := fmt.Sprintf("p%d", p)
			for i := 0; i < per; i++ {
				if err := q.SubmitMeasurements(ctx, []store.Measurement{meas(actor, int64(i), 1)}); err != nil {
					t.Errorf("submit %s/%d: %v", actor, i, err)
					return
				}
			}
		}(p)
	}
	wg.Wait()
	if err := q.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if got := len(s.Measurements(store.MeasurementFilter{})); got != producers*per {
		t.Fatalf("measurements after drain = %d, want %d", got, producers*per)
	}
	st := q.Stats()
	if st.Enqueued != producers*per || st.Consumed != producers*per {
		t.Fatalf("enqueued/consumed = %d/%d, want %d", st.Enqueued, st.Consumed, producers*per)
	}
	if st.Depth != 0 {
		t.Fatalf("depth after drain = %d, want 0", st.Depth)
	}
	if err := q.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}

// TestCrashRecovery is the acceptance test: every event acked before a
// kill is in the store after a reopen of its directory, whatever the
// applier had reached — the ack is the event's WAL append — and a torn
// frame the crash left behind does not poison recovery.
func TestCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	s1, err := store.Open(dir, store.WithSyncPolicy(store.SyncAlways))
	if err != nil {
		t.Fatal(err)
	}
	q1, err := Open(Config{Store: s1, Queue: 128, Policy: PolicyBlock})
	if err != nil {
		t.Fatalf("open q1: %v", err)
	}
	ctx := context.Background()
	const offers, batches = 40, 20
	for i := 1; i <= offers; i++ {
		if err := q1.SubmitOffer(ctx, offerRec(uint64(i), "p1", store.OfferReceived)); err != nil {
			t.Fatalf("submit offer %d: %v", i, err)
		}
	}
	for i := 0; i < batches; i++ {
		if err := q1.SubmitMeasurements(ctx, []store.Measurement{meas("p1", int64(i), 1.5)}); err != nil {
			t.Fatalf("submit meas %d: %v", i, err)
		}
	}
	// Crash: no drain, and the store is never closed. Whatever the
	// applier managed to apply is irrelevant — the WAL is the source of
	// truth.
	q1.Kill()
	if err := q1.SubmitOffer(ctx, offerRec(99, "p1", store.OfferReceived)); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after kill = %v, want ErrClosed", err)
	}

	// A torn tail from the crash (TestTornTailRecovery walks every cut
	// point).
	torn, _ := store.AppendIntakeFrames(nil, &store.Intake{Meas: []store.Measurement{meas("p1", 99, 1)}})
	f, err := os.OpenFile(store.WALPath(dir), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(torn[:11]); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2, err := store.Open(dir)
	if err != nil {
		t.Fatalf("reopen store: %v", err)
	}
	defer s2.Close()
	for i := 1; i <= offers; i++ {
		if _, ok := s2.GetOffer(flexoffer.ID(i)); !ok {
			t.Fatalf("acked offer %d lost across crash", i)
		}
	}
	if got := len(s2.Measurements(store.MeasurementFilter{Actor: "p1"})); got != batches {
		t.Fatalf("measurements after recovery = %d, want %d", got, batches)
	}
}

// TestCleanBarrierIsFree: a Drain writes nothing — no fsync, no record,
// no file — whether or not events were acked since the last one: every
// event it waits for was in the WAL before its ack, under the store's
// own fsync policy. The planner takes the barrier before every cycle,
// settlement run and cancellation.
func TestCleanBarrierIsFree(t *testing.T) {
	dir := t.TempDir()
	s, err := store.Open(dir, store.WithSyncPolicy(store.SyncAlways))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	q, err := Open(Config{Store: s})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	ctx := context.Background()
	drain := func(what string) {
		t.Helper()
		before := s.WALStats()
		if err := q.Drain(ctx); err != nil {
			t.Fatal(err)
		}
		if after := s.WALStats(); after != before {
			t.Fatalf("drain %s wrote to the WAL: %+v → %+v", what, before, after)
		}
	}
	for id := uint64(1); id <= 3; id++ {
		before := s.WALStats()
		if err := q.SubmitOffer(ctx, offerRec(id, "p1", store.OfferReceived)); err != nil {
			t.Fatal(err)
		}
		if after := s.WALStats(); after.Records != before.Records+1 || after.Syncs != before.Syncs+1 {
			t.Fatalf("acking offer %d: WAL %+v → %+v, want one record and its fsync", id, before, after)
		}
		drain(fmt.Sprintf("after offer %d", id))
		drain("with nothing acked")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "wal.log" {
		t.Errorf("the store directory holds %v, want wal.log alone", entries)
	}
}

func TestParsePolicy(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Policy
	}{{"block", PolicyBlock}, {"shed", PolicyShed}} {
		got, err := ParsePolicy(tc.in)
		if err != nil || got != tc.want {
			t.Fatalf("ParsePolicy(%q) = %v, %v", tc.in, got, err)
		}
		if got.String() != tc.in {
			t.Fatalf("String() roundtrip = %q, want %q", got.String(), tc.in)
		}
	}
	if _, err := ParsePolicy("bogus"); err == nil {
		t.Fatal("ParsePolicy accepted bogus")
	}
}
