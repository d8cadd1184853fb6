package ingest

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
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

// newIdleQueue builds a queue with no consumer goroutines, so tests can
// fill the bounded channel deterministically. startConsumers attaches
// the drain side when the test is ready.
func newIdleQueue(t *testing.T, cfg Config) *Queue {
	t.Helper()
	q := &Queue{
		cfg:   cfg,
		ch:    make(chan event, cfg.Queue),
		stop:  make(chan struct{}),
		epoch: new(atomic.Int64),
	}
	if cfg.Path != "" {
		if err := q.openJournal(); err != nil {
			t.Fatalf("open journal: %v", err)
		}
	}
	return q
}

func startConsumers(q *Queue, n int) {
	q.done.Add(n)
	for i := 0; i < n; i++ {
		go q.consume()
	}
}

func TestBlockPolicyHonorsContext(t *testing.T) {
	s := testStore(t)
	q := newIdleQueue(t, Config{Store: s, Queue: 1, Policy: PolicyBlock, MaxBatch: 8, Consumers: 1})
	ctx := context.Background()
	if err := q.SubmitOffer(ctx, offerRec(1, "p1", store.OfferReceived)); err != nil {
		t.Fatalf("first submit: %v", err)
	}
	// Queue full, no consumers: the second submit must block until its
	// context expires.
	tctx, cancel := context.WithTimeout(ctx, 20*time.Millisecond)
	defer cancel()
	err := q.SubmitOffer(tctx, offerRec(2, "p1", store.OfferReceived))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("blocked submit err = %v, want DeadlineExceeded", err)
	}
	startConsumers(q, 1)
	if err := q.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if _, ok := s.GetOffer(1); !ok {
		t.Fatal("offer 1 not applied after close")
	}
}

func TestShedPolicyReturnsOverloaded(t *testing.T) {
	s := testStore(t)
	q := newIdleQueue(t, Config{Store: s, Queue: 1, Policy: PolicyShed, MaxBatch: 8, Consumers: 1})
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
	startConsumers(q, 1)
	if err := q.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if got := len(s.Measurements(store.MeasurementFilter{Actor: "p1"})); got != 1 {
		t.Fatalf("measurements = %d, want 1 (second was shed)", got)
	}
}

func TestCoalescing(t *testing.T) {
	s := testStore(t)
	q := newIdleQueue(t, Config{Store: s, Queue: 16, Policy: PolicyBlock, MaxBatch: 16, Consumers: 1})
	ctx := context.Background()
	for i := 0; i < 10; i++ {
		if err := q.SubmitMeasurements(ctx, []store.Measurement{meas("p1", int64(i), 1)}); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	startConsumers(q, 1)
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

// TestGuardedOfferApplyNeverDowngrades: a stale duplicate never rolls a
// stored offer back, and a rejected one — the record a node journals
// for a refused second submission of a pending offer's id — never
// replaces the original, whether the original is in the store already
// or arrives in the same batch ahead of it (journal replay).
func TestGuardedOfferApplyNeverDowngrades(t *testing.T) {
	s := testStore(t)
	scheduled := offerRec(7, "p1", store.OfferScheduled)
	if err := s.PutOffer(scheduled); err != nil {
		t.Fatalf("seed offer: %v", err)
	}
	accepted := offerRec(8, "p1", store.OfferAccepted)
	if err := s.PutOffer(accepted); err != nil {
		t.Fatalf("seed offer: %v", err)
	}
	q, err := Open(Config{Store: s, Queue: 8, Policy: PolicyBlock})
	if err != nil {
		t.Fatalf("open queue: %v", err)
	}
	// A stale "received" duplicate (journal replay, retransmit) must not
	// roll the offer's state back.
	if err := q.SubmitOffer(context.Background(), offerRec(7, "p1", store.OfferReceived)); err != nil {
		t.Fatalf("submit: %v", err)
	}
	if err := q.SubmitOffer(context.Background(), offerRec(8, "p2", store.OfferRejected)); err != nil {
		t.Fatalf("submit: %v", err)
	}
	if err := q.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	rec, ok := s.GetOffer(7)
	if !ok || rec.State != store.OfferScheduled {
		t.Fatalf("offer state = %v (ok=%v), want scheduled preserved", rec.State, ok)
	}
	if rec, _ := s.GetOffer(8); rec.State != store.OfferAccepted || rec.Owner != "p1" {
		t.Fatalf("offer 8 = %s of %s after a refused duplicate, want accepted of p1", rec.State, rec.Owner)
	}

	// The same pair in one journal, replayed as one batch into a store
	// that holds neither.
	path := filepath.Join(t.TempDir(), "ingest.log")
	q = newIdleQueue(t, Config{Store: testStore(t), Path: path, Queue: 8, MaxBatch: 8})
	for _, ev := range []store.OfferRecord{offerRec(9, "p1", store.OfferAccepted), offerRec(9, "p2", store.OfferRejected)} {
		if err := q.SubmitOffer(context.Background(), ev); err != nil {
			t.Fatalf("submit: %v", err)
		}
	}
	q.Kill()
	s2 := testStore(t)
	q2, err := Open(Config{Store: s2, Path: path})
	if err != nil {
		t.Fatalf("reopen queue: %v", err)
	}
	defer q2.Close()
	if rec, _ := s2.GetOffer(9); rec.State != store.OfferAccepted || rec.Owner != "p1" {
		t.Fatalf("replayed offer 9 = %s of %s, want accepted of p1", rec.State, rec.Owner)
	}
}

// TestJournalReplayWritesNothing: reopening a journal whose events all
// reached the store before the crash re-applies every event and logs
// nothing to the store's WAL.
func TestJournalReplayWritesNothing(t *testing.T) {
	s := testStore(t)
	path := filepath.Join(t.TempDir(), "ingest.log")
	q, err := Open(Config{Store: s, Path: path})
	if err != nil {
		t.Fatal(err)
	}
	const n = 50
	for i := 1; i <= n; i++ {
		if err := q.SubmitOffer(context.Background(), offerRec(uint64(i), "p1", store.OfferAccepted)); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for st := q.Stats(); st.Consumed != st.Enqueued; st = q.Stats() {
		if time.Now().After(deadline) {
			t.Fatalf("consumers applied %d of %d events", st.Consumed, st.Enqueued)
		}
		time.Sleep(time.Millisecond)
	}
	q.Kill() // no drain: the journal still holds every event
	before := s.WALStats().Records

	q2, err := Open(Config{Store: s, Path: path})
	if err != nil {
		t.Fatal(err)
	}
	defer q2.Close()
	if got := q2.Stats().Recovered; got != n {
		t.Fatalf("recovered %d events, want %d", got, n)
	}
	if got := s.WALStats().Records; got != before {
		t.Errorf("journal replay logged %d store records, want none", got-before)
	}
}

func TestConcurrentProducersDrainClean(t *testing.T) {
	s := testStore(t)
	path := filepath.Join(t.TempDir(), "ingest.log")
	q, err := Open(Config{Store: s, Path: path, Queue: 64, Policy: PolicyBlock, Consumers: 3, MaxBatch: 32})
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
// kill must be present in the store after restart — even when the
// store's own copy is gone, because the ingest journal retains events
// until a drain proves them applied AND synced.
func TestCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ingest.log")
	s1 := testStore(t)
	q1, err := Open(Config{Store: s1, Path: path, Sync: store.SyncAlways, Queue: 128, Policy: PolicyBlock, Consumers: 2})
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
	// Crash: no drain, no compaction. Whatever consumers managed to
	// apply is irrelevant — the journal is the source of truth.
	q1.Kill()
	if err := q1.SubmitOffer(ctx, offerRec(99, "p1", store.OfferReceived)); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after kill = %v, want ErrClosed", err)
	}

	// Simulate a torn tail from the crash: a partial frame must not
	// poison recovery (TestTornTailRecovery walks every cut point).
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatalf("append torn tail: %v", err)
	}
	if _, err := f.Write(appendEvent(nil, event{meas: []store.Measurement{meas("p1", 99, 1)}})[:11]); err != nil {
		t.Fatalf("write torn tail: %v", err)
	}
	f.Close()

	// Restart against a BRAND NEW empty store: recovery must rebuild
	// every acked event from the journal alone.
	s2 := testStore(t)
	q2, err := Open(Config{Store: s2, Path: path, Sync: store.SyncAlways, Queue: 128, Policy: PolicyBlock, Consumers: 2})
	if err != nil {
		t.Fatalf("reopen queue: %v", err)
	}
	if got := q2.Stats().Recovered; got != offers+batches {
		t.Fatalf("Recovered = %d, want %d", got, offers+batches)
	}
	if err := q2.Drain(ctx); err != nil {
		t.Fatalf("drain after recovery: %v", err)
	}
	for i := 1; i <= offers; i++ {
		if _, ok := s2.GetOffer(flexoffer.ID(i)); !ok {
			t.Fatalf("acked offer %d lost across crash", i)
		}
	}
	if got := len(s2.Measurements(store.MeasurementFilter{Actor: "p1"})); got != batches {
		t.Fatalf("measurements after recovery = %d, want %d", got, batches)
	}
	// The drain proved everything applied: journal is compact again.
	if fi, err := os.Stat(path); err != nil || fi.Size() != 0 {
		t.Fatalf("journal after recovery drain: size=%v err=%v, want 0", fi, err)
	}
	if err := q2.Close(); err != nil {
		t.Fatalf("close q2: %v", err)
	}
}

// TestCleanBarrierIsFree: a Drain with nothing journaled since the last
// one has nothing to make durable and nothing to truncate, so it costs
// no fsync — the planner takes the barrier before every settlement run
// and every cancellation. One journaled event makes it pay again, and
// every fsync it pays is counted: one on the store's WAL, one on the
// journal it truncates.
func TestCleanBarrierIsFree(t *testing.T) {
	s := testStore(t)
	path := filepath.Join(t.TempDir(), "ingest.log")
	q, err := Open(Config{Store: s, Path: path, Sync: store.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	ctx := context.Background()
	syncs := func() (journal, wal uint64) { return q.Stats().Journal.Syncs, s.WALStats().Syncs }
	submitAndDrain := func(id uint64) {
		t.Helper()
		if err := q.SubmitOffer(ctx, offerRec(id, "p1", store.OfferReceived)); err != nil {
			t.Fatal(err)
		}
		j0, w0 := syncs()
		if err := q.Drain(ctx); err != nil {
			t.Fatal(err)
		}
		j1, w1 := syncs()
		if w1 == w0 {
			t.Fatalf("drain after submitting offer %d did not fsync the store", id)
		}
		if j1 != j0+1 {
			t.Fatalf("truncating drain of offer %d counted %d journal fsyncs, want 1 (the truncate's)", id, j1-j0)
		}
		if fi, err := os.Stat(path); err != nil || fi.Size() != 0 {
			t.Fatalf("journal after drain: %v/%v, want empty", fi, err)
		}
	}
	submitAndDrain(1)
	j0, w0 := syncs()
	for i := 0; i < 3; i++ {
		if err := q.Drain(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if j1, w1 := syncs(); j1 != j0 || w1 != w0 {
		t.Fatalf("clean barriers fsynced: journal %d→%d, wal %d→%d", j0, j1, w0, w1)
	}
	submitAndDrain(2)
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
