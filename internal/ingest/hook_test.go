package ingest

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"mirabel/internal/store"
)

// TestOnMeasurementsHookSeesLiveBatches: the hook fires for every
// measurement flowing through the consumer apply path, including
// coalesced batches.
func TestOnMeasurementsHookSeesLiveBatches(t *testing.T) {
	s := testStore(t)
	var seen atomic.Int64
	q, err := Open(Config{
		Store: s, Queue: 32, Policy: PolicyBlock, Consumers: 2, MaxBatch: 16,
		OnMeasurements: func(ms []store.Measurement) { seen.Add(int64(len(ms))) },
	})
	if err != nil {
		t.Fatalf("open queue: %v", err)
	}
	ctx := context.Background()
	const n = 40
	for i := 0; i < n; i++ {
		if err := q.SubmitMeasurements(ctx, []store.Measurement{meas("p1", int64(i), 1)}); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	if err := q.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if got := seen.Load(); got != n {
		t.Fatalf("hook saw %d measurements, want %d", got, n)
	}
	if err := q.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}

// TestOnMeasurementsHookSeesRecoveryReplay: after a crash, journal
// recovery replays acked measurements through the same hook — so a
// forecast registry rebuilt at restart observes them.
func TestOnMeasurementsHookSeesRecoveryReplay(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ingest.log")
	s1 := testStore(t)
	q1, err := Open(Config{Store: s1, Path: path, Sync: store.SyncAlways, Queue: 64, Policy: PolicyBlock, Consumers: 1})
	if err != nil {
		t.Fatalf("open q1: %v", err)
	}
	ctx := context.Background()
	const n = 12
	for i := 0; i < n; i++ {
		if err := q1.SubmitMeasurements(ctx, []store.Measurement{meas("p1", int64(i), 1)}); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	q1.Kill() // crash: no drain, no compaction

	var seen atomic.Int64
	s2 := testStore(t)
	q2, err := Open(Config{
		Store: s2, Path: path, Sync: store.SyncAlways, Queue: 64, Policy: PolicyBlock, Consumers: 1,
		OnMeasurements: func(ms []store.Measurement) { seen.Add(int64(len(ms))) },
	})
	if err != nil {
		t.Fatalf("reopen queue: %v", err)
	}
	if err := q2.Drain(ctx); err != nil {
		t.Fatalf("drain after recovery: %v", err)
	}
	if got := seen.Load(); got != n {
		t.Fatalf("hook saw %d measurements after recovery, want %d", got, n)
	}
	if err := q2.Close(); err != nil {
		t.Fatalf("close q2: %v", err)
	}
}

// TestOpenAppliesJournalOnce: recovery is one synchronous pass inside
// Open. By the time Open returns, every decodable frame of a killed
// queue's journal has gone through the apply funnel exactly once — the
// hook has seen as many batches as Stats().Recovered counts, with no
// Drain to wait for a second reader. A frame nobody can decode (here
// tag 0x81, which an older node's defer policy wrote for an event it
// parked on disk) is not garbage: it is counted, the next Drain reports
// it, and the journal stays as it is.
func TestOpenAppliesJournalOnce(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ingest.log")
	q1, err := Open(Config{Store: testStore(t), Path: path, Queue: 64, Consumers: 1})
	if err != nil {
		t.Fatalf("open q1: %v", err)
	}
	ctx := context.Background()
	const n = 300 // more than one MaxBatch round
	for i := 0; i < n; i++ {
		if err := q1.SubmitMeasurements(ctx, []store.Measurement{meas("p1", int64(i), 1)}); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	q1.Kill()
	reopen := func(s *store.Store, calls *atomic.Int64) *Queue {
		q, err := Open(Config{
			Store: s, Path: path, Queue: 64, Consumers: 1,
			OnMeasurements: func([]store.Measurement) { calls.Add(1) },
		})
		if err != nil {
			t.Fatalf("reopen queue: %v", err)
		}
		return q
	}

	var calls atomic.Int64
	s2 := testStore(t)
	q2 := reopen(s2, &calls)
	if st := q2.Stats(); st.Recovered != n || calls.Load() != n || st.Depth != 0 || st.ApplyErrors != 0 {
		t.Fatalf("after Open: recovered=%d hook calls=%d depth=%d apply errors=%d, want %d/%d/0/0", st.Recovered, calls.Load(), st.Depth, st.ApplyErrors, n, n)
	}
	if got := len(s2.Measurements(store.MeasurementFilter{Actor: "p1"})); got != n {
		t.Fatalf("store holds %d facts after Open, want %d", got, n)
	}
	q2.Kill() // no Drain: the journal still holds all n frames

	dst, mark := store.BeginFrame(nil, 0x81)
	foreign := store.EndFrame(append(dst, "parked"...), mark)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(foreign); err != nil {
		t.Fatal(err)
	}
	f.Close()
	image, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	calls.Store(0)
	q3 := reopen(testStore(t), &calls)
	defer q3.Kill()
	if st := q3.Stats(); st.Recovered != n || calls.Load() != n || st.ApplyErrors != 1 {
		t.Fatalf("with a foreign frame: recovered=%d hook calls=%d apply errors=%d, want %d/%d/1", st.Recovered, calls.Load(), st.ApplyErrors, n, n)
	}
	if err := q3.Drain(ctx); err == nil || !strings.Contains(err.Error(), "unknown journal tag 0x81") {
		t.Fatalf("drain = %v, want the unknown-tag error", err)
	}
	if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, image) {
		t.Errorf("journal changed under a failed drain (err %v)", err)
	}
}
