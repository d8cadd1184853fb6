package ingest

import (
	"context"
	"os"
	"path/filepath"
	"testing"
	"time"

	"mirabel/internal/flexoffer"
	"mirabel/internal/store"
)

func journalBytes(t *testing.T, path string) int64 {
	t.Helper()
	var total int64
	for _, p := range []string{path, oldJournalPath(path)} {
		if fi, err := os.Stat(p); err == nil {
			total += fi.Size()
		}
	}
	return total
}

// TestCompactionBoundsJournal is the bounded-backlog regression test: a
// producer streams events through a journaled queue with mid-run
// compaction on, every submission is acked (PolicyBlock, nothing shed),
// and the on-disk journal footprint stays bounded instead of growing
// with the event count until the next drain.
func TestCompactionBoundsJournal(t *testing.T) {
	s := testStore(t)
	path := filepath.Join(t.TempDir(), "ingest.log")
	const bound = 16 << 10
	q, err := Open(Config{
		Store: s, Path: path, Policy: PolicyBlock,
		CompactBytes: bound, CompactInterval: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()

	ctx := context.Background()
	const n = 4000
	var maxSeen int64
	for i := 0; i < n; i++ {
		if err := q.SubmitMeasurements(ctx, []store.Measurement{meas("p1", int64(i), 1)}); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		if i%64 == 0 {
			if sz := journalBytes(t, path); sz > maxSeen {
				maxSeen = sz
			}
			// Steady load, not one infinite burst: give the ticker-driven
			// compactor its chance to run between windows, as it would
			// have under any real event-time pacing.
			time.Sleep(time.Millisecond)
		}
	}
	if err := q.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	st := q.Stats()
	if st.Compactions == 0 {
		t.Fatalf("no compactions ran (max journal footprint %d bytes)", maxSeen)
	}
	// An unbounded journal would hold all n events (~150B each). With
	// compaction the footprint tops out near the bound: one live
	// journal growing back plus a sealed segment awaiting retirement,
	// with slack for the retirement lag.
	if limit := int64(6 * bound); maxSeen > limit {
		t.Errorf("journal footprint peaked at %d bytes, want <= %d (compactions=%d)", maxSeen, limit, st.Compactions)
	}
	// Nothing lost across rotations: every acked measurement landed.
	if got := len(s.Measurements(store.MeasurementFilter{Actor: "p1"})); got != n {
		t.Errorf("measurements in store = %d, want %d", got, n)
	}
	if _, err := os.Stat(oldJournalPath(path)); !os.IsNotExist(err) {
		t.Errorf("sealed segment not cleaned up after drain: %v", err)
	}
}

// writeJournal writes a journal file holding events, standing in for a
// crashed predecessor's acked appends.
func writeJournal(t *testing.T, path string, events []event) {
	t.Helper()
	raw := []byte(JournalMagic)
	for _, ev := range events {
		raw = appendEvent(raw, ev)
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestRecoveryAcrossSealedSegment: a crash between rotation and
// retirement leaves the journal split across <path>.old and <path>.
// Open must recover events from both segments in order, and the
// compactor must retire the sealed segment once the backlog clears —
// even with size-triggered compaction off.
func TestRecoveryAcrossSealedSegment(t *testing.T) {
	s := testStore(t)
	path := filepath.Join(t.TempDir(), "ingest.log")
	var old, cur []event
	for i := 1; i <= 5; i++ {
		rec := offerRec(uint64(i), "p1", store.OfferReceived)
		old = append(old, event{offer: &rec})
	}
	for i := 6; i <= 8; i++ {
		rec := offerRec(uint64(i), "p1", store.OfferReceived)
		cur = append(cur, event{offer: &rec})
	}
	writeJournal(t, oldJournalPath(path), old)
	writeJournal(t, path, cur)

	q, err := Open(Config{Store: s, Path: path})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	if got := q.Stats().Recovered; got != 8 {
		t.Fatalf("recovered = %d, want 8", got)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := q.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 8; i++ {
		if _, ok := s.GetOffer(flexoffer.ID(i)); !ok {
			t.Errorf("offer %d not recovered", i)
		}
	}
	if _, err := os.Stat(oldJournalPath(path)); !os.IsNotExist(err) {
		t.Errorf("sealed segment survives recovery drain: %v", err)
	}
}

// TestCompactorRetiresRecoveredSegment: without any drain, the
// background compactor alone must notice a recovered sealed segment and
// delete it once its events are applied and synced.
func TestCompactorRetiresRecoveredSegment(t *testing.T) {
	s := testStore(t)
	path := filepath.Join(t.TempDir(), "ingest.log")
	rec := offerRec(1, "p1", store.OfferReceived)
	writeJournal(t, oldJournalPath(path), []event{{offer: &rec}})

	q, err := Open(Config{Store: s, Path: path, CompactInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, err := os.Stat(oldJournalPath(path)); os.IsNotExist(err) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("sealed segment never retired (stats %+v)", q.Stats())
		}
		time.Sleep(2 * time.Millisecond)
	}
	if _, ok := s.GetOffer(flexoffer.ID(1)); !ok {
		t.Error("recovered offer missing from store")
	}
	if q.Stats().Compactions != 1 {
		t.Errorf("compactions = %d, want 1", q.Stats().Compactions)
	}
}
