package core

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"mirabel/internal/agg"
	"mirabel/internal/flexoffer"
	"mirabel/internal/sched"
	"mirabel/internal/store"
)

// newLocalBRP builds a transportless BRP: commit runs fully, delivery is
// a no-op (no client), which is exactly what the engine tests need.
func newLocalBRP(t *testing.T) *Node {
	t.Helper()
	return mustNode(t, nil, Config{
		Name:      "brp1",
		Role:      store.RoleBRP,
		AggParams: agg.ParamsP3,
		SchedOpts: sched.Options{MaxIterations: 3, Seed: 1},
	})
}

// Intake only accumulates: accepted offers sit in the pipeline's pending
// batch until the next cycle (or an explicit Aggregates read) processes
// them in one go.
func TestAccumulateThenCycleProcessesIntake(t *testing.T) {
	brp := newLocalBRP(t)
	for i := 1; i <= 8; i++ {
		if d := brp.AcceptOffer(testOffer(flexoffer.ID(i), 40, 16, 4, 5), "p1"); !d.Accept {
			t.Fatalf("offer %d rejected: %s", i, d.Reason)
		}
	}
	brp.mu.Lock()
	pendingBatch := brp.pipeline.NumPending()
	applied := brp.pipeline.GroupBuilder.NumOffers()
	brp.mu.Unlock()
	if pendingBatch != 8 {
		t.Errorf("pipeline pending = %d, want 8 (intake must not process)", pendingBatch)
	}
	if applied != 0 {
		t.Errorf("grouped offers before cycle = %d, want 0", applied)
	}

	rep, err := brp.RunSchedulingCycle(context.Background(), 0, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Offers != 8 {
		t.Errorf("report offers = %d, want 8", rep.Offers)
	}
	brp.mu.Lock()
	pendingBatch = brp.pipeline.NumPending()
	brp.mu.Unlock()
	if pendingBatch != 0 {
		t.Errorf("pipeline pending after cycle = %d, want 0", pendingBatch)
	}
}

// A failed intake (duplicate id) cancels cleanly with accumulate-only
// semantics: the reject reason surfaces and no pending update leaks.
func TestAccumulateDuplicateRejected(t *testing.T) {
	brp := newLocalBRP(t)
	if d := brp.AcceptOffer(testOffer(1, 40, 16, 4, 5), "p1"); !d.Accept {
		t.Fatalf("rejected: %s", d.Reason)
	}
	if d := brp.AcceptOffer(testOffer(1, 40, 16, 4, 5), "p1"); d.Accept {
		t.Fatal("duplicate id accepted")
	}
	brp.mu.Lock()
	defer brp.mu.Unlock()
	if n := brp.pipeline.NumPending(); n != 1 {
		t.Errorf("pipeline pending = %d, want 1 (only the first insert)", n)
	}
}

// Satellite: duplicate micro schedules in one commit batch must be
// reconciled, not fed into the pipeline as a delete of a nil offer.
func TestCommitDuplicateMicroScheduleReconciled(t *testing.T) {
	brp := newLocalBRP(t)
	f := testOffer(1, 40, 16, 4, 5)
	if d := brp.AcceptOffer(f, "p1"); !d.Accept {
		t.Fatalf("rejected: %s", d.Reason)
	}
	// Materialize the aggregate so the pipeline delete at commit finds it.
	if got := len(brp.Aggregates()); got != 1 {
		t.Fatalf("aggregates = %d, want 1", got)
	}
	// Commit runs behind the planner's intake barrier.
	drain(t, brp)
	s := &flexoffer.Schedule{OfferID: 1, Start: 40, Energy: []float64{0, 0, 0, 0}}
	byOwner, reconciled, err := brp.commitMicroSchedules([]*flexoffer.Schedule{s, s})
	if err != nil {
		t.Fatalf("commit with duplicate schedule: %v", err)
	}
	if reconciled != 1 {
		t.Errorf("reconciled = %d, want 1 (the duplicate)", reconciled)
	}
	if got := len(byOwner["p1"]); got != 1 {
		t.Errorf("schedules for p1 = %d, want 1", got)
	}
	if brp.PendingOffers() != 0 {
		t.Errorf("pending = %d, want 0", brp.PendingOffers())
	}
	if rec, ok := brp.Store().GetOffer(1); !ok || rec.State != store.OfferScheduled {
		t.Errorf("record = %+v, %v", rec, ok)
	}
}

// Unchanged aggregates are snapshotted once: the second planning pass
// reuses the cached copy, and a mutation (new member) invalidates it.
func TestSnapshotReuseAcrossCycles(t *testing.T) {
	brp := newLocalBRP(t)
	for i := 1; i <= 4; i++ {
		if d := brp.AcceptOffer(testOffer(flexoffer.ID(i), 40, 16, 4, 5), "p1"); !d.Accept {
			t.Fatalf("rejected: %s", d.Reason)
		}
	}
	rep1 := &CycleReport{}
	snaps1, err := brp.snapshotForPlanning(0, flexoffer.SlotsPerDay, rep1)
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps1) == 0 {
		t.Fatal("no snapshots")
	}
	if rep1.SnapshotsReused != 0 {
		t.Errorf("first pass reused %d snapshots, want 0", rep1.SnapshotsReused)
	}

	// Nothing changed: every snapshot is reused, pointer-identical.
	rep2 := &CycleReport{}
	snaps2, err := brp.snapshotForPlanning(0, flexoffer.SlotsPerDay, rep2)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.SnapshotsReused != len(snaps1) {
		t.Errorf("second pass reused %d, want %d", rep2.SnapshotsReused, len(snaps1))
	}
	for i := range snaps1 {
		if snaps1[i] != snaps2[i] {
			t.Errorf("snapshot %d not reused (new copy)", i)
		}
	}

	// A new member bumps the aggregate's version: fresh snapshot.
	if d := brp.AcceptOffer(testOffer(99, 40, 16, 4, 5), "p1"); !d.Accept {
		t.Fatalf("rejected: %s", d.Reason)
	}
	rep3 := &CycleReport{}
	snaps3, err := brp.snapshotForPlanning(0, flexoffer.SlotsPerDay, rep3)
	if err != nil {
		t.Fatal(err)
	}
	changed := 0
	for _, s3 := range snaps3 {
		fresh := true
		for _, s1 := range snaps1 {
			if s1 == s3 {
				fresh = false
			}
		}
		if fresh {
			changed++
		}
	}
	if changed == 0 {
		t.Error("no fresh snapshot after aggregate mutation")
	}
	if rep3.SnapshotsReused != len(snaps3)-changed {
		t.Errorf("third pass reused %d, want %d", rep3.SnapshotsReused, len(snaps3)-changed)
	}
}

// Stress (run under -race in CI): concurrent intake while cycles batch,
// process and schedule. Afterwards the pending set and the pipeline's
// grouped offers must agree exactly.
func TestConcurrentAccumulateDuringCycles(t *testing.T) {
	brp := newLocalBRP(t)

	const workers = 4
	const perWorker = 60
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				id := flexoffer.ID(w*perWorker + i + 1)
				es := flexoffer.Time(40 + (int(id) % 13))
				tf := flexoffer.Time(8 + (int(id) % 9))
				if d := brp.AcceptOffer(testOffer(id, es, tf, 2+int(id)%3, 5), fmt.Sprintf("p%d", w)); !d.Accept {
					t.Errorf("offer %d rejected: %s", id, d.Reason)
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for {
		if _, err := brp.RunSchedulingCycle(context.Background(), 0, nil, nil, nil); err != nil {
			t.Errorf("cycle: %v", err)
			break
		}
		select {
		case <-done:
			goto drained
		default:
		}
	}
drained:
	wg.Wait()
	// Fold in whatever intake arrived after the last cycle.
	aggs := brp.Aggregates()
	brp.mu.Lock()
	pendingBatch := brp.pipeline.NumPending()
	grouped := brp.pipeline.GroupBuilder.NumOffers()
	pendingOffers := len(brp.pending)
	brp.mu.Unlock()
	if pendingBatch != 0 {
		t.Errorf("pipeline pending = %d, want 0 after final process", pendingBatch)
	}
	if grouped != pendingOffers {
		t.Errorf("grouped offers = %d, pending offers = %d — pipeline and node diverged", grouped, pendingOffers)
	}
	members := 0
	for _, a := range aggs {
		members += a.NumMembers()
	}
	if members != grouped {
		t.Errorf("aggregate members = %d, grouped offers = %d", members, grouped)
	}
}
