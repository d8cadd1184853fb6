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
		AggParams: agg.ParamsP3,
		SchedOpts: sched.Options{MaxIterations: 3, Seed: 1},
	})
}

// groupedOffers is the number of offers n's aggregates hold, without
// processing accumulated intake.
func groupedOffers(n *Node) int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.pipeline.CurrentMetrics().FlexOffers
}

// pipelineIdle reports whether n's pipeline holds no accumulated
// update: processing it (which it does) changes no aggregate — none
// appears, disappears or changes Version.
func pipelineIdle(n *Node) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	before := n.pipeline.Aggregates()
	versions := make([]uint64, len(before))
	for i, a := range before {
		versions[i] = a.Version
	}
	n.pipeline.Process()
	after := n.pipeline.Aggregates()
	if len(after) != len(before) {
		return false
	}
	for i, a := range after {
		if a != before[i] || a.Version != versions[i] {
			return false
		}
	}
	return true
}

// Intake only accumulates: accepted offers sit in the pipeline's pending
// batch until the next cycle (or an explicit processing) takes them in
// one go.
func TestAccumulateThenCycleProcessesIntake(t *testing.T) {
	brp := newLocalBRP(t)
	for i := 1; i <= 8; i++ {
		if d := brp.AcceptOffer(testOffer(flexoffer.ID(i), 40, 16, 4, 5), "p1"); !d.Accept {
			t.Fatalf("offer %d rejected: %s", i, d.Reason)
		}
	}
	if got := pendingOffers(brp); got != 8 {
		t.Errorf("pending offers = %d, want 8", got)
	}
	if applied := groupedOffers(brp); applied != 0 {
		t.Errorf("grouped offers before cycle = %d, want 0 (intake must not process)", applied)
	}

	// Nothing was grouped, so every offer the cycle plans is one it
	// processed out of the pending batch.
	rep, err := brp.RunSchedulingCycle(context.Background(), 0, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Offers != 8 {
		t.Errorf("report offers = %d, want 8", rep.Offers)
	}
	if !pipelineIdle(brp) {
		t.Error("the pipeline kept pending updates after the cycle")
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
	if n := groupedOffers(brp); n != 0 {
		t.Fatalf("grouped offers before processing = %d, want 0", n)
	}
	aggregates(brp) // processes the pending batch
	if n := groupedOffers(brp); n != 1 {
		t.Errorf("the pending batch grouped %d offers, want 1 (only the first insert)", n)
	}
}

// Duplicate micro schedules in one commit batch are reconciled, not fed
// into the pipeline as a delete of a nil offer: the first schedule of an
// offer is both the one stored and the one delivered, whether the
// duplicate repeats it or differs.
func TestCommitDuplicateMicroScheduleReconciled(t *testing.T) {
	first := &flexoffer.Schedule{OfferID: 1, Start: 40, Energy: []float64{0, 0, 0, 0}}
	for _, dup := range []*flexoffer.Schedule{
		first,
		{OfferID: 1, Start: 41, Energy: []float64{1, 0, 0, 0}},
	} {
		st, err := store.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { st.Close() })
		brp := mustNode(t, nil, Config{Name: "brp1", Store: st, AggParams: agg.ParamsP3})
		if d := brp.AcceptOffer(testOffer(1, 40, 16, 4, 5), "p1"); !d.Accept {
			t.Fatalf("rejected: %s", d.Reason)
		}
		// Materialize the aggregate so the pipeline delete at commit finds it.
		if got := len(aggregates(brp)); got != 1 {
			t.Fatalf("aggregates = %d, want 1", got)
		}
		// Commit runs behind the planner's intake barrier.
		drain(t, brp)
		walBefore := st.WALStats().Records
		byOwner, reconciled, err := brp.commitMicroSchedules([]plannedAggregate{{micro: []*flexoffer.Schedule{first, dup}}})
		if err != nil {
			t.Fatalf("commit with duplicate schedule: %v", err)
		}
		if reconciled != 1 {
			t.Errorf("reconciled = %d, want 1 (the duplicate)", reconciled)
		}
		if got := byOwner["p1"]; len(got) != 1 || got[0] != first {
			t.Errorf("schedules for p1 = %v, want the first alone", got)
		}
		if pendingOffers(brp) != 0 {
			t.Errorf("pending = %d, want 0", pendingOffers(brp))
		}
		if rec, ok := brp.Store().GetOffer(1); !ok || rec.State != store.OfferScheduled || rec.Schedule != first {
			t.Errorf("record = %+v, %v; want scheduled with the delivered schedule %+v", rec, ok, first)
		}
		if got := st.WALStats().Records - walBefore; got != 1 {
			t.Errorf("the commit logged %d records, want one transition", got)
		}
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
	snaps1, err := brp.snapshotForPlanning(0, flexoffer.SlotsPerDay, &CycleReport{})
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps1) == 0 {
		t.Fatal("no snapshots")
	}

	// Nothing changed: every snapshot is reused, pointer-identical.
	snaps2, err := brp.snapshotForPlanning(0, flexoffer.SlotsPerDay, &CycleReport{})
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps2) != len(snaps1) {
		t.Fatalf("second pass: %d snapshots, want %d", len(snaps2), len(snaps1))
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
	snaps3, err := brp.snapshotForPlanning(0, flexoffer.SlotsPerDay, &CycleReport{})
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
}

// Stress (run under -race in CI): concurrent intake while cycles batch,
// process and schedule. Afterwards the pipeline's grouped offers and
// the store's accepted offers must agree exactly.
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
	aggs := aggregates(brp)
	if !pipelineIdle(brp) {
		t.Error("the pipeline kept pending updates after the final process")
	}
	members := 0
	for _, a := range aggs {
		members += a.NumMembers()
	}
	drain(t, brp)
	if accepted := brp.Store().CountOffersByState()[store.OfferAccepted]; members != accepted {
		t.Errorf("aggregate members = %d, accepted offers in the store = %d — pipeline and store diverged", members, accepted)
	}
}

// An aggregate that changed after its snapshot was planned takes the
// commit's per-member path: its planned members are scheduled and leave,
// the offer that joined it mid-plan stays pending in it, and an
// unchanged aggregate beside it leaves whole.
func TestCommitChangedAggregateTakesPerMemberPath(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	brp := mustNode(t, nil, Config{Name: "brp1", Store: st, AggParams: agg.ParamsP0})
	for id := flexoffer.ID(1); id <= 6; id++ {
		es := flexoffer.Time(40)
		if id > 3 {
			es = 80
		}
		if d := brp.AcceptOffer(testOffer(id, es, 16, 4, 5), "p1"); !d.Accept {
			t.Fatalf("offer %d rejected: %s", id, d.Reason)
		}
	}
	var plan []plannedAggregate
	for _, a := range aggregates(brp) {
		snap := a.Snapshot()
		ms, err := snap.Disaggregate(snap.Offer.DefaultSchedule())
		if err != nil {
			t.Fatal(err)
		}
		plan = append(plan, plannedAggregate{snap: snap, micro: ms})
	}
	if len(plan) != 2 {
		t.Fatalf("%d aggregates, want 2", len(plan))
	}
	// Offer 7 joins the first aggregate while the plan runs.
	if d := brp.AcceptOffer(testOffer(7, 40, 16, 4, 5), "p2"); !d.Accept {
		t.Fatalf("offer 7 rejected: %s", d.Reason)
	}
	live := aggregates(brp)
	if live[0].Version == plan[0].snap.Version || live[1].Version != plan[1].snap.Version {
		t.Fatalf("versions %d, %d after the join; planned %d, %d", live[0].Version, live[1].Version, plan[0].snap.Version, plan[1].snap.Version)
	}
	drain(t, brp)
	byOwner, reconciled, err := brp.commitMicroSchedules(plan)
	if err != nil || reconciled != 0 {
		t.Fatalf("commit: %d reconciled, %v", reconciled, err)
	}
	if got := len(byOwner["p1"]); got != 6 || len(byOwner["p2"]) != 0 {
		t.Errorf("delivered %d schedules to p1 and %d to p2, want 6 and 0", got, len(byOwner["p2"]))
	}
	if pendingOffers(brp) != 1 {
		t.Errorf("pending = %d, want offer 7 alone", pendingOffers(brp))
	}
	after := aggregates(brp)
	if len(after) != 1 || after[0].Offer.ID != live[0].Offer.ID || after[0].NumMembers() != 1 {
		t.Fatalf("aggregates after the commit: %d, want the first one holding offer 7 alone", len(after))
	}
	counts := st.CountOffersByState()
	if counts[store.OfferScheduled] != 6 || counts[store.OfferAccepted] != 1 {
		t.Errorf("store states %v, want 6 scheduled and offer 7 accepted", counts)
	}
}
