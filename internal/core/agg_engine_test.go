package core

import (
	"context"
	"fmt"
	"reflect"
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

// defaultPlan processes n's accumulated intake and plans every live
// aggregate at its default schedule, on its snapshot, as a cycle's plan
// phase would.
func defaultPlan(tb testing.TB, n *Node) []plannedAggregate {
	tb.Helper()
	var plan []plannedAggregate
	for _, a := range aggregates(n) {
		snap := a.Snapshot()
		ms, err := snap.Disaggregate(snap.Offer.DefaultSchedule())
		if err != nil {
			tb.Fatal(err)
		}
		plan = append(plan, plannedAggregate{snap: snap, micro: ms})
	}
	return plan
}

// The commit stores for every member of a planned aggregate the very
// schedule it delivers to the member's owner, in one WAL record per
// member, and the members leave the pipeline.
func TestCommitStoresDeliveredSchedules(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	brp := mustNode(t, nil, Config{Name: "brp1", Store: st, AggParams: agg.ParamsP0})
	for id := flexoffer.ID(1); id <= 6; id++ {
		if d := brp.AcceptOffer(testOffer(id, 40+8*flexoffer.Time(id%2), 16, 4, 5), fmt.Sprintf("p%d", id%3)); !d.Accept {
			t.Fatalf("offer %d rejected: %s", id, d.Reason)
		}
	}
	plan := defaultPlan(t, brp)
	if len(plan) != 2 {
		t.Fatalf("%d aggregates, want 2", len(plan))
	}
	// Commit runs behind the planner's intake barrier.
	drain(t, brp)
	walBefore := st.WALStats().Records
	byOwner, err := brp.commitMicroSchedules(plan)
	if err != nil {
		t.Fatal(err)
	}
	delivered := 0
	for owner, ss := range byOwner {
		for _, s := range ss {
			if rec, ok := st.GetOffer(s.OfferID); !ok || rec.State != store.OfferScheduled || rec.Schedule != s || rec.Owner != owner {
				t.Errorf("offer %d: record %+v, %v; want %s's, scheduled with the delivered schedule", s.OfferID, rec, ok, owner)
			}
			delivered++
		}
	}
	if delivered != 6 {
		t.Errorf("delivered %d schedules, want 6", delivered)
	}
	if got := st.WALStats().Records - walBefore; got != 6 {
		t.Errorf("the commit logged %d records, want one per member (6)", got)
	}
	if pendingOffers(brp) != 0 || len(aggregates(brp)) != 0 {
		t.Errorf("%d offers pending, %d aggregates after the commit, want none", pendingOffers(brp), len(aggregates(brp)))
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
	snaps1, err := brp.snapshotForPlanning(context.Background(), 0, flexoffer.SlotsPerDay, &CycleReport{})
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps1) == 0 {
		t.Fatal("no snapshots")
	}

	// Nothing changed: every snapshot is reused, pointer-identical.
	snaps2, err := brp.snapshotForPlanning(context.Background(), 0, flexoffer.SlotsPerDay, &CycleReport{})
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
	snaps3, err := brp.snapshotForPlanning(context.Background(), 0, flexoffer.SlotsPerDay, &CycleReport{})
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

// Stress (run under -race in CI): concurrent offer and measurement
// intake while cycles batch, process and schedule. Measurement
// producers hold the ingest gate without the node lock, which each
// snapshot's drain takes under it. Afterwards the pipeline's grouped
// offers and the store's accepted offers agree exactly, and every
// micro schedule a cycle planned is stored as scheduled.
func TestConcurrentAccumulateDuringCycles(t *testing.T) {
	brp := newLocalBRP(t)

	const workers = 4
	const perWorker = 60
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(2)
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
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				ms := []store.Measurement{{Actor: fmt.Sprintf("m%d", w), EnergyType: "demand", Slot: flexoffer.Time(i), KWh: 1}}
				if err := brp.ingest.SubmitMeasurements(context.Background(), ms); err != nil {
					t.Errorf("measurement batch %d of meter %d: %v", i, w, err)
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	planned := 0
	for {
		rep, err := brp.RunSchedulingCycle(context.Background(), 0, nil, nil, nil)
		if err != nil {
			t.Errorf("cycle: %v", err)
			break
		}
		planned += rep.MicroSchedules
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
	counts := brp.Store().CountOffersByState()
	if members != counts[store.OfferAccepted] {
		t.Errorf("aggregate members = %d, accepted offers in the store = %d — pipeline and store diverged", members, counts[store.OfferAccepted])
	}
	if planned != counts[store.OfferScheduled] {
		t.Errorf("the cycles planned %d micro schedules, the store holds %d scheduled offers", planned, counts[store.OfferScheduled])
	}
}

// A commit whose planned aggregate changed after its snapshot — an
// offer joined it, and the test's own Process applied the join — is an
// invariant breach: it fails, and the store and the pipeline are
// exactly as they were, the departure already queued for the unchanged
// aggregate planned before it taken back. A plan made afresh commits.
func TestCommitChangedAggregateRefused(t *testing.T) {
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
	plan := defaultPlan(t, brp)
	if len(plan) != 2 {
		t.Fatalf("%d aggregates, want 2", len(plan))
	}
	// Offer 7 joins the second aggregate while the plan runs.
	if d := brp.AcceptOffer(testOffer(7, 80, 16, 4, 5), "p2"); !d.Accept {
		t.Fatalf("offer 7 rejected: %s", d.Reason)
	}
	live := aggregates(brp)
	if live[0].Version != plan[0].snap.Version || live[1].Version == plan[1].snap.Version {
		t.Fatalf("versions %d, %d after the join; planned %d, %d", live[0].Version, live[1].Version, plan[0].snap.Version, plan[1].snap.Version)
	}
	drain(t, brp)
	type state struct {
		pending  int
		versions map[flexoffer.ID]uint64
		members  int
		records  []store.OfferRecord
		counts   map[store.OfferState]int
		logged   uint64
	}
	read := func() state {
		s := state{pending: pendingOffers(brp), versions: map[flexoffer.ID]uint64{},
			records: st.Offers(store.OfferFilter{}), counts: st.CountOffersByState(), logged: st.WALStats().Records}
		for _, a := range aggregates(brp) {
			s.versions[a.Offer.ID] = a.Version
			s.members += a.NumMembers()
		}
		return s
	}
	before := read()
	if byOwner, err := brp.commitMicroSchedules(plan); err == nil {
		t.Fatalf("commit of a changed aggregate succeeded: %v", byOwner)
	}
	if after := read(); !reflect.DeepEqual(after, before) {
		t.Errorf("after the refused commit: %+v, want %+v", after, before)
	}
	byOwner, err := brp.commitMicroSchedules(defaultPlan(t, brp))
	if err != nil {
		t.Fatal(err)
	}
	if len(byOwner["p1"]) != 6 || len(byOwner["p2"]) != 1 || pendingOffers(brp) != 0 {
		t.Errorf("fresh plan delivered %d schedules to p1 and %d to p2 and left %d pending, want 6, 1 and 0",
			len(byOwner["p1"]), len(byOwner["p2"]), pendingOffers(brp))
	}
	if counts := st.CountOffersByState(); counts[store.OfferScheduled] != 7 {
		t.Errorf("store states %v, want 7 scheduled", counts)
	}
}
