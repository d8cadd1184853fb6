package core

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"mirabel/internal/agg"
	"mirabel/internal/comm"
	"mirabel/internal/flexoffer"
	"mirabel/internal/forecast"
	"mirabel/internal/ingest"
	"mirabel/internal/sched"
	"mirabel/internal/settle"
	"mirabel/internal/store"
)

// newAsyncBRP builds a BRP whose store, and so its intake, is durable
// under dir.
func newAsyncBRP(t *testing.T, bus *comm.Bus, dir string) *Node {
	t.Helper()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return mustNode(t, bus, Config{
		Name:      "brp1",
		Store:     st,
		AggParams: agg.ParamsP3,
		SchedOpts: sched.Options{MaxIterations: 3, Seed: 1},
		Ingest:    &ingest.Config{Queue: 128, Policy: ingest.PolicyBlock},
	})
}

// TestAsyncIntakeCycle drives the full async path: offers and
// measurements are acked through the ingest queue, the cycle's drain
// barrier applies them before planning, and schedules come back to the
// prosumers exactly as on the synchronous path.
func TestAsyncIntakeCycle(t *testing.T) {
	bus := comm.NewBus()
	brp := newAsyncBRP(t, bus, t.TempDir())
	p1 := newProsumer(t, bus, "p1")
	p2 := newProsumer(t, bus, "p2")

	if d, err := p1.Submit(context.Background(), "brp1", testOffer(1, 40, 16, 4, 5)); err != nil || !d.Accept {
		t.Fatalf("submit o1: %v %+v", err, d)
	}
	if d, err := p2.Submit(context.Background(), "brp1", testOffer(2, 42, 12, 4, 5)); err != nil || !d.Accept {
		t.Fatalf("submit o2: %v %+v", err, d)
	}
	if err := brp.ingest.SubmitMeasurements(context.Background(), []store.Measurement{
		{Actor: "p1", EnergyType: "elec", Slot: 1, KWh: 2},
		{Actor: "p2", EnergyType: "elec", Slot: 1, KWh: 3},
	}); err != nil {
		t.Fatalf("ingest measurements: %v", err)
	}
	// The ack does not promise visibility; the drain barrier does.
	if err := brp.DrainIngest(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if got := len(brp.Store().Measurements(store.MeasurementFilter{})); got != 2 {
		t.Fatalf("measurements after drain = %d, want 2", got)
	}
	if rec, ok := brp.Store().GetOffer(1); !ok || rec.State != store.OfferAccepted {
		t.Fatalf("offer 1 after drain = %+v, %v", rec, ok)
	}

	baseline := make([]float64, flexoffer.SlotsPerDay)
	for i := 40; i < 56; i++ {
		baseline[i] = -8
	}
	rep, err := brp.RunSchedulingCycle(context.Background(), 0, StaticForecast(baseline), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.MicroSchedules == 0 {
		t.Fatal("async cycle produced no micro schedules")
	}
	if rep.NotifyFailures != 0 {
		t.Fatalf("notify failures = %d, want none", rep.NotifyFailures)
	}
	for _, id := range []flexoffer.ID{1, 2} {
		if rec, ok := brp.Store().GetOffer(id); !ok || rec.State != store.OfferScheduled {
			t.Fatalf("offer %d = %+v (ok=%v), want scheduled", id, rec, ok)
		}
	}
	stats, ok := brp.IngestStats()
	if !ok {
		t.Fatal("IngestStats reported no queue")
	}
	if stats.Enqueued == 0 || stats.Consumed != stats.Enqueued {
		t.Fatalf("ingest stats enqueued/consumed = %d/%d", stats.Enqueued, stats.Consumed)
	}
}

// TestCycleDeliversPastDeadOwner: a BRP built without a retry config
// still sends through the default retry policy. A prosumer that never
// came up costs each cycle its bounded retries and one notify failure;
// the live prosumer gets its schedules and the dead one's offer stays
// scheduled at the BRP.
func TestCycleDeliversPastDeadOwner(t *testing.T) {
	bus := comm.NewBus()
	brp := newAsyncBRP(t, bus, t.TempDir())
	p1 := newProsumer(t, bus, "p1")
	// p2 is never registered: dead from the start.

	baseline := make([]float64, flexoffer.SlotsPerDay)
	for i := 40; i < 56; i++ {
		baseline[i] = -8
	}
	for cycle, ids := range [][2]flexoffer.ID{{1, 2}, {3, 4}} {
		live, dead := ids[0], ids[1]
		if d, err := p1.Submit(context.Background(), "brp1", testOffer(live, 40, 16, 4, 5)); err != nil || !d.Accept {
			t.Fatalf("submit %d: %v %+v", live, err, d)
		}
		if d := brp.AcceptOffer(testOffer(dead, 40, 16, 4, 5), "p2"); !d.Accept {
			t.Fatalf("offer %d rejected: %s", dead, d.Reason)
		}
		t0 := time.Now()
		rep, err := brp.RunSchedulingCycle(context.Background(), 0, StaticForecast(baseline), nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if d := time.Since(t0); d > comm.DefaultTimeout/5 {
			t.Errorf("cycle %d took %v; the retries to a dead owner must stay well within %v", cycle, d, comm.DefaultTimeout)
		}
		if rep.NotifyFailures != 1 {
			t.Fatalf("cycle %d notify failures = %d, want 1 (p2)", cycle, rep.NotifyFailures)
		}
		if scheduleOf(p1, live) == nil {
			t.Errorf("cycle %d: p1 holds no schedule for offer %d", cycle, live)
		}
		if rec, ok := brp.Store().GetOffer(dead); !ok || rec.State != store.OfferScheduled {
			t.Errorf("cycle %d: dead owner's offer = %+v (ok=%v), want scheduled", cycle, rec, ok)
		}
	}
	// Nil Retry is the default policy: three attempts per notify to p2.
	rs, ok := brp.RetryStats()
	if !ok {
		t.Fatal("RetryStats reported no retry policy on a node with a transport")
	}
	if rs.Retries != 4 || rs.Exhausted != 2 {
		t.Errorf("retry stats = %+v, want 4 retries and 2 exhausted calls to p2", rs)
	}
}

// TestNodeCloseFlushesIngest pins the shutdown contract: Close drains
// the queue, so every acked event is in the store when the node exits.
func TestNodeCloseFlushesIngest(t *testing.T) {
	bus := comm.NewBus()
	dir := t.TempDir()
	brp := newAsyncBRP(t, bus, dir)
	ms := make([]store.Measurement, 50)
	for i := range ms {
		ms[i] = store.Measurement{Actor: "p1", EnergyType: "elec", Slot: flexoffer.Time(i), KWh: 1}
	}
	if err := brp.ingest.SubmitMeasurements(context.Background(), ms); err != nil {
		t.Fatalf("ingest: %v", err)
	}
	if err := brp.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if got := len(brp.Store().Measurements(store.MeasurementFilter{})); got != 50 {
		t.Fatalf("measurements after close = %d, want 50", got)
	}
}

// TestCancelProsumerTakesIntakeBarrier is the ROADMAP item 0
// regression: a departing prosumer's offer that is acked but still
// queued behind a stalled applier must be cancelled and penalised, not
// left in the pipeline for the next cycle to schedule for a household
// that is gone.
func TestCancelProsumerTakesIntakeBarrier(t *testing.T) {
	bus := comm.NewBus()
	entered, stall := make(chan struct{}, 1), make(chan struct{})
	brp := mustNode(t, bus, Config{
		Name: "brp1", AggParams: agg.ParamsP3,
		SchedOpts: sched.Options{MaxIterations: 3, Seed: 1},
		Ingest: &ingest.Config{OnMeasurements: func([]store.Measurement) {
			select {
			case entered <- struct{}{}:
			default:
			}
			<-stall
		}},
		Settlement: &settle.LedgerConfig{Path: filepath.Join(t.TempDir(), "ledger.log")},
	})
	release := sync.OnceFunc(func() { close(stall) })
	t.Cleanup(release) // before mustNode's Close, which drains
	newProsumer(t, bus, "p1")

	// The applier parks in the hook; whatever is acked from here on
	// queues behind it.
	if err := brp.ingest.SubmitMeasurements(context.Background(), seriesMeas("p1", 0, 1)); err != nil {
		t.Fatal(err)
	}
	<-entered
	if d := brp.AcceptOffer(testOffer(1, 40, 16, 4, 5), "p1"); !d.Accept {
		t.Fatalf("rejected: %s", d.Reason)
	}
	if _, ok := brp.Store().GetOffer(1); ok {
		t.Fatal("offer reached the store past the stalled applier")
	}

	type result struct {
		rep *settle.CancelReport
		err error
	}
	done := make(chan result, 1)
	go func() {
		rep, err := brp.CancelProsumer("p1", settle.CancelConfig{PenaltyEUR: 0.5})
		done <- result{rep, err}
	}()
	// A CancelProsumer that skips the barrier returns inside the grace
	// period, having read a store without the offer; one that takes it
	// is still waiting when the applier is released. The assertions
	// below do not depend on the period's length.
	var res result
	select {
	case res = <-done:
	case <-time.After(50 * time.Millisecond):
		release()
		res = <-done
	}
	if res.err != nil {
		t.Fatal(res.err)
	}
	if len(res.rep.Cancelled) != 1 || res.rep.Cancelled[0] != 1 || res.rep.PenaltyEUR <= 0 {
		t.Fatalf("cancel report = %+v, want offer 1 cancelled with a penalty", res.rep)
	}
	if rec, ok := brp.Store().GetOffer(1); !ok || rec.State != store.OfferCancelled {
		t.Errorf("offer 1 = %+v (ok=%v), want cancelled", rec, ok)
	}
	if bal, ok := brp.Ledger().Balance("p1"); !ok || bal.Deviations != 1 || !brp.Ledger().HasSettled(1) {
		t.Errorf("ledger balance = %+v (ok=%v), want one penalty entry for offer 1", bal, ok)
	}
	if got := pendingOffers(brp); got != 0 {
		t.Errorf("pending offers = %d, want 0", got)
	}
	rep, err := brp.RunSchedulingCycle(context.Background(), 0, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Offers != 0 || rep.MicroSchedules != 0 {
		t.Errorf("cycle after the departure planned %d offers into %d schedules", rep.Offers, rep.MicroSchedules)
	}
	if rec, _ := brp.Store().GetOffer(1); rec.State != store.OfferCancelled {
		t.Errorf("offer 1 after the cycle = %s, want cancelled", rec.State)
	}
}

// TestRefusedDuplicateLeavesOriginal: a second submission of a pending
// offer's id is refused, and the rejected record the refusal logs must
// not take the original over. The store keeps the offer accepted under
// its first owner, a crash recovers it as pending — applied before the
// crash or only in the WAL — and the cycle delivers its schedule to
// that owner and to nobody else.
func TestRefusedDuplicateLeavesOriginal(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{
		Name: "brp1", AggParams: agg.ParamsP3,
		SchedOpts: sched.Options{MaxIterations: 3, Seed: 1},
	}
	openStore := func() *store.Store {
		t.Helper()
		st, err := store.Open(filepath.Join(dir, "store"))
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	submitTwice := func(n *Node, f *flexoffer.FlexOffer) {
		t.Helper()
		if d := n.AcceptOffer(f, "p1"); !d.Accept {
			t.Fatalf("offer %d rejected: %s", f.ID, d.Reason)
		}
		if d := n.AcceptOffer(f.Clone(), "p2"); d.Accept || !strings.Contains(d.Reason, "duplicate") {
			t.Fatalf("second submission of offer %d = %+v, want refused as a duplicate", f.ID, d)
		}
	}

	cfg.Store = openStore()
	crashed, err := NewNode(cfg)
	if err != nil {
		t.Fatal(err)
	}
	submitTwice(crashed, testOffer(1, 40, 16, 4, 5))
	drain(t, crashed)
	if rec, _ := cfg.Store.GetOffer(1); rec.State != store.OfferAccepted || rec.Owner != "p1" {
		t.Fatalf("offer 1 after the refused duplicate = %s of %s, want accepted of p1", rec.State, rec.Owner)
	}
	submitTwice(crashed, testOffer(2, 42, 12, 4, 5)) // acked, no barrier
	crashed.Kill()

	bus := comm.NewBus()
	cfg.Store = openStore()
	t.Cleanup(func() { cfg.Store.Close() })
	brp := mustNode(t, bus, cfg)
	if got := brp.RecoveredPending(); got != 2 {
		t.Fatalf("recovered pending = %d, want both acked offers", got)
	}
	for _, id := range []flexoffer.ID{1, 2} {
		if rec, _ := cfg.Store.GetOffer(id); rec.State != store.OfferAccepted || rec.Owner != "p1" {
			t.Errorf("offer %d after recovery = %s of %s, want accepted of p1", id, rec.State, rec.Owner)
		}
	}
	p1, p2 := newNotifyCounter(bus, "p1"), newNotifyCounter(bus, "p2")
	baseline := make([]float64, flexoffer.SlotsPerDay)
	for i := 40; i < 56; i++ {
		baseline[i] = -8
	}
	rep, err := brp.RunSchedulingCycle(context.Background(), 0, StaticForecast(baseline), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.MicroSchedules != 2 || rep.NotifyFailures != 0 {
		t.Fatalf("cycle = %d schedules, %d failed deliveries; want 2, 0", rep.MicroSchedules, rep.NotifyFailures)
	}
	waitFor(t, 2*time.Second, func() bool { return p1.total() == 2 })
	if p1.count(1) != 1 || p1.count(2) != 1 || p2.total() != 0 {
		t.Errorf("deliveries: p1 got %d and %d, p2 got %d; want 1, 1, 0", p1.count(1), p1.count(2), p2.total())
	}
}

// TestPlannedOfferIDRefused: once a cycle has planned an offer it has
// left the pipeline, and its id must still be refused — from its owner
// and from anyone else, live and after a crash and reopen. The store
// keeps the planned record, and the next cycle plans nothing.
func TestPlannedOfferIDRefused(t *testing.T) {
	for _, reopen := range []bool{false, true} {
		for _, owner := range []string{"p1", "p2"} {
			t.Run(fmt.Sprintf("%s/reopen=%v", owner, reopen), func(t *testing.T) {
				dir := t.TempDir()
				cfg := Config{
					Name: "brp1", AggParams: agg.ParamsP3,
					SchedOpts: sched.Options{MaxIterations: 3, Seed: 1},
				}
				openStore := func() *store.Store {
					st, err := store.Open(filepath.Join(dir, "store"))
					if err != nil {
						t.Fatal(err)
					}
					return st
				}
				cfg.Store = openStore()
				brp, err := NewNode(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if d := brp.AcceptOffer(testOffer(1, 40, 16, 4, 5), "p1"); !d.Accept {
					t.Fatalf("offer 1 rejected: %s", d.Reason)
				}
				baseline := make([]float64, flexoffer.SlotsPerDay)
				for i := 40; i < 56; i++ {
					baseline[i] = -8
				}
				ctx := context.Background()
				if rep, err := brp.RunSchedulingCycle(ctx, 0, StaticForecast(baseline), nil, nil); err != nil || rep.MicroSchedules != 1 {
					t.Fatalf("first cycle = %+v, %v; want offer 1 planned", rep, err)
				}
				if reopen {
					brp.Kill()
					cfg.Store = openStore()
					if brp, err = NewNode(cfg); err != nil {
						t.Fatal(err)
					}
				}
				t.Cleanup(func() { cfg.Store.Close() })
				t.Cleanup(func() { brp.Close() })

				if d := brp.AcceptOffer(testOffer(1, 44, 12, 4, 5), owner); d.Accept || !strings.Contains(d.Reason, "duplicate") {
					t.Fatalf("resubmitted offer 1 from %s = %+v, want refused as a duplicate", owner, d)
				}
				if got := pendingOffers(brp); got != 0 {
					t.Errorf("pending offers = %d, want 0", got)
				}
				drain(t, brp)
				if rec, _ := brp.Store().GetOffer(1); rec.State != store.OfferScheduled || rec.Owner != "p1" {
					t.Errorf("offer 1 after the refusal = %s of %s, want scheduled of p1", rec.State, rec.Owner)
				}
				if rep, err := brp.RunSchedulingCycle(ctx, 0, StaticForecast(baseline), nil, nil); err != nil || rep.MicroSchedules != 0 {
					t.Errorf("second cycle = %+v, %v; want nothing planned", rep, err)
				}
			})
		}
	}
}

// TestRejectedOfferIDResubmitted: a rejected record does not take its
// id, so the prosumer may submit the offer again on viable terms.
func TestRejectedOfferIDResubmitted(t *testing.T) {
	brp := newBRP(t, nil)
	if d := brp.AcceptOffer(testOffer(7, 9, 16, 4, 5), "p1"); d.Accept {
		t.Fatalf("offer 7 past its assignment deadline = %+v, want rejected", d)
	}
	drain(t, brp)
	if rec, ok := brp.Store().GetOffer(7); !ok || rec.State != store.OfferRejected {
		t.Fatalf("offer 7 = %s (stored %v), want rejected", rec.State, ok)
	}
	if d := brp.AcceptOffer(testOffer(7, 40, 16, 4, 5), "p1"); !d.Accept {
		t.Fatalf("resubmitted offer 7 = %+v, want accepted", d)
	}
	drain(t, brp)
	if rec, ok := brp.Store().GetOffer(7); !ok || rec.State != store.OfferAccepted {
		t.Fatalf("resubmitted offer 7 = %s (stored %v), want accepted", rec.State, ok)
	}
}

// TestNewNodeFailureReleasesDataPath: a NewNode that fails after the
// registry is up (here: an unopenable ledger path) must stop what it
// started — no goroutine or file is left behind — and a second attempt
// over the same directory recovers everything.
func TestNewNodeFailureReleasesDataPath(t *testing.T) {
	dir := t.TempDir()
	openStore := func() *store.Store {
		t.Helper()
		st, err := store.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	cfg := Config{
		Name: "brp1", AggParams: agg.ParamsP3, Store: openStore(),
		Settlement: &settle.LedgerConfig{Path: filepath.Join(dir, "ledger.log")},
	}
	crashed, err := NewNode(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if d := crashed.AcceptOffer(testOffer(1, 40, 16, 4, 5), "p1"); !d.Accept {
		t.Fatalf("rejected: %s", d.Reason)
	}
	crashed.Kill() // the ack survives in the WAL only

	cfg.Store = openStore()
	t.Cleanup(func() { cfg.Store.Close() })
	bad := cfg
	bad.Settlement = &settle.LedgerConfig{Path: dir} // a directory is no ledger file
	before, fds := runtime.NumGoroutine(), openFiles()
	if n, err := NewNode(bad); err == nil {
		n.Close()
		t.Fatal("NewNode opened a directory as its ledger")
	}
	waitFor(t, 2*time.Second, func() bool { return runtime.NumGoroutine() <= before })
	if now := openFiles(); now > fds {
		t.Errorf("the failed NewNode left %d files open", now-fds)
	}

	re, err := NewNode(cfg)
	if err != nil {
		t.Fatalf("reopen over the same directory: %v", err)
	}
	defer re.Close()
	if got := re.RecoveredPending(); got != 1 {
		t.Errorf("recovered pending = %d, want the acked offer", got)
	}
}

// TestNewNodeRegistryFailureJoinsLedger: the ledger's chain walk runs
// on its own goroutine beside the registry's start and the re-admission
// of the accepted offers. When that side fails while the walk is still
// going (here: a seasonal period the registry refuses at once, and a
// chain of thousands of entries), NewNode waits for the walk, closes the
// ledger and returns the registry's error: no goroutine or file is left
// behind, the ledger file is byte for byte what it was, and a second
// attempt over the same directory recovers everything.
func TestNewNodeRegistryFailureJoinsLedger(t *testing.T) {
	dir := t.TempDir()
	writeCrashedNode(t, dir, 3000, 2000)
	ledgerPath := filepath.Join(dir, "ledger.log")
	ledgerBefore, err := os.ReadFile(ledgerPath)
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	bad := reopenConfig(dir, st)
	bad.Forecasting = &forecast.RegistryConfig{Periods: []int{1}}
	before, fds := runtime.NumGoroutine(), openFiles()
	if n, err := NewNode(bad); err == nil {
		n.Close()
		t.Fatal("NewNode started a registry with a one-slot season")
	} else if !strings.Contains(err.Error(), "forecast") {
		t.Errorf("err = %v, want the registry's failure", err)
	}
	waitFor(t, 2*time.Second, func() bool { return runtime.NumGoroutine() <= before })
	if now := openFiles(); now > fds {
		t.Errorf("the failed NewNode left %d files open", now-fds)
	}
	if after, err := os.ReadFile(ledgerPath); err != nil || !bytes.Equal(after, ledgerBefore) {
		t.Fatalf("the failed NewNode changed the ledger (%v)", err)
	}

	re, err := NewNode(reopenConfig(dir, st))
	if err != nil {
		t.Fatalf("reopen over the same directory: %v", err)
	}
	defer re.Close()
	if got := re.RecoveredPending(); got != 1000 {
		t.Errorf("recovered pending = %d, want the 1000 accepted offers", got)
	}
	if ls, _ := re.LedgerStats(); ls.RecoveredEntries != 1960 { // 2000 planned, one in 50 expired
		t.Errorf("recovered ledger entries = %d, want 1960", ls.RecoveredEntries)
	}
}

// openFiles counts the process's open file descriptors, or returns 0
// where /proc does not list them.
func openFiles() int {
	fds, _ := os.ReadDir("/proc/self/fd")
	return len(fds)
}

// TestRefusedAckLeavesNoTrace: an offer whose ingest submission fails
// is refused, and the node then agrees with itself that it never took
// it — the store, the pending set and the planning pipeline all lack
// it, so the prosumer can submit it again. The queue holds one event
// and sheds the next while its applier is stalled inside the
// measurement hook.
func TestRefusedAckLeavesNoTrace(t *testing.T) {
	entered, resume := make(chan struct{}), make(chan struct{})
	var stall sync.Once
	brp := mustNode(t, nil, Config{
		Name: "brp1", AggParams: agg.ParamsP3,
		Ingest: &ingest.Config{
			Queue:  1,
			Policy: ingest.PolicyShed,
			OnMeasurements: func([]store.Measurement) {
				stall.Do(func() {
					close(entered)
					<-resume
				})
			},
		},
	})
	release := sync.OnceFunc(func() { close(resume) })
	t.Cleanup(release) // before the node's Close, which drains
	reading := func(slot flexoffer.Time) []store.Measurement {
		return []store.Measurement{{Actor: "p1", EnergyType: "elec", Slot: slot, KWh: 1}}
	}
	if err := brp.ingest.SubmitMeasurements(context.Background(), reading(1)); err != nil {
		t.Fatal(err)
	}
	<-entered // the applier is stalled and its slot free again
	if err := brp.ingest.SubmitMeasurements(context.Background(), reading(2)); err != nil {
		t.Fatal(err) // takes the queue's one slot
	}
	d := brp.AcceptOffer(testOffer(7, 40, 16, 4, 5), "p1")
	release()
	if d.Accept || !strings.Contains(d.Reason, ingest.ErrOverloaded.Error()) {
		t.Fatalf("offer 7 on a full queue = %+v, want refused as overloaded", d)
	}
	drain(t, brp)
	if rec, ok := brp.Store().GetOffer(7); ok {
		t.Errorf("refused offer 7 is in the store as %s", rec.State)
	}
	brp.mu.Lock()
	_, pending := brp.pipeline.Offer(7)
	brp.mu.Unlock()
	if pending {
		t.Error("refused offer 7 is pending")
	}
	// The pipeline refuses an id it still holds (applied or pending
	// insertion), so the resubmission's acceptance shows 7 left it.
	if d := brp.AcceptOffer(testOffer(7, 40, 16, 4, 5), "p1"); !d.Accept {
		t.Fatalf("resubmitted offer 7 = %+v, want accepted", d)
	}
	drain(t, brp)
	if rec, ok := brp.Store().GetOffer(7); !ok || rec.State != store.OfferAccepted {
		t.Fatalf("resubmitted offer 7 = %s (stored %v), want accepted", rec.State, ok)
	}
}
