package core

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"os"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"testing"
	"time"

	"mirabel/internal/agg"
	"mirabel/internal/chaos"
	"mirabel/internal/comm"
	"mirabel/internal/flexoffer"
	"mirabel/internal/sched"
	"mirabel/internal/store"
)

// gatedTransport blocks outbound sends until the gate is released, to
// hold a scheduling cycle in its deliver phase at a known point.
type gatedTransport struct {
	comm.Transport
	gate chan struct{} // close to release
}

func (g *gatedTransport) Send(ctx context.Context, to string, env comm.Envelope) error {
	select {
	case <-g.gate:
	case <-ctx.Done():
		return ctx.Err()
	}
	return g.Transport.Send(ctx, to, env)
}

// notifyCounter registers a bus endpoint that counts schedule
// deliveries per offer ID.
type notifyCounter struct {
	mu     sync.Mutex
	counts map[flexoffer.ID]int
}

func newNotifyCounter(bus *comm.Bus, name string) *notifyCounter {
	c := &notifyCounter{counts: make(map[flexoffer.ID]int)}
	bus.Register(name, func(ctx context.Context, env comm.Envelope) (*comm.Envelope, error) {
		if env.Type != comm.MsgScheduleNotify {
			return nil, nil
		}
		var body comm.ScheduleNotify
		if err := env.Decode(comm.MsgScheduleNotify, &body); err != nil {
			return nil, err
		}
		c.mu.Lock()
		for _, s := range body.Schedules {
			c.counts[s.OfferID]++
		}
		c.mu.Unlock()
		return nil, nil
	})
	return c
}

func (c *notifyCounter) count(id flexoffer.ID) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.counts[id]
}

func (c *notifyCounter) total() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, v := range c.counts {
		n += v
	}
	return n
}

// TestIntakeNotBlockedDuringDelivery drives a cycle into its deliver
// phase against a blocked transport and proves that offer intake — and
// the full handler chain — stays responsive while delivery is stuck.
func TestIntakeNotBlockedDuringDelivery(t *testing.T) {
	bus := comm.NewBus()
	gate := make(chan struct{})
	gt := &gatedTransport{Transport: bus, gate: gate}
	brp := mustNode(t, bus, Config{
		Name: "brp1", Transport: gt,
		AggParams: agg.ParamsP3,
		SchedOpts: sched.Options{MaxIterations: 2, Seed: 1},
	})
	counter := newNotifyCounter(bus, "p1")

	if d := brp.AcceptOffer(testOffer(1, 40, 16, 4, 5), "p1"); !d.Accept {
		t.Fatalf("rejected: %s", d.Reason)
	}

	cycleDone := make(chan *CycleReport, 1)
	go func() {
		rep, err := brp.RunSchedulingCycle(context.Background(), 0, nil, nil, nil)
		if err != nil {
			t.Errorf("cycle: %v", err)
		}
		cycleDone <- rep
	}()

	// The commit phase removes the offer from pending before delivery
	// starts; once pending is empty the cycle is parked on the gate.
	deadline := time.Now().Add(2 * time.Second)
	for pendingOffers(brp) != 0 {
		if time.Now().After(deadline) {
			t.Fatal("cycle never reached its deliver phase")
		}
		time.Sleep(time.Millisecond)
	}

	// Intake must complete promptly while delivery is blocked.
	accepted := make(chan bool, 1)
	go func() {
		accepted <- brp.AcceptOffer(testOffer(2, 40, 16, 4, 5), "p1").Accept
	}()
	select {
	case ok := <-accepted:
		if !ok {
			t.Fatal("mid-cycle offer rejected")
		}
	case <-time.After(time.Second):
		t.Fatal("AcceptOffer blocked behind the deliver phase")
	}
	// The full handler chain too: a ping must answer mid-delivery.
	env, _ := comm.NewEnvelope(comm.MsgPing, "x", "brp1", nil)
	pinged := make(chan error, 1)
	go func() {
		_, err := brp.Handler()(context.Background(), env)
		pinged <- err
	}()
	select {
	case err := <-pinged:
		if err != nil {
			t.Fatalf("ping mid-cycle: %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("Handle blocked behind the deliver phase")
	}

	close(gate)
	rep := <-cycleDone
	if rep == nil {
		t.Fatal("cycle failed (see goroutine error above)")
	}
	if rep.NotifyFailures != 0 {
		t.Errorf("notify failures = %d", rep.NotifyFailures)
	}
	// The mid-cycle offer was accepted after the snapshot: it must
	// still be pending, not lost and not scheduled.
	if got := pendingOffers(brp); got != 1 {
		t.Errorf("pending after cycle = %d, want the mid-cycle offer", got)
	}
	waitFor(t, time.Second, func() bool { return counter.count(1) == 1 })
	if n := counter.count(2); n != 0 {
		t.Errorf("mid-cycle offer delivered %d times without being scheduled", n)
	}
}

// TestConcurrentIntakeAndCyclesLoseNothing floods a BRP with offers
// from a writer goroutine while scheduling cycles run over a slow
// transport, then checks the commit reconciliation's invariant: every
// accepted offer is delivered exactly once or still pending — none
// lost, none double-scheduled. Run with -race.
func TestConcurrentIntakeAndCyclesLoseNothing(t *testing.T) {
	bus := comm.NewBus()
	lt := chaos.NewInjector(bus, 0, chaos.Faults{LatBase: 200 * time.Microsecond})
	brp := mustNode(t, bus, Config{
		Name: "brp1", Transport: lt,
		AggParams: agg.ParamsP3,
		SchedOpts: sched.Options{MaxIterations: 2, Seed: 1},
	})
	const owners = 4
	counters := make([]*notifyCounter, owners)
	for i := range counters {
		counters[i] = newNotifyCounter(bus, fmt.Sprintf("p%d", i))
	}

	const total = 120
	accepted := make(chan flexoffer.ID, total)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for id := flexoffer.ID(1); id <= total; id++ {
			owner := fmt.Sprintf("p%d", int(id)%owners)
			if d := brp.AcceptOffer(testOffer(id, 40, 16, 4, 5), owner); d.Accept {
				accepted <- id
			}
			if id%10 == 0 {
				time.Sleep(time.Millisecond)
			}
		}
	}()
	// Cycles race the writer.
	for i := 0; i < 6; i++ {
		if _, err := brp.RunSchedulingCycle(context.Background(), 0, nil, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	close(accepted)
	// One final cycle schedules whatever the writer added last.
	rep, err := brp.RunSchedulingCycle(context.Background(), 0, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.NotifyFailures != 0 {
		t.Errorf("notify failures = %d", rep.NotifyFailures)
	}

	var ids []flexoffer.ID
	for id := range accepted {
		ids = append(ids, id)
	}
	pending := pendingOffers(brp)
	delivered := 0
	waitFor(t, 2*time.Second, func() bool {
		delivered = 0
		for _, c := range counters {
			delivered += c.total()
		}
		return delivered+pending == len(ids)
	})
	for _, id := range ids {
		n := counters[int(id)%owners].count(id)
		if n > 1 {
			t.Errorf("offer %d delivered %d times", id, n)
		}
	}
	if delivered+pending != len(ids) {
		t.Errorf("delivered %d + pending %d != accepted %d: offers lost", delivered, pending, len(ids))
	}
}

// TestCycleDeliveryBoundedBySlowestProsumer is the phase split's
// headline property at test scale: with n prosumers behind a
// fixed-latency transport, delivery wall time is near one latency, not
// n of them.
func TestCycleDeliveryBoundedBySlowestProsumer(t *testing.T) {
	bus := comm.NewBus()
	const delay = 50 * time.Millisecond
	const owners = 8
	lt := chaos.NewInjector(bus, 0, chaos.Faults{LatBase: delay})
	brp := mustNode(t, bus, Config{
		Name: "brp1", Transport: lt,
		AggParams: agg.ParamsP3,
		SchedOpts: sched.Options{MaxIterations: 2, Seed: 5},
	})
	for i := 0; i < owners; i++ {
		name := fmt.Sprintf("p%d", i)
		newNotifyCounter(bus, name)
		if d := brp.AcceptOffer(testOffer(flexoffer.ID(i+1), 40, 16, 4, 5), name); !d.Accept {
			t.Fatalf("rejected: %s", d.Reason)
		}
	}
	rep, err := brp.RunSchedulingCycle(context.Background(), 0, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.NotifyFailures != 0 {
		t.Errorf("notify failures = %d", rep.NotifyFailures)
	}
	if rep.DeliveryTime >= owners*delay/2 {
		t.Errorf("delivery took %v: serialized, want near the single latency %v", rep.DeliveryTime, delay)
	}
}

func waitFor(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in time")
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestOfferExpiryKeysOnLatestStart is the regression test for the
// premature-expiry predicate: the snapshot phase used to drop any offer
// whose EarliestStart had passed, discarding flexibility that was still
// schedulable in the remainder of its window (EarliestStart < now ≤
// LatestStart — the planner clamps the start window at now via
// sched.Problem.StartWindow).
func TestOfferExpiryKeysOnLatestStart(t *testing.T) {
	f := testOffer(1, 40, 16, 4, 5) // window [40, 56], AssignBefore 32
	f.AssignBefore = 60             // keep the deadline clause out of the way
	const end = flexoffer.Time(96)

	if offerExpiredAt(f, 45, end) {
		t.Error("offer with EarliestStart < now ≤ LatestStart expired prematurely")
	}
	if offerExpiredAt(f, 56, end) {
		t.Error("offer expired at the last schedulable slot")
	}
	if !offerExpiredAt(f, 57, end) {
		t.Error("offer with a closed start window (LatestStart < now) kept")
	}
	if !offerExpiredAt(f, 61, end) {
		t.Error("offer past its assignment deadline kept")
	}
	// Window overflow: LatestEnd 60 exceeds a horizon ending at 58.
	if !offerExpiredAt(f, 45, 58) {
		t.Error("offer overflowing the horizon kept")
	}
}

// TestExpirySweepSeesOffersAckedAfterBarrier: an offer acked after the
// cycle's intake barrier, whose assignment deadline has passed by the
// cycle's now, expires in the store as it leaves the pipeline. The
// snapshot drains intake again under the node lock, so the sweep's
// store batch finds the offer's record; a sweep that ran before the
// applier reached the record dropped the offer from the pipeline while
// the record applied as accepted, and stayed so.
func TestExpirySweepSeesOffersAckedAfterBarrier(t *testing.T) {
	brp := newLocalBRP(t)
	if _, err := brp.enterPlanner(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer brp.cycleMu.Unlock()
	if d := brp.AcceptOffer(testOffer(1, 40, 16, 4, 5), "p1"); !d.Accept { // AssignBefore 32
		t.Fatalf("rejected: %s", d.Reason)
	}
	rep := &CycleReport{}
	if _, err := brp.snapshotForPlanning(context.Background(), 35, flexoffer.SlotsPerDay, rep); err != nil {
		t.Fatal(err)
	}
	drain(t, brp)
	if rec, _ := brp.Store().GetOffer(1); rec.State != store.OfferExpired {
		t.Errorf("record state = %s, want expired", rec.State)
	}
	brp.mu.Lock()
	_, held := brp.pipeline.Offer(1)
	brp.mu.Unlock()
	if held || rep.Expired != 1 {
		t.Errorf("pipeline holds the offer: %v; %d expired, want 1", held, rep.Expired)
	}
	if got := brp.Store().CountOffersByState()[store.OfferAccepted]; got != 0 {
		t.Errorf("%d accepted records, want 0", got)
	}
}

// A cycle whose expiry write fails changes nothing: the expired offers
// stay pending and stay members of their aggregates, as they stay
// accepted in the store, so the next cycle sweeps them again instead of
// planning offers the node no longer counts as pending.
func TestFailedExpiryWriteKeepsPendingAndPipeline(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	brp := mustNode(t, nil, Config{
		Name:      "brp1",
		Store:     st,
		AggParams: agg.ParamsP3,
		SchedOpts: sched.Options{MaxIterations: 3, Seed: 1},
	})
	for i := 1; i <= 12; i++ {
		es := flexoffer.Time(16) // assign-before slot 8: expired at 10
		if i > 6 {
			es = 40
		}
		if d := brp.AcceptOffer(testOffer(flexoffer.ID(i), es, 16, 4, 5), "p1"); !d.Accept {
			t.Fatalf("offer %d rejected: %s", i, d.Reason)
		}
	}
	drain(t, brp)
	members := func() int {
		n := 0
		for _, a := range aggregates(brp) {
			n += a.NumMembers()
		}
		return n
	}
	pending, grouped := pendingOffers(brp), members()
	if pending != 12 || grouped != 12 {
		t.Fatalf("before: %d pending, %d grouped, want 12 each", pending, grouped)
	}
	if err := st.Close(); err != nil { // every later store write fails
		t.Fatal(err)
	}
	if _, err := brp.RunSchedulingCycle(context.Background(), 10, nil, nil, nil); err == nil {
		t.Fatal("cycle with a closed store succeeded")
	}
	if got := pendingOffers(brp); got != pending {
		t.Errorf("pending after the failed expiry write = %d, want %d", got, pending)
	}
	if got := members(); got != grouped {
		t.Errorf("aggregate members after the failed expiry write = %d, want %d", got, grouped)
	}
	if counts := st.CountOffersByState(); counts[store.OfferAccepted] != 12 {
		t.Errorf("store states = %v, want 12 accepted", counts)
	}
}

// A commit whose store write fails leaves the planning state as it
// was: the offers the commit staged go back into the pipeline as they
// were, so the pending count, the aggregates (IDs, Versions, members)
// and the store's states all match their values before the cycle. The
// offers do not expire and the store closes before the cycle, so the
// commit's UpdateOffers is the cycle's first store write (the intake
// barrier writes nothing). A node reopened over the directory then
// plans every offer.
func TestFailedCommitWriteKeepsPipeline(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Name: "brp1", Store: st, AggParams: agg.ParamsP3, SchedOpts: sched.Options{MaxIterations: 3, Seed: 1}}
	brp := mustNode(t, nil, cfg)
	const offers = 12
	for i := 1; i <= offers; i++ {
		es := flexoffer.Time(40 + 4*(i%3))
		if d := brp.AcceptOffer(testOffer(flexoffer.ID(i), es, 16, 4, 5), "p1"); !d.Accept {
			t.Fatalf("offer %d rejected: %s", i, d.Reason)
		}
	}
	drain(t, brp)
	type state struct {
		pending  int
		versions map[flexoffer.ID]uint64
		members  int
		counts   map[store.OfferState]int
	}
	read := func() state {
		s := state{pending: pendingOffers(brp), versions: map[flexoffer.ID]uint64{}, counts: st.CountOffersByState()}
		for _, a := range aggregates(brp) {
			s.versions[a.Offer.ID] = a.Version
			s.members += a.NumMembers()
		}
		return s
	}
	before := read()
	if before.pending != offers || before.members != offers || before.counts[store.OfferAccepted] != offers {
		t.Fatalf("before: %+v, want %d pending, grouped and accepted", before, offers)
	}
	if err := st.Close(); err != nil { // every later store write fails
		t.Fatal(err)
	}
	if _, err := brp.RunSchedulingCycle(context.Background(), 10, nil, nil, nil); err == nil {
		t.Fatal("cycle with a closed store succeeded")
	}
	if after := read(); !reflect.DeepEqual(after, before) {
		t.Errorf("after the failed commit write: %+v, want %+v", after, before)
	}

	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st2.Close() })
	cfg.Store = st2
	reopened := mustNode(t, nil, cfg)
	rep, err := reopened.RunSchedulingCycle(context.Background(), 10, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Offers != offers || rep.MicroSchedules != offers || rep.Reconciled != 0 {
		t.Errorf("reopened cycle = %+v, want all %d offers planned", rep, offers)
	}
	if counts := st2.CountOffersByState(); counts[store.OfferScheduled] != offers {
		t.Errorf("reopened store states = %v, want %d scheduled", counts, offers)
	}
}

// A search that ends without a solution fails the cycle with an error
// and leaves the offers pending: a demand forecast with a NaN slot,
// which the problem's validation refuses, and a time budget that runs
// out before the first restart. Both used to panic on the nil solution.
func TestCycleWithoutSolutionErrors(t *testing.T) {
	nan := make(StaticForecast, flexoffer.SlotsPerDay)
	nan[17] = math.NaN()
	for _, tc := range []struct {
		name     string
		opts     sched.Options
		demandFc forecaster
	}{
		{"NaN demand forecast", sched.Options{MaxIterations: 3, Seed: 1}, nan},
		{"budget spent before the first restart", sched.Options{TimeBudget: time.Nanosecond, Seed: 1}, nil},
	} {
		brp := mustNode(t, nil, Config{Name: "brp1", AggParams: agg.ParamsP3, SchedOpts: tc.opts})
		for i := 1; i <= 4; i++ {
			if d := brp.AcceptOffer(testOffer(flexoffer.ID(i), 40, 16, 4, 5), "p1"); !d.Accept {
				t.Fatalf("%s: offer %d rejected: %s", tc.name, i, d.Reason)
			}
		}
		drain(t, brp)
		if rep, err := brp.RunSchedulingCycle(context.Background(), 10, tc.demandFc, nil, nil); err == nil {
			t.Errorf("%s: cycle succeeded: %+v", tc.name, rep)
		}
		if got := pendingOffers(brp); got != 4 {
			t.Errorf("%s: %d offers pending after the failed cycle, want 4", tc.name, got)
		}
	}
}

// TestCyclePhasesCoverTheCycle: at the benchmark cycle's shape (5,000
// offers into ParamsP3 aggregates on a durable store), the phases a
// CycleReport times never add up to more than the cycle's wall time and
// cover at least 90 % of it. A cycle whose coverage falls short is run
// again, up to three rounds, since a preemption between two phases is
// the host's, not the report's; a sum above the wall time fails at once.
func TestCyclePhasesCoverTheCycle(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	brp := mustNode(t, nil, Config{Name: "brp1", Store: st, AggParams: agg.ParamsP3,
		SchedOpts: sched.Options{MaxIterations: 50, Seed: 7}})
	baseline := StaticForecast(cycleBaseline())
	var best float64
	for round := 0; round < 3 && best < 0.9; round++ {
		now := flexoffer.Time((round + 1) * flexoffer.SlotsPerDay)
		offers := cycleOffers(now)
		for i, f := range offers {
			f.ID = flexoffer.ID(round*len(offers) + i + 1)
			if d := brp.AcceptOffer(f, "p"+strconv.Itoa(i%50)); !d.Accept {
				t.Fatalf("offer %d rejected: %s", f.ID, d.Reason)
			}
		}
		t0 := time.Now()
		rep, err := brp.RunSchedulingCycle(context.Background(), now, baseline, nil, nil)
		wall := time.Since(t0)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Aggregates < 10 || rep.MicroSchedules < len(offers)/2 {
			t.Fatalf("round %d planned %d aggregates and %d micro schedules for %d offers; not the cycle's shape",
				round, rep.Aggregates, rep.MicroSchedules, len(offers))
		}
		sum := rep.IngestDrainTime + rep.ExpiryTime + rep.AggregationTime + rep.ProblemTime +
			rep.SchedulingTime + rep.DisaggregationTime + rep.CommitTime + rep.DeliveryTime
		if sum > wall {
			t.Fatalf("round %d: the phases sum to %v, more than the cycle's %v: %+v", round, sum, wall, rep)
		}
		cover := float64(sum) / float64(wall)
		t.Logf("round %d: %d aggregates, %d micro schedules; phases cover %v of %v (%.1f %%)",
			round, rep.Aggregates, rep.MicroSchedules, sum, wall, 100*cover)
		best = max(best, cover)
	}
	if best < 0.9 {
		t.Errorf("the phases cover at most %.1f %% of the cycle's wall time, want at least 90 %%", 100*best)
	}
}

// TestCyclePlanQuality: at the benchmark cycle's shape (cyclePlanProblem)
// and its 1,000-pass budget, the node's planner on seeds 7, 11 and 3
// plans at most 0.26 of the baseline cost and no dearer than GS at
// 1,000 restarts. A node cycle over the same offers, which go through
// negotiation and so plan their own problem, reports the cost
// Problem.Evaluate gives the plan it delivers, to the last bit.
func TestCyclePlanQuality(t *testing.T) {
	p := cyclePlanProblem(t)
	base := p.BaselineCost()
	now, end := p.Start, p.Start+flexoffer.Time(p.Slots)
	for _, seed := range []int64{7, 11, 3} {
		opt := sched.Options{MaxIterations: 1000, Seed: seed, TimeBudget: time.Minute}
		res, err := (&sched.Sweep{}).Schedule(context.Background(), p, opt)
		if err != nil {
			t.Fatal(err)
		}
		gs, err := (&sched.RandomizedGreedy{}).Schedule(context.Background(), p, opt)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("seed %d: %.4f of baseline in %d passes; GS %.4f", seed, res.Cost/base, res.Iterations, gs.Cost/base)
		if res.Cost > 0.26*base {
			t.Errorf("seed %d: plan costs %.4f of baseline, want at most 0.26", seed, res.Cost/base)
		}
		if res.Cost > gs.Cost {
			t.Errorf("seed %d: plan costs %v, GS at 1,000 restarts %v", seed, res.Cost, gs.Cost)
		}

		brp := mustNode(t, nil, Config{Name: "brp1", AggParams: agg.ParamsP3, SchedOpts: opt})
		for i, f := range cycleOffers(now) {
			if d := brp.AcceptOffer(f, "p"+strconv.Itoa(i%50)); !d.Accept {
				t.Fatalf("offer %d rejected: %s", f.ID, d.Reason)
			}
		}
		drain(t, brp)
		var planned []*agg.Aggregate
		for _, a := range aggregates(brp) {
			if a.Offer.LatestStart >= now && a.Offer.LatestEnd() <= end {
				planned = append(planned, a)
			}
		}
		np := buildProblem(now, p.Slots, planned, StaticForecast(cycleBaseline()), nil, nil)
		rep, err := brp.RunSchedulingCycle(context.Background(), now, StaticForecast(cycleBaseline()), nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if rep.BaselineCost != np.BaselineCost() {
			t.Fatalf("seed %d: the cycle planned from baseline cost %v, its aggregates give %v", seed, rep.BaselineCost, np.BaselineCost())
		}
		plan, err := (&sched.Sweep{}).Schedule(context.Background(), np, opt)
		if err != nil {
			t.Fatal(err)
		}
		if want := np.Evaluate(plan.Solution); rep.ScheduleCost != want {
			t.Errorf("seed %d: the cycle reports cost %v, Evaluate of its plan %v", seed, rep.ScheduleCost, want)
		}
	}
}

// TestCycleIndependentOfCores: one cycle-shaped round at GOMAXPROCS 1,
// 2 and 4 comes out the same. cycleOffers are stored as accepted
// offers on a durable store, a node over it re-admits them and
// aggregates them, and the cycle plans two slots after their planning
// time, so its expiry takes members out of built aggregates before it
// plans every aggregate. Every run must build the same aggregates (IDs,
// Versions, members and combined offers to the bit), report the same
// cycle — ScheduleCost to the bit, aggregates, micro schedules,
// expiries — and write the same wal.log byte for byte.
func TestCycleIndependentOfCores(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	now := flexoffer.Time(flexoffer.SlotsPerDay)
	offers := cycleOffers(now)
	type outcome struct {
		built                              []string
		cost                               uint64
		offers, aggregates, micro, expired int
		wal                                []byte
	}
	run := func(procs int) outcome {
		runtime.GOMAXPROCS(procs)
		dir := t.TempDir()
		st, err := store.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		b := store.NewBatch()
		for i, f := range offers {
			b.PutOffer(store.OfferRecord{Offer: f, Owner: "p" + strconv.Itoa(i%50), State: store.OfferAccepted})
		}
		if err := st.ApplyBatch(b); err != nil {
			t.Fatal(err)
		}
		n, err := NewNode(Config{Name: "brp1", Store: st, AggParams: agg.ParamsP3,
			SchedOpts: sched.Options{MaxIterations: 1000, Seed: 7, TimeBudget: time.Minute}})
		if err != nil {
			t.Fatal(err)
		}
		var built []string
		for _, a := range aggregates(n) {
			built = append(built, fmt.Sprintf("%d v%d %d members %+v %v %v",
				a.Offer.ID, a.Version, a.NumMembers(), *a.Offer, a.TotalMin, a.TotalMax))
		}
		rep, err := n.RunSchedulingCycle(context.Background(), now+2, StaticForecast(cycleBaseline()), nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		out := outcome{built: built, cost: math.Float64bits(rep.ScheduleCost), offers: rep.Offers,
			aggregates: rep.Aggregates, micro: rep.MicroSchedules, expired: rep.Expired}
		if err := n.Close(); err != nil {
			t.Fatal(err)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		if out.wal, err = os.ReadFile(store.WALPath(dir)); err != nil {
			t.Fatal(err)
		}
		return out
	}
	want := run(1)
	t.Logf("%d aggregates built; %d offers, %d planned aggregates, %d micro schedules, %d expired, %d WAL bytes",
		len(want.built), want.offers, want.aggregates, want.micro, want.expired, len(want.wal))
	if want.aggregates < 10 || want.micro < len(offers)/2 || want.expired == 0 {
		t.Fatalf("not the cycle's shape: %d planned aggregates, %d micro schedules, %d expired",
			want.aggregates, want.micro, want.expired)
	}
	for _, procs := range []int{2, 4} {
		got := run(procs)
		if got.cost != want.cost || got.offers != want.offers || got.aggregates != want.aggregates ||
			got.micro != want.micro || got.expired != want.expired {
			t.Errorf("GOMAXPROCS %d: cost %v, %d offers, %d aggregates, %d micro schedules, %d expired; GOMAXPROCS 1: %v, %d, %d, %d, %d",
				procs, math.Float64frombits(got.cost), got.offers, got.aggregates, got.micro, got.expired,
				math.Float64frombits(want.cost), want.offers, want.aggregates, want.micro, want.expired)
		}
		if !slices.Equal(got.built, want.built) {
			t.Errorf("GOMAXPROCS %d built other aggregates than GOMAXPROCS 1", procs)
		}
		if !bytes.Equal(got.wal, want.wal) {
			t.Errorf("GOMAXPROCS %d wrote another wal.log (%d bytes) than GOMAXPROCS 1 (%d bytes)", procs, len(got.wal), len(want.wal))
		}
	}
}
