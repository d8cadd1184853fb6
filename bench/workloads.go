package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sync"
	"time"

	"mirabel/internal/core"
	"mirabel/internal/flexoffer"
	"mirabel/internal/settle"
	"mirabel/internal/store"
)

// workloadInfo names a workload, records why it exists, and says how
// it runs: an optional prepare step (set-up), then rounds — each
// returning how many offers it carried through the workload's whole
// path and how long that took — then the final correctness checks.
type workloadInfo struct {
	name, why string
	prepare   func(*run) error
	round     func(r *run, i int) (through int64, busy time.Duration, err error)
	finish    func(*run)
}

// workloads are the benchmark's four fixed workloads; BENCHMARK.json
// repeats their names and reasons verbatim.
var workloads = []workloadInfo{
	{name: "intake", why: "offers over TCP, no cycles: wire, negotiation, journal and store do all the work; agg, sched and settle do none",
		round: (*run).intakeRound, finish: (*run).checkIntake},
	{name: "cycle", why: "offers loaded in-process, then timed scheduling cycles: aggregate, plan, disaggregate, commit and deliver; the wire carries only notify frames",
		round: (*run).cycleRound, finish: (*run).checkStates},
	{name: "lifecycle", why: "canonical run: offers and meter batches over TCP, cycle, delivery, settlement onto the ledger; every layer in production proportion",
		round: (*run).lifecycleRound, finish: (*run).checkLifecycle},
	{name: "recover", why: "cold reopen of a crashed node's directory: reads the store WAL, ingest journal and ledger the other workloads only write",
		prepare: (*run).crashState, round: (*run).reopen, finish: (*run).checkReopens},
}

func findWorkload(name string) (workloadInfo, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadInfo{}, false
}

// sizes fixes how much work one round of each workload holds.
type sizes struct {
	offersPerRound  int // offers per round of intake, cycle, lifecycle
	batchesPerRound int // acked measurement batches per lifecycle round
	cycleIters      int // sched.Options.MaxIterations on cycle
	lifecycleIters  int // ... on lifecycle and recover
	recoverTail     int // recover: acked offers with no drain barrier before the kill
}

var fullSizes = sizes{
	offersPerRound: 5000, batchesPerRound: 320,
	cycleIters: 1000, lifecycleIters: 200,
	recoverTail: 2500,
}

// setupRepeats is how often a run performs its set-up; setup_s is the
// median, and the run measures on the last one. A set-up ends with one
// round of the workload as warm-up (connections dialled, heap grown,
// lazy paths taken), so the window opens on a node in steady state and
// work a change moves into start-up or first use shows in setup_s.
const setupRepeats = 3

type runConfig struct {
	workload string
	seed     int64
	seconds  float64 // length of the timed window
	// fixed > 0 replaces the window by that many rounds, so two runs of
	// a seed do identical work and their counts can be compared.
	fixed   int
	trace   bool
	sizes   sizes
	workDir string // scratch directory inside the checkout, removed at exit
}

// tally is one client's private account of its closed loop.
type tally struct {
	acks     []time.Duration
	offers   int64 // submitted and accepted
	batches  int64 // measurement batches acked
	refused  int64
	errors   int64
	firstErr error
}

func (t *tally) fail(err error) {
	t.errors++
	if t.firstErr == nil {
		t.firstErr = err
	}
}

// run is one execution of one workload.
type run struct {
	cfg      runConfig
	gen      *generator
	b        *bench
	tr       *tracer // nil when tracing is off
	nc       int
	baseline core.StaticForecast
	stateDir string        // recover: the crashed node's directory
	state    expectedState // recover: what the crashed node held

	setups   []time.Duration
	counters map[string]float64 // the layers' Stats() after the workload (runCounters)
	checks   []check
	account
}

// account is what a run measures and counts. Counters are cumulative
// over the node's life (the correctness gate compares them with the
// node's state); samples cover the timed window only (openWindow).
type account struct {
	tallies           []tally
	attempted, failed int64
	firstErr          error

	committed, delivered, invalid, misrouted, expired, expectExpired, settled, restored, lost, badLedger int64

	rates                    []float64 // per round: offers through ÷ busy seconds
	through                  int64
	busy                     time.Duration
	rounds                   int
	cycles, settles, reopens []time.Duration
	unattributed             []time.Duration // cycle wall − the four reported phases
	peakMem                  uint64
}

// openWindow discards the samples of the warm-up round.
func (r *run) openWindow() {
	for i := range r.tallies {
		r.tallies[i].acks = nil
	}
	r.rates, r.through, r.busy, r.rounds = nil, 0, 0, 0
	r.cycles, r.settles, r.reopens, r.unattributed, r.peakMem = nil, nil, nil, nil, 0
}

// check is one line of the correctness gate.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

func (r *run) require(name string, ok bool, format string, args ...any) {
	c := check{Name: name, OK: ok}
	if !ok {
		c.Detail = fmt.Sprintf(format, args...)
	}
	r.checks = append(r.checks, c)
}

func (r *run) requireEq(name string, got, want int64) {
	r.require(name, got == want, "got %d, want %d", got, want)
}

// op counts one operation of the harness against the node.
func (r *run) op(err error) error {
	r.attempted++
	if err != nil {
		r.fail(err)
	}
	return err
}

// fail counts an operation that completed but broke its contract.
func (r *run) fail(err error) {
	r.failed++
	if r.firstErr == nil {
		r.firstErr = err
	}
}

func (r *run) maxIter() int {
	if r.cfg.workload == "cycle" {
		return r.cfg.sizes.cycleIters
	}
	return r.cfg.sizes.lifecycleIters
}

// execute performs the set-ups, then rounds of the workload until the
// window has passed, then the final correctness gate.
func execute(cfg runConfig, nclients int) (*run, error) {
	w, ok := findWorkload(cfg.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	r := &run{cfg: cfg, nc: nclients}
	defer r.teardown()
	for i := 0; i < setupRepeats; i++ {
		r.teardown()
		t0 := clock()
		if err := r.setup(w, i); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		r.setups = append(r.setups, clock()-t0)
	}
	if cfg.trace {
		r.tr = newTracer(nclients)
	}
	deadline := clock() + time.Duration(cfg.seconds*float64(time.Second))
	for i := 1; ; i++ { // round 0 was the warm-up
		if cfg.fixed > 0 && r.rounds >= cfg.fixed || cfg.fixed <= 0 && clock() >= deadline {
			break
		}
		through, busy, err := w.round(r, i)
		if err != nil {
			return nil, err
		}
		r.rates = append(r.rates, float64(through)/busy.Seconds())
		r.through += through
		r.busy += busy
		r.rounds++
		r.sampleMem()
	}
	w.finish(r)
	for i := range r.tallies {
		t := &r.tallies[i]
		r.attempted += t.offers + t.batches + t.refused + t.errors
		r.failed += t.refused + t.errors
		if r.firstErr == nil {
			r.firstErr = t.firstErr
		}
	}
	r.requireEq("operations that failed or were refused", r.failed, 0)
	if r.b.node != nil {
		r.counters = runCounters(r.b)
	}
	return r, nil
}

// setup builds the inputs and starts the system — generator, owner
// endpoints, the node over a fresh directory, the workload's prepare
// step — and runs round 0 as warm-up.
func (r *run) setup(w workloadInfo, attempt int) error {
	r.gen = newGenerator(r.cfg.seed)
	r.baseline = baseline()
	r.account = account{tallies: make([]tally, r.nc)}
	owners, err := startOwners(r.nc)
	if err != nil {
		return err
	}
	dir := filepath.Join(r.cfg.workDir, fmt.Sprintf("node-%d", attempt))
	b, _, err := openNode(dir, r.cfg.seed, r.maxIter(), owners)
	if err != nil {
		for _, o := range owners {
			o.close()
		}
		return err
	}
	r.b = b
	if w.prepare != nil {
		if err := w.prepare(r); err != nil {
			return err
		}
	}
	if _, _, err := w.round(r, 0); err != nil {
		return err
	}
	r.openWindow()
	return nil
}

// teardown stops whatever the last set-up started.
func (r *run) teardown() {
	if r.b == nil {
		return
	}
	if r.b.node != nil {
		r.b.kill()
	}
	for _, o := range r.b.owners {
		o.close()
	}
	r.b = nil
	_ = os.RemoveAll(r.cfg.workDir)
}

// sampleMem notes the process's mapped memory at a round boundary.
func (r *run) sampleMem() {
	sample := []metrics.Sample{{Name: "/memory/classes/total:bytes"}, {Name: "/memory/classes/heap/released:bytes"}}
	metrics.Read(sample)
	if m := sample[0].Value.Uint64() - sample[1].Value.Uint64(); m > r.peakMem {
		r.peakMem = m
	}
}

// acked sums what the node has acked to the clients.
func (r *run) acked() (offers, batches int64) {
	for i := range r.tallies {
		offers += r.tallies[i].offers
		batches += r.tallies[i].batches
	}
	return
}

// acks merges the clients' ack latencies of the timed window.
func (r *run) acks() []time.Duration {
	var out []time.Duration
	for i := range r.tallies {
		out = append(out, r.tallies[i].acks...)
	}
	return out
}

// share returns the first index k ≥ k0 that client c owns (k ≡ c mod
// clients): offer k always belongs to, and is delivered back to, owner
// k mod clients.
func (r *run) share(c, k0 int) int { return k0 + (c-k0%r.nc+r.nc)%r.nc }

// drive runs every client's closed loop at once and waits for them.
// Client c submits its share of the offers [k0, k0+n), re-based onto
// planAt, and spreads its share of the m measurement batches from q0
// evenly between them. It returns the wall time of the segment.
func (r *run) drive(round int, planAt flexoffer.Time, k0, n, q0, m int, parent int64) time.Duration {
	ctx := context.Background()
	t0 := clock()
	var wg sync.WaitGroup
	for c := range r.b.owners {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			o, t, ln := r.b.owners[c], &r.tallies[c], r.tr.laneFor(c+1)
			me := ln.begin("client", parent, round)
			defer ln.end(me)
			first := r.share(c, k0)
			myOffers := (k0 + n - first + r.nc - 1) / r.nc
			myBatches := (m - c + r.nc - 1) / r.nc
			sent := 0
			report := func() {
				reports := r.gen.batch(q0 + c + sent*r.nc)
				sent++
				s := clock()
				err := o.rpc.ReportMeasurementsAcked(ctx, brpName, reports)
				ln.add("report", me, round, s, clock(), "harness")
				if err != nil {
					t.fail(err)
					return
				}
				t.batches++
			}
			for i := 0; i < myOffers; i++ {
				f := r.gen.offer(first+i*r.nc, planAt)
				s := clock()
				d, err := o.rpc.SubmitOffer(ctx, brpName, f)
				e := clock()
				ln.add("submit", me, round, s, e, "harness")
				switch {
				case err != nil:
					t.fail(err)
				case !d.Accept:
					t.refused++
				default:
					t.offers++
					t.acks = append(t.acks, e-s)
				}
				for sent < myBatches && sent*myOffers < (i+1)*myBatches {
					report()
				}
			}
			for sent < myBatches {
				report()
			}
		}(c)
	}
	wg.Wait()
	return clock() - t0
}

// load feeds the offers [k0, k0+n) to the node in-process, bypassing
// the wire, from one goroutine per client.
func (r *run) load(planAt flexoffer.Time, k0, n int) {
	var wg sync.WaitGroup
	for c := range r.b.owners {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			t := &r.tallies[c]
			for k := r.share(c, k0); k < k0+n; k += r.nc {
				s := clock()
				if d := r.b.node.AcceptOffer(r.gen.offer(k, planAt), r.b.owners[c].name); !d.Accept {
					t.refused++
					continue
				}
				t.offers++
				t.acks = append(t.acks, clock()-s)
			}
		}(c)
	}
	wg.Wait()
}

// expectExpiry predicts how many of the offers [k0, k0+n) the cycle at
// planAt expires.
func (r *run) expectExpiry(planAt flexoffer.Time, k0, n int) {
	for k := k0; k < k0+n; k++ {
		if expiresAt(r.gen.offer(k, planAt), planAt) {
			r.expectExpired++
		}
	}
}

// planAndDeliver times one scheduling cycle from the call until the
// last of its micro schedules has been decoded at an owner endpoint
// (delivery is a fire-and-forget send, so the call returning is not
// delivery), then validates what was delivered.
func (r *run) planAndDeliver(round int, planAt flexoffer.Time, parent int64) (time.Duration, error) {
	ln := r.tr.laneFor(0)
	before := r.b.received()
	t0 := clock()
	rep, err := r.b.node.RunSchedulingCycle(context.Background(), planAt, r.baseline, nil, nil)
	t1 := clock()
	if r.op(err) != nil {
		return 0, fmt.Errorf("cycle %d: %w", round, err)
	}
	want := int64(rep.MicroSchedules - rep.Reconciled)
	end := t1
	if want > 0 {
		last, err := r.b.awaitDelivery(before + want)
		if r.op(err) != nil {
			return 0, fmt.Errorf("cycle %d: %w", round, err)
		}
		if last > end {
			end = last
		}
	}
	r.cycles = append(r.cycles, end-t0)
	r.unattributed = append(r.unattributed, (t1-t0)-(rep.IngestDrainTime+rep.AggregationTime+rep.SchedulingTime+rep.DeliveryTime))

	// The report carries durations, not start times: the first three
	// phases are laid out from the call's start in execution order,
	// delivery (the last thing the call does) against its end.
	id := ln.add("cycle", parent, round, t0, end, "harness")
	at := t0
	for _, p := range []struct {
		name string
		d    time.Duration
	}{{"drain", rep.IngestDrainTime}, {"aggregate", rep.AggregationTime}, {"schedule", rep.SchedulingTime}} {
		ln.add(p.name, id, round, at, at+p.d, "report")
		at += p.d
	}
	ln.add("deliver", id, round, t1-rep.DeliveryTime, t1, "report")
	ln.add("deliver_receive", id, round, t1, end, "harness")

	r.committed += want
	r.expired += int64(rep.Expired)
	if rep.NotifyFailures > 0 || len(rep.SkippedOwners) > 0 || rep.Reconciled > 0 {
		r.fail(fmt.Errorf("cycle %d: %d notify failures, %d skipped owners, %d reconciled", round, rep.NotifyFailures, len(rep.SkippedOwners), rep.Reconciled))
	}
	if rep.SchedulingTime >= schedBudget {
		r.fail(fmt.Errorf("cycle %d: search hit the %v time budget; planning must be bounded by iterations", round, schedBudget))
	}

	ck := ln.begin("check", parent, round)
	per := r.cfg.sizes.offersPerRound
	for c, o := range r.b.owners {
		for _, s := range o.take() {
			k := int(s.OfferID) - 1
			r.delivered++
			if k%r.nc != c {
				r.misrouted++
			}
			if r.gen.offer(k, planSlot(k/per)).ValidateSchedule(s) != nil {
				r.invalid++
			}
		}
	}
	ln.end(ck)
	return end - t0, nil
}

// intakeRound: the clients submit one round of offers over TCP, then
// one drain barrier — work the node deferred past the ack still counts.
// The node never plans, so every round re-bases onto the same slot.
func (r *run) intakeRound(i int) (int64, time.Duration, error) {
	ln := r.tr.laneFor(0)
	per := r.cfg.sizes.offersPerRound
	before, _ := r.acked()
	root := ln.begin("round", 0, i)
	defer ln.end(root)
	in := ln.begin("intake", root, i)
	busy := r.drive(i, planSlot(0), i*per, per, 0, 0, in)
	ln.end(in)
	t0 := clock()
	err := r.op(r.b.node.DrainIngest(context.Background()))
	ln.add("drain", root, i, t0, clock(), "harness")
	busy += clock() - t0
	after, _ := r.acked()
	return after - before, busy, err
}

func (r *run) checkIntake() {
	offers, _ := r.acked()
	states := r.b.node.Store().CountOffersByState()
	r.requireEq("every acked offer is in the store as accepted", int64(states[store.OfferAccepted]), offers)
	r.requireEq("the store holds nothing but the acked offers", int64(r.b.node.Store().Stats().Offers), offers)
}

// cycleRound: one round of offers goes in in-process (untimed), then
// the scheduling cycle is timed through to delivery.
func (r *run) cycleRound(i int) (int64, time.Duration, error) {
	ln := r.tr.laneFor(0)
	per, planAt := r.cfg.sizes.offersPerRound, planSlot(i)
	root := ln.begin("round", 0, i)
	defer ln.end(root)
	ld := ln.begin("load", root, i)
	r.load(planAt, i*per, per)
	ln.end(ld)
	r.expectExpiry(planAt, i*per, per)
	before := r.delivered
	d, err := r.planAndDeliver(i, planAt, root)
	return r.delivered - before, d, err
}

// lifecycleRound is the canonical unit of work: offers and meter
// batches over TCP, one scheduling cycle, delivery, settlement. What it
// carried through is every offer that reached a terminal state:
// executed on the ledger, or expired.
func (r *run) lifecycleRound(i int) (int64, time.Duration, error) {
	ln := r.tr.laneFor(0)
	sz, planAt := r.cfg.sizes, planSlot(i)
	root := ln.begin("round", 0, i)
	defer ln.end(root)

	in := ln.begin("intake", root, i)
	busy := r.drive(i, planAt, i*sz.offersPerRound, sz.offersPerRound, i*sz.batchesPerRound, sz.batchesPerRound, in)
	ln.end(in)
	r.expectExpiry(planAt, i*sz.offersPerRound, sz.offersPerRound)

	delivered, terminal := r.delivered, r.settled+r.expired
	d, err := r.planAndDeliver(i, planAt, root)
	if err != nil {
		return 0, 0, err
	}
	busy += d

	t0 := clock()
	rep, err := r.b.node.SettleExecuted(nil, settle.Config{})
	t1 := clock()
	ln.add("settle", root, i, t0, t1, "harness")
	if r.op(err) != nil {
		return 0, 0, fmt.Errorf("settle %d: %w", i, err)
	}
	r.settles = append(r.settles, t1-t0)
	busy += t1 - t0
	r.settled += int64(len(rep.Lines))
	if got, want := int64(len(rep.Lines)), r.delivered-delivered; got != want {
		r.fail(fmt.Errorf("settle %d: %d lines for %d delivered schedules", i, got, want))
	}
	return r.settled + r.expired - terminal, busy, nil
}

// checkStates is the partition the correctness gate demands: the acked
// offers are exactly the scheduled, executed and expired offers of the
// store, nothing is left pending, and what was delivered is what was
// committed, valid and at the right owner.
func (r *run) checkStates() {
	offers, batches := r.acked()
	states := r.b.node.Store().CountOffersByState()
	scheduled, executed, expired := int64(states[store.OfferScheduled]), int64(states[store.OfferExecuted]), int64(states[store.OfferExpired])
	r.requireEq("acked offers = scheduled + executed + expired", scheduled+executed+expired, offers)
	r.requireEq("offers left accepted but unplanned", int64(states[store.OfferAccepted]), 0)
	r.requireEq("executed offers = settled lines", executed, r.settled)
	r.requireEq("scheduled offers = committed − settled", scheduled, r.committed-r.settled)
	r.requireEq("expired offers = the cycles' expiry counts", expired, r.expired)
	r.requireEq("expired offers = the generator's prediction", r.expired, r.expectExpired)
	r.requireEq("delivered schedules = committed micro schedules", r.delivered, r.committed)
	r.requireEq("delivered schedules that fail ValidateSchedule", r.invalid, 0)
	r.requireEq("schedules delivered to the wrong owner", r.misrouted, 0)
	r.require("at least 95% of offers are schedulable at their round's planning time", float64(r.expired) <= 0.05*float64(offers), "%d of %d expired", r.expired, offers)
	r.requireEq("acked facts are in the store", int64(r.b.node.Store().Stats().Measurements), batches*factsPerBatch)
}

func (r *run) checkLifecycle() {
	r.checkStates()
	v, err := r.b.node.Ledger().Verify()
	r.require("ledger chain verifies", err == nil && v.OK, "err=%v reason=%q at seq %d", err, v.Reason, v.FirstBadSeq)
	ls, _ := r.b.node.LedgerStats()
	r.requireEq("ledger settled offers = settled lines", int64(ls.SettledOffers), r.settled)
	r.requireEq("ledger entries verified = ledger entries", int64(v.Entries), int64(ls.Entries))
}

// expectedState is what a reopened copy of the crashed node must hold.
type expectedState struct {
	offers, facts, accepted, scheduled, executed, expired, ledgerEntries int64
}

// crashState builds the directory recover reopens: one lifecycle round,
// then more acked offers with no drain barrier, then a kill.
func (r *run) crashState() error {
	sz := r.cfg.sizes
	if _, _, err := r.lifecycleRound(0); err != nil {
		return err
	}
	r.drive(1, planSlot(1), sz.offersPerRound, sz.recoverTail, 0, 0, 0)
	// No Drain (it would truncate the journal the reopen is meant to
	// replay); just let the consumers finish, so the WAL and the journal
	// hold the same bytes on every run of a seed.
	for deadline := clock() + opTimeout; ; {
		st, _ := r.b.node.IngestStats()
		if st.Consumed == st.Enqueued {
			break
		}
		if clock() > deadline {
			return fmt.Errorf("ingest consumers did not catch up: %d of %d", st.Consumed, st.Enqueued)
		}
		time.Sleep(time.Millisecond)
	}
	offers, batches := r.acked()
	states := r.b.node.Store().CountOffersByState()
	ls, _ := r.b.node.LedgerStats()
	r.state = expectedState{
		offers: offers, facts: batches * factsPerBatch,
		accepted: int64(states[store.OfferAccepted]), scheduled: int64(states[store.OfferScheduled]),
		executed: int64(states[store.OfferExecuted]), expired: int64(states[store.OfferExpired]),
		ledgerEntries: int64(ls.Entries),
	}
	switch {
	case r.failed > 0:
		return fmt.Errorf("crash state: %d operations failed, first: %w", r.failed, r.firstErr)
	case r.state.accepted != int64(sz.recoverTail) || r.state.offers != r.state.accepted+r.state.scheduled+r.state.executed+r.state.expired:
		return fmt.Errorf("crash state: %+v does not partition %d acked offers", r.state, offers)
	}
	r.stateDir = r.b.dir
	r.b.kill()
	r.b.node = nil
	// The reopened copies are new nodes: their accounts start empty.
	r.account = account{tallies: make([]tally, r.nc)}
	return nil
}

// reopen times one cold start of a fresh copy of the crashed directory:
// from store.Open through core.NewNode (WAL, journal and ledger replay)
// and ListenTCP to the first offer acked over the wire and a completed
// drain — the moment the node is demonstrably back.
func (r *run) reopen(i int) (int64, time.Duration, error) {
	ln := r.tr.laneFor(0)
	ctx := context.Background()
	owners := r.b.owners
	dir := filepath.Join(r.cfg.workDir, fmt.Sprintf("reopen-%d", i))
	if err := copyDir(r.stateDir, dir); err != nil {
		return 0, 0, err
	}
	defer os.RemoveAll(dir)

	t0 := clock()
	b, up, err := openNode(dir, r.cfg.seed, r.maxIter(), owners)
	if r.op(err) != nil {
		return 0, 0, fmt.Errorf("reopen %d: %w", i, err)
	}
	r.b = b
	defer func() {
		r.counters = runCounters(b)
		b.kill()
		b.node = nil
	}()
	t1 := clock()
	fresh := r.gen.offer(2*r.cfg.sizes.offersPerRound+i, planSlot(2)) // an index the crashed node never saw
	d, err := owners[0].rpc.SubmitOffer(ctx, brpName, fresh)
	t2 := clock()
	if err == nil && !d.Accept {
		err = fmt.Errorf("refused: %s", d.Reason)
	}
	if r.op(err) != nil {
		return 0, 0, fmt.Errorf("reopen %d: first offer: %w", i, err)
	}
	if err := r.op(b.node.DrainIngest(ctx)); err != nil {
		return 0, 0, fmt.Errorf("reopen %d: drain: %w", i, err)
	}
	t3 := clock()
	r.reopens = append(r.reopens, t3-t0)
	id := ln.add("reopen", 0, i, t0, t3, "harness")
	ln.add("store_open", id, i, t0, up.storeOpen, "harness")
	ln.add("new_node", id, i, up.storeOpen, up.newNode, "harness")
	ln.add("listen", id, i, up.newNode, t1, "harness")
	ln.add("first_ack", id, i, t1, t2, "harness")
	ln.add("drain", id, i, t2, t3, "harness")

	// Zero loss: everything the crashed node had acked is back.
	st, states := b.node.Store().Stats(), b.node.Store().CountOffersByState()
	ls, _ := b.node.LedgerStats()
	got := expectedState{
		offers: int64(st.Offers) - 1, facts: int64(st.Measurements),
		accepted: int64(states[store.OfferAccepted]) - 1, scheduled: int64(states[store.OfferScheduled]),
		executed: int64(states[store.OfferExecuted]), expired: int64(states[store.OfferExpired]),
		ledgerEntries: int64(ls.Entries),
	}
	if got != r.state || int64(b.node.RecoveredPending()) != r.state.accepted {
		r.lost++
		r.fail(fmt.Errorf("reopen %d: recovered %+v (pending %d), crashed node held %+v", i, got, b.node.RecoveredPending(), r.state))
	}
	if v, err := b.node.Ledger().Verify(); err != nil || !v.OK || int64(v.Entries) != r.state.ledgerEntries {
		r.badLedger++
	}
	r.restored += r.state.offers
	return r.state.offers, t3 - t0, nil
}

func (r *run) checkReopens() {
	r.requireEq("reopens that lost an acked offer, fact or ledger entry", r.lost, 0)
	r.requireEq("reopens whose ledger chain failed to verify", r.badLedger, 0)
}

// copyDir copies the regular files of src into a fresh dst.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		if err := copyFile(filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
