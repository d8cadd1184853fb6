package main

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"mirabel/internal/agg"
	"mirabel/internal/chaos"
	"mirabel/internal/comm"
	"mirabel/internal/core"
	"mirabel/internal/devices"
	"mirabel/internal/flexoffer"
	"mirabel/internal/ingest"
	"mirabel/internal/obs"
	"mirabel/internal/prosumer"
	"mirabel/internal/sched"
	"mirabel/internal/settle"
	"mirabel/internal/store"
)

// simConfig parameterizes one chaos-capable population run.
type simConfig struct {
	Prosumers     int
	BRPs          int
	Shards        int // worker goroutines driving the prosumer population
	Cycles        int
	SlotsPerCycle int
	StartSlot     int // event-time slot the first cycle begins at (households are most active 17:00-23:00)
	Seed          int64
	Faults        string  // chaos schedule (chaos.ParseSchedule syntax)
	Churn         float64 // per-household per-cycle probability of leaving mid-contract
	Budget        time.Duration
	Iters         int           // cap on each search's passes (0 = none; the search ends on its own)
	Pace          time.Duration // wall-clock duration of one event-time slot (0 = free-running)
	Dir           string        // durable state root, one subdirectory per BRP
	MeasureEvery  int           // every Nth household sends an acked measurement batch per cycle
	Logf          func(format string, args ...any)
}

func (c *simConfig) fill() {
	if c.Prosumers <= 0 {
		c.Prosumers = 1000
	}
	if c.BRPs <= 0 {
		c.BRPs = 2
	}
	if c.Shards <= 0 {
		c.Shards = 4
	}
	if c.Shards > c.Prosumers {
		c.Shards = c.Prosumers
	}
	if c.Cycles <= 0 {
		c.Cycles = 8
	}
	if c.SlotsPerCycle <= 0 {
		c.SlotsPerCycle = 4
	}
	if c.Budget <= 0 {
		c.Budget = 500 * time.Millisecond
	}
	if c.MeasureEvery <= 0 {
		c.MeasureEvery = 8
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
}

// simResult is the end-of-run report: throughput, latency, degradation
// counters and — the point of the exercise — the durability verdicts.
type simResult struct {
	Elapsed time.Duration
	Cycles  int

	OffersSubmitted uint64 // submission attempts (including re-offers)
	OffersAcked     uint64 // decisions received: the offer record is in the BRP's WAL
	OffersAccepted  uint64
	OffersFailed    uint64 // submissions with no decision (dropped, partitioned, node down)
	Reoffered       uint64 // failed submissions re-issued under a fresh ID
	MeasAcked       uint64 // measurement facts acked by a BRP
	MeasFailed      uint64 // batches that never got their ack

	SchedulesDelivered uint64 // distinct offers the shard endpoints hold a schedule for
	NotifiesRefused    uint64 // schedule notifies a shard endpoint refused: misdeliveries
	MicroSchedules     int
	Expired            int
	NotifyFailures     int
	CycleErrors        int
	CycleLatency       obs.Histogram // full-cycle latency (ns), one sample per node-cycle
	// CyclePhases holds one histogram per reported cycle phase (ns), in
	// cyclePhaseNames order, one sample per node-cycle.
	CyclePhases [len(cyclePhaseNames)]obs.Histogram
	// PlanCostRatios holds, per node-cycle that planned an aggregate
	// against a positive baseline cost, the plan's cost ÷ that baseline
	// cost, in no particular order.
	PlanCostRatios []float64

	ChurnLeft        uint64 // households that left mid-contract
	ChurnDeferred    uint64 // departures queued because their BRP was down
	CancelledOffers  int
	CancelPenaltyEUR float64
	RecoveredPending int // accepted offers re-admitted to planning across restarts

	Injectors  map[string]chaos.Stats
	Controller chaos.ControllerStats
	Retry      map[string]comm.RetryStats
	Ingest     map[string]ingest.Stats
	Ledgers    map[string]settle.VerifyResult
	// LedgerHeads and OfferStates are each BRP's end state: the hash
	// sealing its whole settlement chain, and its store's offers by
	// lifecycle state.
	LedgerHeads map[string]string
	OfferStates map[string]map[store.OfferState]int

	LostOffers       []string // acked offers missing from their BRP store after recovery
	LostMeasurements []string // acked measurement facts missing after recovery
}

// cyclePhaseNames names the phases a core.CycleReport times, in the
// order a cycle runs them.
var cyclePhaseNames = [...]string{"drain", "expiry", "aggregation", "problem", "search", "disaggregation", "commit", "delivery"}

// cyclePhases lists rep's phase times in cyclePhaseNames order.
func cyclePhases(rep *core.CycleReport) [len(cyclePhaseNames)]time.Duration {
	return [...]time.Duration{rep.IngestDrainTime, rep.ExpiryTime, rep.AggregationTime, rep.ProblemTime,
		rep.SchedulingTime, rep.DisaggregationTime, rep.CommitTime, rep.DeliveryTime}
}

// OffersPerSec is acked-offer throughput over the whole run.
func (r *simResult) OffersPerSec() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.OffersAcked) / r.Elapsed.Seconds()
}

// SchedulesPerSec is delivered-schedule throughput over the whole run.
func (r *simResult) SchedulesPerSec() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.SchedulesDelivered) / r.Elapsed.Seconds()
}

// simHousehold binds one stateful household to its balance group.
type simHousehold struct {
	h    *devices.Household
	brp  int
	left bool
}

// shard drives one slice of the population on its own goroutine. All
// submissions within a shard are sequential, so each (shard, BRP) fate
// lane in the chaos injector sees a deterministic op stream. Its
// prosumer endpoint submits its households' offers and takes their
// schedules.
type shard struct {
	idx    int
	name   string
	inj    *chaos.Injector
	client *comm.Client
	ep     *prosumer.Endpoint

	members []int // global household indices

	reoffers   []*flexoffer.FlexOffer
	reofferTo  []int
	reofferSeq uint64

	// Counters below are owned by the shard's worker goroutine.
	submitted, acked, accepted, failed, reoffered uint64
	measAcked, measFailed                         uint64

	ackedOffers map[int][]flexoffer.ID              // BRP index -> acked offer IDs
	ackedMeas   map[int]map[string][]flexoffer.Time // BRP index -> actor -> acked slots
}

type sim struct {
	cfg      simConfig
	bus      *comm.Bus
	sched    *chaos.Schedule
	ctl      *chaos.Controller
	baseline []float64

	hh     []*simHousehold
	shards []*shard

	brps   []*core.Node
	brpInj []*chaos.Injector
	down   []bool

	churnRNG *rand.Rand
	deferred []int // household indices whose cancellation awaits their BRP's return

	// Residual stats of killed node incarnations, folded into the final
	// report alongside the live nodes' counters.
	residRetry  map[string]comm.RetryStats
	residIngest map[string]ingest.Stats

	res simResult
	mu  sync.Mutex // guards res fields written from BRP cycle goroutines
}

func brpName(i int) string { return fmt.Sprintf("brp-%d", i) }

// laneSeed derives a per-node injector seed (FNV-1a over the name mixed
// into the run seed) so every node draws an independent fate stream.
func laneSeed(seed int64, name string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	return uint64(seed) ^ h
}

// runSim executes one population run and returns its report. A cancelled
// context stops the cycle loop early; recovery, verification and the
// report still run over the work completed so far.
func runSim(ctx context.Context, cfg simConfig) (*simResult, error) {
	cfg.fill()
	faults, err := chaos.ParseSchedule(cfg.Faults)
	if err != nil {
		return nil, err
	}
	s := &sim{
		cfg:         cfg,
		bus:         comm.NewBus(),
		sched:       faults,
		churnRNG:    rand.New(rand.NewSource(cfg.Seed ^ 0x5eed)),
		residRetry:  make(map[string]comm.RetryStats),
		residIngest: make(map[string]ingest.Stats),
	}
	s.res.Injectors = make(map[string]chaos.Stats)
	s.res.Retry = make(map[string]comm.RetryStats)
	s.res.Ingest = make(map[string]ingest.Stats)
	s.res.Ledgers = make(map[string]settle.VerifyResult)
	s.res.LedgerHeads = make(map[string]string)
	s.res.OfferStates = make(map[string]map[store.OfferState]int)

	// Baseline balance with a renewable night/noon surplus, long enough
	// to cover every cycle's horizon.
	s.baseline = make([]float64, cfg.StartSlot+cfg.Cycles*cfg.SlotsPerCycle+flexoffer.SlotsPerDay)
	for t := range s.baseline {
		hour := (t / flexoffer.SlotsPerHour) % 24
		switch {
		case hour < 6:
			s.baseline[t] = -60
		case hour >= 11 && hour < 15:
			s.baseline[t] = -40
		default:
			s.baseline[t] = 15
		}
	}

	// The population: stateful households sharded across workers, each
	// assigned to a balance group round-robin.
	fleet := devices.NewFleet(cfg.Prosumers, cfg.Seed)
	s.hh = make([]*simHousehold, len(fleet.Households))
	for i, h := range fleet.Households {
		s.hh[i] = &simHousehold{h: h, brp: i % cfg.BRPs}
	}

	// Shard endpoints: each worker is also the delivery target for its
	// households' micro schedules, from whichever BRP each offer went to.
	var injectors []*chaos.Injector
	s.shards = make([]*shard, cfg.Shards)
	for i := range s.shards {
		sh := &shard{
			idx:         i,
			name:        fmt.Sprintf("shard-%d", i),
			ackedOffers: make(map[int][]flexoffer.ID),
			ackedMeas:   make(map[int]map[string][]flexoffer.Time),
		}
		sh.inj = chaos.NewInjector(s.bus, laneSeed(cfg.Seed, sh.name), faults.Faults)
		rt := comm.NewRetry(sh.inj, comm.RetryConfig{
			Seed: cfg.Seed + int64(i), BaseBackoff: 2 * time.Millisecond, MaxBackoff: 50 * time.Millisecond,
		})
		sh.client = comm.NewClient(sh.name, rt)
		sh.ep = prosumer.New(sh.name, sh.client)
		s.bus.Register(sh.name, sh.ep.Handler())
		injectors = append(injectors, sh.inj)
		s.shards[i] = sh
	}
	// Contiguous blocks per shard: with round-robin BRP assignment this
	// gives every shard members in every balance group, so a partition
	// or crash of one BRP degrades all shards a little rather than one
	// shard completely.
	for i := range s.hh {
		sh := s.shards[i*cfg.Shards/len(s.hh)]
		sh.members = append(sh.members, i)
	}

	// The balance groups: durable BRP nodes behind per-node injectors.
	s.brps = make([]*core.Node, cfg.BRPs)
	s.brpInj = make([]*chaos.Injector, cfg.BRPs)
	s.down = make([]bool, cfg.BRPs)
	for i := range s.brps {
		s.brpInj[i] = chaos.NewInjector(s.bus, laneSeed(cfg.Seed, brpName(i)), faults.Faults)
		injectors = append(injectors, s.brpInj[i])
		if err := s.startBRP(i); err != nil {
			return nil, err
		}
	}

	// The chaos controller drives partitions and crash/restart against
	// every injector and node.
	s.ctl = chaos.NewController(faults, injectors...)
	for i := range s.brps {
		i := i
		s.ctl.RegisterNode(brpName(i), chaos.NodeHooks{
			Kill:    func() error { s.kill(i); return nil },
			Restart: func() error { return s.restart(i) },
		})
	}
	if evs := s.ctl.Events(); len(evs) > 0 && evs[len(evs)-1] >= cfg.Cycles+cfg.Cycles {
		return nil, fmt.Errorf("sim: fault schedule has events at cycle %d, far beyond the %d-cycle run", evs[len(evs)-1], cfg.Cycles)
	}

	start := time.Now()
	if err := s.runCycles(ctx); err != nil {
		return nil, err
	}
	s.recoverAll()
	s.verify()
	// Schedule notifies are fire-and-forget: the shard endpoints take
	// them on the bus's own goroutines, which may still run.
	s.bus.Wait()
	s.collectStats()
	s.res.Elapsed = time.Since(start)
	s.shutdown()
	return &s.res, nil
}

// startBRP opens (or reopens) one balance group over its durable
// directory: the store, whose WAL holds every acked intake event, and
// the settlement ledger live there, so a restart after Kill recovers
// everything the node ever acked.
func (s *sim) startBRP(i int) error {
	name := brpName(i)
	dir := filepath.Join(s.cfg.Dir, name)
	st, err := store.Open(dir)
	if err != nil {
		return fmt.Errorf("sim: open %s store: %w", name, err)
	}
	cfg := core.Config{
		Name: name, Transport: s.brpInj[i], Store: st,
		AggParams:  agg.ParamsP3,
		SchedOpts:  sched.Options{TimeBudget: s.cfg.Budget, MaxIterations: s.cfg.Iters, Seed: s.cfg.Seed + int64(i)},
		Ingest:     &ingest.Config{Policy: ingest.PolicyBlock},
		Settlement: &settle.LedgerConfig{Path: filepath.Join(dir, "ledger.log")},
		Retry: &comm.RetryConfig{
			Seed: s.cfg.Seed - int64(i) - 1, BaseBackoff: 2 * time.Millisecond, MaxBackoff: 50 * time.Millisecond,
		},
	}
	node, err := core.NewNode(cfg)
	if err != nil {
		_ = st.Close()
		return fmt.Errorf("sim: start %s: %w", name, err)
	}
	s.res.RecoveredPending += node.RecoveredPending()
	s.brps[i] = node
	s.bus.Register(name, node.Handler())
	return nil
}

// kill crashes a BRP: off the bus, then an abrupt stop — in-memory
// backlog abandoned, acked events left in the WAL for replay.
func (s *sim) kill(i int) {
	name := brpName(i)
	s.foldNodeStats(i)
	s.bus.Unregister(name)
	s.brps[i].Kill()
	s.down[i] = true
	s.cfg.Logf("chaos: %s crashed", name)
}

func (s *sim) restart(i int) error {
	if err := s.startBRP(i); err != nil {
		return err
	}
	s.down[i] = false
	s.cfg.Logf("chaos: %s restarted (recovered %d pending offers so far)", brpName(i), s.res.RecoveredPending)
	return nil
}

// foldNodeStats accumulates a node incarnation's counters before it is
// killed, so the final report covers every life of every node.
func (s *sim) foldNodeStats(i int) {
	name := brpName(i)
	if rs, ok := s.brps[i].RetryStats(); ok {
		s.residRetry[name] = addRetryStats(s.residRetry[name], rs)
	}
	if is, ok := s.brps[i].IngestStats(); ok {
		s.residIngest[name] = addIngestStats(s.residIngest[name], is)
	}
}

func addRetryStats(a, b comm.RetryStats) comm.RetryStats {
	a.Calls += b.Calls
	a.Retries += b.Retries
	a.Exhausted += b.Exhausted
	a.NonRetryable += b.NonRetryable
	a.Backoff += b.Backoff
	return a
}

func addIngestStats(a, b ingest.Stats) ingest.Stats {
	a.Enqueued += b.Enqueued
	a.Consumed += b.Consumed
	a.Shed += b.Shed
	a.Batches += b.Batches
	return a
}

func (s *sim) runCycles(ctx context.Context) error {
	for c := 0; c < s.cfg.Cycles; c++ {
		if ctx.Err() != nil {
			s.cfg.Logf("interrupted after %d of %d cycles", c, s.cfg.Cycles)
			return nil
		}
		// Event phase: shard workers tick their households through this
		// cycle's slots, submitting offers and acked measurement batches.
		var wg sync.WaitGroup
		for _, sh := range s.shards {
			wg.Add(1)
			go func(sh *shard) {
				defer wg.Done()
				sh.runCycle(ctx, s, c)
			}(sh)
		}
		wg.Wait()

		// Fault point: the schedule's cycle-c events fire between intake
		// and planning — the most adversarial moment for a crash, when
		// every event acked this cycle may still be unapplied, in the
		// WAL only, and recovery has to replay it. Churn follows so a
		// departure lands on the post-fault topology.
		if err := s.ctl.BeginCycle(c); err != nil {
			return err
		}
		s.applyChurn(c)

		// Planning phase: every live balance group runs its scheduling
		// cycle; down nodes simply miss the round (their prosumers'
		// offers wait, logged, for the restart). Planning time is the
		// START of the window just ticked: device offers carry assignment
		// deadlines only one slot past their issue slot (the household
		// wants an answer now), so a cycle planning at the window's end
		// would time every one of them out before its first look.
		now := flexoffer.Time(s.cfg.StartSlot + c*s.cfg.SlotsPerCycle)
		for i := range s.brps {
			if s.down[i] {
				continue
			}
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				t0 := time.Now()
				rep, err := s.brps[i].RunSchedulingCycle(ctx,
					now, core.ShiftedForecast{Series: s.baseline, Start: int(now)}, nil, nil)
				lat := time.Since(t0)
				s.mu.Lock()
				defer s.mu.Unlock()
				if err != nil {
					s.res.CycleErrors++
					return
				}
				s.res.CycleLatency.Record(int64(lat))
				for p, d := range cyclePhases(rep) {
					s.res.CyclePhases[p].Record(int64(d))
				}
				if rep.Aggregates > 0 && rep.BaselineCost > 0 {
					s.res.PlanCostRatios = append(s.res.PlanCostRatios, rep.ScheduleCost/rep.BaselineCost)
				}
				s.res.MicroSchedules += rep.MicroSchedules
				s.res.Expired += rep.Expired
				s.res.NotifyFailures += rep.NotifyFailures
			}(i)
		}
		wg.Wait()
		s.res.Cycles++
		s.cfg.Logf("cycle %d/%d done", c+1, s.cfg.Cycles)
	}
	return nil
}

// applyChurn processes deferred departures, then draws this cycle's
// leavers. A household whose BRP is down still leaves immediately — the
// BRP only learns (and settles the penalty) once it is back.
func (s *sim) applyChurn(c int) {
	s.drainDeferred(c)
	if s.cfg.Churn <= 0 {
		return
	}
	for gi, hh := range s.hh {
		if hh.left {
			continue
		}
		if s.churnRNG.Float64() >= s.cfg.Churn {
			continue
		}
		hh.left = true
		s.res.ChurnLeft++
		if s.down[hh.brp] {
			s.deferred = append(s.deferred, gi)
			s.res.ChurnDeferred++
			continue
		}
		s.cancel(gi, c)
	}
}

func (s *sim) drainDeferred(c int) {
	var still []int
	for _, gi := range s.deferred {
		if s.down[s.hh[gi].brp] {
			still = append(still, gi)
			continue
		}
		s.cancel(gi, c)
	}
	s.deferred = still
}

// cancel settles one mid-contract departure against its BRP's ledger.
func (s *sim) cancel(gi, c int) {
	hh := s.hh[gi]
	rep, err := s.brps[hh.brp].CancelProsumer(hh.h.Name, settle.CancelConfig{
		PenaltyEUR: 0.5, PenaltyPerKWh: 0.05,
		Memo: fmt.Sprintf("left mid-contract at cycle %d", c),
	})
	if err != nil {
		s.res.CycleErrors++
		return
	}
	s.res.CancelledOffers += len(rep.Cancelled)
	s.res.CancelPenaltyEUR += rep.PenaltyEUR
}

// runCycle is one shard's event phase: re-offers first, then every
// member household ticks through the cycle's slots.
func (sh *shard) runCycle(ctx context.Context, s *sim, c int) {
	spc := s.cfg.SlotsPerCycle
	base := flexoffer.Time(s.cfg.StartSlot + c*spc)
	next := base + flexoffer.Time(spc)

	pending, pendingTo := sh.reoffers, sh.reofferTo
	sh.reoffers, sh.reofferTo = nil, nil
	for i, off := range pending {
		sh.submit(ctx, s, off, pendingTo[i], next)
	}

	type sample struct {
		gi      int
		reports []comm.MeasurementReport
	}
	var samples []sample
	sampleAt := make(map[int]int) // household index -> samples slot
	for _, gi := range sh.members {
		if (gi+c)%s.cfg.MeasureEvery == 0 && !s.hh[gi].left {
			sampleAt[gi] = len(samples)
			samples = append(samples, sample{gi: gi})
		}
	}

	for slot := base; slot < next; slot++ {
		for _, gi := range sh.members {
			hh := s.hh[gi]
			if hh.left {
				continue
			}
			offers, kwh := hh.h.Tick(slot)
			for _, off := range offers {
				sh.submit(ctx, s, off, hh.brp, next)
			}
			if si, ok := sampleAt[gi]; ok {
				samples[si].reports = append(samples[si].reports, comm.MeasurementReport{
					Actor: hh.h.Name, EnergyType: "demand", Slot: slot, KWh: kwh,
				})
			}
		}
		if s.cfg.Pace > 0 {
			t := time.NewTimer(s.cfg.Pace)
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
				return
			}
		}
	}

	for _, sm := range samples {
		hh := s.hh[sm.gi]
		if hh.left || len(sm.reports) == 0 {
			continue
		}
		if err := sh.client.ReportMeasurementsAcked(ctx, brpName(hh.brp), sm.reports); err != nil {
			sh.measFailed++
			continue
		}
		byActor := sh.ackedMeas[hh.brp]
		if byActor == nil {
			byActor = make(map[string][]flexoffer.Time)
			sh.ackedMeas[hh.brp] = byActor
		}
		for _, r := range sm.reports {
			byActor[r.Actor] = append(byActor[r.Actor], r.Slot)
		}
		sh.measAcked += uint64(len(sm.reports))
	}
}

// submit sends one flex-offer and records the ack. A failed submission
// whose start window is still open next cycle is re-issued the way a
// household would: a fresh offer — new ID from the shard's private ID
// space, start and assignment deadline pushed past the next planning
// time — never the same ID, because the original may have landed despite
// the lost reply (the ambiguous-error case the idempotency
// classification exists for).
func (sh *shard) submit(ctx context.Context, s *sim, off *flexoffer.FlexOffer, brp int, next flexoffer.Time) {
	sh.submitted++
	d, err := sh.ep.Submit(ctx, brpName(brp), off)
	if err != nil {
		sh.failed++
		if off.LatestStart >= next+2 {
			clone := off.Clone()
			sh.reofferSeq++
			clone.ID = flexoffer.ID((uint64(sh.idx)+1)<<40 + sh.reofferSeq)
			if clone.EarliestStart < next+2 {
				clone.EarliestStart = next + 2
			}
			clone.AssignBefore = clone.EarliestStart - 1
			sh.reoffers = append(sh.reoffers, clone)
			sh.reofferTo = append(sh.reofferTo, brp)
			sh.reoffered++
		}
		return
	}
	sh.acked++
	sh.ackedOffers[brp] = append(sh.ackedOffers[brp], off.ID)
	if d.Accept {
		sh.accepted++
	}
}

// recoverAll replays the tail of the fault schedule (restarts or heals
// planned past the last cycle), brings any still-down node back, and
// settles departures that were waiting on a dead BRP.
func (s *sim) recoverAll() {
	if evs := s.ctl.Events(); len(evs) > 0 {
		for n := s.cfg.Cycles; n <= evs[len(evs)-1]; n++ {
			if err := s.ctl.BeginCycle(n); err != nil {
				s.cfg.Logf("schedule tail: %v", err)
			}
		}
	}
	for i := range s.brps {
		if s.down[i] {
			if err := s.restart(i); err != nil {
				s.cfg.Logf("final restart of %s: %v", brpName(i), err)
			}
		}
	}
	s.drainDeferred(s.cfg.Cycles)
}

// verify drains every intake queue and checks the run's durability contract:
// every acked offer and measurement is in its BRP's store — across
// drops, partitions, churn and crash/restart — and every settlement
// chain verifies end to end.
func (s *sim) verify() {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	for i, n := range s.brps {
		if err := n.DrainIngest(ctx); err != nil {
			s.res.LostOffers = append(s.res.LostOffers,
				fmt.Sprintf("%s: final ingest drain failed: %v", brpName(i), err))
		}
	}
	for _, sh := range s.shards {
		for brp, ids := range sh.ackedOffers {
			st := s.brps[brp].Store()
			for _, id := range ids {
				if _, ok := st.GetOffer(id); !ok {
					s.res.LostOffers = append(s.res.LostOffers,
						fmt.Sprintf("%s: acked offer %d missing after recovery", brpName(brp), id))
				}
			}
		}
		for brp, byActor := range sh.ackedMeas {
			st := s.brps[brp].Store()
			for actor, slots := range byActor {
				have := make(map[flexoffer.Time]bool)
				for _, m := range st.Measurements(store.MeasurementFilter{Actor: actor, EnergyType: "demand"}) {
					have[m.Slot] = true
				}
				for _, slot := range slots {
					if !have[slot] {
						s.res.LostMeasurements = append(s.res.LostMeasurements,
							fmt.Sprintf("%s: acked measurement %s@%d missing after recovery", brpName(brp), actor, slot))
					}
				}
			}
		}
	}
	sort.Strings(s.res.LostOffers)
	sort.Strings(s.res.LostMeasurements)
	for i, n := range s.brps {
		v, err := n.Ledger().Verify()
		if err != nil {
			v = settle.VerifyResult{OK: false, Reason: err.Error()}
		}
		s.res.Ledgers[brpName(i)] = v
		ls, _ := n.LedgerStats()
		s.res.LedgerHeads[brpName(i)] = ls.HeadHash
		s.res.OfferStates[brpName(i)] = n.Store().CountOffersByState()
	}
}

func (s *sim) collectStats() {
	for _, sh := range s.shards {
		s.res.OffersSubmitted += sh.submitted
		s.res.OffersAcked += sh.acked
		s.res.OffersAccepted += sh.accepted
		s.res.OffersFailed += sh.failed
		s.res.Reoffered += sh.reoffered
		s.res.MeasAcked += sh.measAcked
		s.res.MeasFailed += sh.measFailed
		s.res.SchedulesDelivered += uint64(len(sh.ep.Schedules()))
		s.res.NotifiesRefused += sh.ep.Refused()
		s.res.Injectors[sh.name] = sh.inj.Stats()
	}
	for i := range s.brps {
		name := brpName(i)
		s.res.Injectors[name] = s.brpInj[i].Stats()
		rs := s.residRetry[name]
		if live, ok := s.brps[i].RetryStats(); ok {
			rs = addRetryStats(rs, live)
		}
		s.res.Retry[name] = rs
		is := s.residIngest[name]
		if live, ok := s.brps[i].IngestStats(); ok {
			is = addIngestStats(is, live)
		}
		s.res.Ingest[name] = is
	}
	s.res.Controller = s.ctl.Stats()
}

func (s *sim) shutdown() {
	for _, n := range s.brps {
		_ = n.Close()
		_ = n.Store().Close()
	}
}
