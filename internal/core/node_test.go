package core

import (
	"context"
	"math"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"mirabel/internal/agg"
	"mirabel/internal/comm"
	"mirabel/internal/flexoffer"
	"mirabel/internal/prosumer"
	"mirabel/internal/sched"
	"mirabel/internal/settle"
	"mirabel/internal/store"
)

// testOffer builds a schedulable offer inside the first day.
func testOffer(id flexoffer.ID, es, tf flexoffer.Time, slices int, emax float64) *flexoffer.FlexOffer {
	p := make([]flexoffer.Slice, slices)
	for i := range p {
		p[i] = flexoffer.Slice{EnergyMin: 0, EnergyMax: emax}
	}
	return &flexoffer.FlexOffer{
		ID: id, EarliestStart: es, LatestStart: es + tf, AssignBefore: es - 8,
		Profile: p,
	}
}

// mustNode builds a node, closes it with the test and — given a bus —
// registers it there under its name (the bus is also its transport
// unless cfg names one).
func mustNode(t *testing.T, bus *comm.Bus, cfg Config) *Node {
	t.Helper()
	if bus != nil && cfg.Transport == nil {
		cfg.Transport = bus
	}
	n, err := NewNode(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	if bus != nil {
		bus.Register(cfg.Name, n.Handler())
	}
	return n
}

func newBRP(t *testing.T, bus *comm.Bus) *Node {
	t.Helper()
	return mustNode(t, bus, Config{
		Name:      "brp1",
		AggParams: agg.ParamsP3,
		SchedOpts: sched.Options{MaxIterations: 3, Seed: 1},
	})
}

// newProsumer registers a prosumer endpoint on bus; tests submit its
// offers to brp1.
func newProsumer(t *testing.T, bus *comm.Bus, name string) *prosumer.Endpoint {
	t.Helper()
	p := prosumer.New(name, comm.NewClient(name, bus))
	bus.Register(name, p.Handler())
	return p
}

// pendingOffers is the number of n's accepted, not yet scheduled
// offers.
func pendingOffers(n *Node) int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.pipeline.NumOffers()
}

// aggregates processes n's accumulated intake and returns the live
// macro flex-offers.
func aggregates(n *Node) []*agg.Aggregate {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.pipeline.Process()
	return n.pipeline.Aggregates()
}

// scheduleOf is the schedule a prosumer holds for an offer, nil until
// its BRP's schedule arrived.
func scheduleOf(p *prosumer.Endpoint, id flexoffer.ID) *flexoffer.Schedule {
	return p.Schedules()[id]
}

// drain is the read-your-writes barrier tests take before they look at
// an aggregating node's store: an ack promises durability, not
// visibility.
func drain(t *testing.T, n *Node) {
	t.Helper()
	if err := n.DrainIngest(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

func TestNewNodeValidation(t *testing.T) {
	for what, cfg := range map[string]Config{
		"no name": {},
	} {
		if n, err := NewNode(cfg); err == nil {
			n.Close()
			t.Errorf("%s: node accepted", what)
		}
	}
}

// TestNewNodeLogsNothing: a node's start writes nothing to its store.
// Its name comes from its Config on every start, so over an empty
// directory the WAL stays zero-length through a start, a close and a
// restart, with every subsystem open.
func TestNewNodeLogsNothing(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Name: "brp1", AggParams: agg.ParamsP3, Settlement: &settle.LedgerConfig{Path: filepath.Join(dir, "ledger.log")}}
	for start := 1; start <= 2; start++ {
		st, err := store.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Store = st
		n, err := NewNode(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := n.Close(); err != nil {
			t.Fatal(err)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		fi, err := os.Stat(store.WALPath(dir))
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() != 0 {
			t.Fatalf("after start %d: wal.log holds %d bytes, want none", start, fi.Size())
		}
	}
}

func TestOfferSubmissionRoundtrip(t *testing.T) {
	bus := comm.NewBus()
	brp := newBRP(t, bus)
	p1 := newProsumer(t, bus, "p1")

	offer := testOffer(1, 40, 16, 4, 5)
	decision, err := p1.Submit(context.Background(), "brp1", offer)
	if err != nil {
		t.Fatal(err)
	}
	if !decision.Accept {
		t.Fatalf("offer rejected: %s", decision.Reason)
	}
	if decision.PremiumEUR <= 0 {
		t.Error("accepted offer without premium")
	}
	if pendingOffers(brp) != 1 {
		t.Errorf("pending = %d", pendingOffers(brp))
	}
	drain(t, brp)
	if rec, ok := brp.Store().GetOffer(1); !ok || rec.State != store.OfferAccepted {
		t.Errorf("BRP record = %+v, %v", rec, ok)
	}
}

func TestInflexibleOfferRejected(t *testing.T) {
	bus := comm.NewBus()
	brp := newBRP(t, bus)
	p1 := newProsumer(t, bus, "p1")
	rigid := testOffer(2, 40, 0, 4, 5)
	rigid.Profile = []flexoffer.Slice{{EnergyMin: 5, EnergyMax: 5}}
	decision, err := p1.Submit(context.Background(), "brp1", rigid)
	if err != nil {
		t.Fatal(err)
	}
	if decision.Accept {
		t.Error("inflexible offer accepted")
	}
	drain(t, brp)
	if rec, _ := brp.Store().GetOffer(2); rec.State != store.OfferRejected {
		t.Errorf("BRP state = %s", rec.State)
	}
}

func TestSchedulingCycleEndToEnd(t *testing.T) {
	bus := comm.NewBus()
	brp := newBRP(t, bus)
	p1 := newProsumer(t, bus, "p1")
	p2 := newProsumer(t, bus, "p2")

	o1 := testOffer(1, 40, 16, 4, 5)
	o2 := testOffer(2, 42, 12, 4, 5)
	if d, err := p1.Submit(context.Background(), "brp1", o1); err != nil || !d.Accept {
		t.Fatalf("submit o1: %v %+v", err, d)
	}
	if d, err := p2.Submit(context.Background(), "brp1", o2); err != nil || !d.Accept {
		t.Fatalf("submit o2: %v %+v", err, d)
	}

	// RES surplus in slots 40..55: the scheduler should soak it up.
	baseline := make([]float64, flexoffer.SlotsPerDay)
	for i := 40; i < 56; i++ {
		baseline[i] = -8
	}
	res := StaticForecast(make([]float64, flexoffer.SlotsPerDay))
	rep, err := brp.RunSchedulingCycle(context.Background(), 0, StaticForecast(baseline), res, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Offers != 2 || rep.MicroSchedules != 2 {
		t.Errorf("report = %+v", rep)
	}
	if rep.ScheduleCost >= rep.BaselineCost {
		t.Errorf("schedule cost %g not below baseline %g", rep.ScheduleCost, rep.BaselineCost)
	}

	// Give the async notifications a moment, then check delivery.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if s := scheduleOf(p1, o1.ID); s != nil {
			if err := o1.ValidateSchedule(s); err != nil {
				t.Fatalf("delivered schedule invalid: %v", err)
			}
			if rec, _ := brp.Store().GetOffer(1); rec.State != store.OfferScheduled || rec.Schedule.Start != s.Start {
				t.Errorf("BRP record = %s with %+v, want the delivered schedule", rec.State, rec.Schedule)
			}
			// The BRP cleared its pipeline.
			if pendingOffers(brp) != 0 {
				t.Errorf("pending after cycle = %d", pendingOffers(brp))
			}
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("schedule never delivered to prosumer")
}

func TestCycleExpiresStaleOffers(t *testing.T) {
	brp := newBRP(t, nil)
	// Offer whose assignment deadline (32) is before the cycle time 36.
	stale := testOffer(9, 40, 8, 4, 5)
	if d := brp.AcceptOffer(stale, "p9"); !d.Accept {
		t.Fatalf("rejected: %s", d.Reason)
	}
	rep, err := brp.RunSchedulingCycle(context.Background(), 36, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Expired != 1 || rep.Offers != 0 {
		t.Errorf("report = %+v", rep)
	}
	if rec, _ := brp.Store().GetOffer(9); rec.State != store.OfferExpired {
		t.Errorf("state = %s", rec.State)
	}
}

func TestUnreachableProsumerDoesNotFailCycle(t *testing.T) {
	bus := comm.NewBus()
	brp := newBRP(t, bus)
	p1 := newProsumer(t, bus, "p1")
	offer := testOffer(1, 40, 16, 4, 5)
	if _, err := p1.Submit(context.Background(), "brp1", offer); err != nil {
		t.Fatal(err)
	}
	bus.Unregister("p1") // the node drops off the network
	rep, err := brp.RunSchedulingCycle(context.Background(), 0, nil, nil, nil)
	if err != nil {
		t.Fatalf("cycle failed on unreachable prosumer: %v", err)
	}
	if rep.NotifyFailures != 1 {
		t.Errorf("notify failures = %d, want 1", rep.NotifyFailures)
	}
}

// TestMeasurementReporting: one reported reading, acked, reaches the
// BRP's store once its applier ran — the ack is the WAL append.
func TestMeasurementReporting(t *testing.T) {
	bus := comm.NewBus()
	brp := newBRP(t, bus)
	client := comm.NewClient("p1", bus)
	if err := client.ReportMeasurementsAcked(context.Background(), "brp1", []comm.MeasurementReport{
		{Actor: "p1", EnergyType: "demand", Slot: 5, KWh: 2.5},
	}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if ms := brp.Store().Measurements(store.MeasurementFilter{FromSlot: 5, ToSlot: 6}); len(ms) == 1 && ms[0].KWh == 2.5 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Error("measurement never reached the BRP")
}

// TestMeasurementBatchReporting sends a meter-stream batch in one
// message; the receiving node takes the whole report as one ingest
// event (one store batch on apply).
func TestMeasurementBatchReporting(t *testing.T) {
	bus := comm.NewBus()
	brp := newBRP(t, bus)
	client := comm.NewClient("p1", bus)
	reports := make([]comm.MeasurementReport, 10)
	for i := range reports {
		reports[i] = comm.MeasurementReport{Actor: "p1", EnergyType: "demand", Slot: flexoffer.Time(i), KWh: 1.5}
	}
	if err := client.ReportMeasurementsAcked(context.Background(), "brp1", reports); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		ms := brp.Store().Measurements(store.MeasurementFilter{Actor: "p1", EnergyType: "demand"})
		if len(ms) == len(reports) {
			if ms[3].KWh != 1.5 || ms[3].Slot != 3 {
				t.Fatalf("stored batch entry = %+v", ms[3])
			}
			// The ingest queue's direct path lands in the same series.
			if err := brp.ingest.SubmitMeasurements(context.Background(), []store.Measurement{{Actor: "p1", EnergyType: "demand", Slot: 99, KWh: 2}}); err != nil {
				t.Fatal(err)
			}
			drain(t, brp)
			if got := brp.Store().Measurements(store.MeasurementFilter{Actor: "p1", FromSlot: 99, ToSlot: 100}); len(got) != 1 || got[0].KWh != 2 {
				t.Fatalf("submitted measurement = %+v", got)
			}
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Error("measurement batch never reached the BRP")
}

// TestBRPRefusesScheduleNotify: schedules flow down to prosumers only.
// A notify sent to a BRP for an offer it holds as pending is refused
// and changes nothing, so its store and its planner keep agreeing that
// the offer is still to plan.
func TestBRPRefusesScheduleNotify(t *testing.T) {
	brp := newBRP(t, nil)
	offer := testOffer(1, 40, 16, 4, 5)
	if d := brp.AcceptOffer(offer, "p1"); !d.Accept {
		t.Fatalf("rejected: %s", d.Reason)
	}
	drain(t, brp)
	env, _ := comm.NewEnvelope(comm.MsgScheduleNotify, "x", "brp1", comm.ScheduleNotify{Schedules: []*flexoffer.Schedule{
		{OfferID: 1, Start: 40, Energy: []float64{1, 1, 1, 1}},
	}})
	if _, err := brp.Handler()(context.Background(), env); err == nil {
		t.Error("BRP accepted a schedule notify")
	}
	if rec, _ := brp.Store().GetOffer(1); rec.State != store.OfferAccepted {
		t.Errorf("store state = %s, want accepted", rec.State)
	}
	if n := pendingOffers(brp); n != 1 {
		t.Errorf("pending = %d, want 1", n)
	}
}

// TestIntakeRejectsNonFinite: the binary wire format carries NaN and
// ±Inf, which JSON could not; each intake handler refuses them before
// anything is logged, stored or handed to the aggregation pipeline.
func TestIntakeRejectsNonFinite(t *testing.T) {
	bus := comm.NewBus()
	brp := newBRP(t, bus)
	p1 := newProsumer(t, bus, "p1")
	ctx := context.Background()
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		offer := testOffer(1, 40, 16, 4, 5)
		offer.Profile[2].EnergyMax = bad
		if d, err := p1.Submit(ctx, "brp1", offer); err != nil || d.Accept {
			t.Errorf("offer with energy %g: decision %+v, %v", bad, d, err)
		}
		offer = testOffer(1, 40, 16, 4, 5)
		offer.CostPerKWh = bad
		if d, err := p1.Submit(ctx, "brp1", offer); err != nil || d.Accept {
			t.Errorf("offer with price %g: decision %+v, %v", bad, d, err)
		}
		report, _ := comm.NewEnvelope(comm.MsgMeasurementBatch, "p1", "brp1", comm.MeasurementBatch{Reports: []comm.MeasurementReport{{Actor: "p1", EnergyType: "demand", Slot: 1, KWh: bad}}})
		if _, err := brp.Handler()(ctx, report); err == nil {
			t.Errorf("measurement report of %g kWh accepted", bad)
		}
		batch, _ := comm.NewEnvelope(comm.MsgMeasurementBatch, "p1", "brp1", comm.MeasurementBatch{Reports: []comm.MeasurementReport{
			{Actor: "p1", EnergyType: "demand", Slot: 2, KWh: 1}, {Actor: "p1", EnergyType: "demand", Slot: 3, KWh: bad},
		}})
		if _, err := brp.Handler()(ctx, batch); err == nil {
			t.Errorf("measurement batch holding %g kWh accepted", bad)
		}
	}
	drain(t, brp)
	if st := brp.Store().Stats(); st.Measurements != 0 || pendingOffers(brp) != 0 {
		t.Errorf("refused input reached the BRP: %+v, %d pending offers", st, pendingOffers(brp))
	}
}

func TestPingPong(t *testing.T) {
	brp := newBRP(t, nil)
	env, _ := comm.NewEnvelope(comm.MsgPing, "x", "brp1", nil)
	reply, err := brp.Handler()(context.Background(), env)
	if err != nil || reply == nil || reply.Type != comm.MsgPong {
		t.Errorf("ping reply = %+v, %v", reply, err)
	}
}

func TestStaticAndShiftedForecast(t *testing.T) {
	s := StaticForecast{1, 2, 3}
	got := s.Forecast(5)
	want := []float64{1, 2, 3, 3, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("StaticForecast[%d] = %g, want %g", i, got[i], want[i])
		}
	}
	sh := ShiftedForecast{Series: []float64{1, 2, 3, 4}, Start: 2}
	got = sh.Forecast(3)
	want = []float64{3, 4, 4}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("ShiftedForecast[%d] = %g, want %g", i, got[i], want[i])
		}
	}
	if empty := (StaticForecast{}).Forecast(2); empty[0] != 0 || empty[1] != 0 {
		t.Error("empty forecast not zero")
	}
}

func TestSettleExecutedOffers(t *testing.T) {
	bus := comm.NewBus()
	brp := newBRP(t, bus)
	p1 := newProsumer(t, bus, "p1")
	offer := testOffer(1, 40, 16, 4, 5)
	d, err := p1.Submit(context.Background(), "brp1", offer)
	if err != nil || !d.Accept {
		t.Fatalf("submit: %v %+v", err, d)
	}
	// The surplus sits at slots 48..56 — away from the earliest start, so
	// the default (immediate) execution misses it and scheduling
	// realizes genuine savings to share.
	baseline := make([]float64, flexoffer.SlotsPerDay)
	for i := 48; i < 56; i++ {
		baseline[i] = -5
	}
	rep, err := brp.RunSchedulingCycle(context.Background(), 0, StaticForecast(baseline), nil, nil)
	if err != nil || rep.MicroSchedules != 1 {
		t.Fatalf("cycle: %v %+v", err, rep)
	}
	if rep.ScheduleCost >= rep.BaselineCost {
		t.Fatalf("no savings: scheduled %g vs default %g", rep.ScheduleCost, rep.BaselineCost)
	}

	// Settle with no metering overrides: perfectly compliant.
	sr, err := brp.SettleExecuted(nil, settleConfig(rep))
	if err != nil {
		t.Fatal(err)
	}
	if len(sr.Lines) != 1 {
		t.Fatalf("lines = %d", len(sr.Lines))
	}
	l := sr.Lines[0]
	if !l.Compliant {
		t.Error("compliant execution penalized")
	}
	if d.PremiumEUR > 0 && l.PaymentEUR <= 0 {
		t.Errorf("no premium paid: %+v (decision premium %g)", l, d.PremiumEUR)
	}
	if sr.SharedProfitEUR <= 0 {
		t.Errorf("no profit shared despite realized savings: %+v", sr)
	}
	// The offer moved to the executed state.
	if rec, _ := brp.Store().GetOffer(1); rec.State != store.OfferExecuted {
		t.Errorf("state = %s, want executed", rec.State)
	}
	// Settling again finds nothing scheduled.
	sr2, err := brp.SettleExecuted(nil, settleConfig(rep))
	if err != nil {
		t.Fatal(err)
	}
	if len(sr2.Lines) != 0 {
		t.Errorf("second settlement found %d lines", len(sr2.Lines))
	}
}

func settleConfig(rep *CycleReport) settle.Config {
	return settle.Config{
		ShareFrac:         0.3,
		RealizedProfitEUR: rep.BaselineCost - rep.ScheduleCost,
	}
}

func TestNodeMetricsCountHandledMessages(t *testing.T) {
	bus := comm.NewBus()
	brp := newBRP(t, bus)
	p1 := newProsumer(t, bus, "p1")
	if _, err := p1.Submit(context.Background(), "brp1", testOffer(1, 40, 16, 4, 5)); err != nil {
		t.Fatal(err)
	}
	env, _ := comm.NewEnvelope(comm.MsgPing, "x", "brp1", nil)
	if _, err := brp.Handler()(context.Background(), env); err != nil {
		t.Fatal(err)
	}
	snap := brp.Metrics().Snapshot()
	if snap[comm.MsgFlexOfferSubmit].Handled != 1 {
		t.Errorf("submit metrics = %+v", snap[comm.MsgFlexOfferSubmit])
	}
	if snap[comm.MsgPing].Handled != 1 {
		t.Errorf("ping metrics = %+v", snap[comm.MsgPing])
	}
	for typ, m := range snap {
		if m.Errors != 0 {
			t.Errorf("%s errors = %d", typ, m.Errors)
		}
	}
}

func TestNodeMiddlewareSeamAndRecovery(t *testing.T) {
	var seen atomic.Int32
	counting := func(next comm.Handler) comm.Handler {
		return func(ctx context.Context, env comm.Envelope) (*comm.Envelope, error) {
			seen.Add(1)
			return next(ctx, env)
		}
	}
	n := mustNode(t, nil, Config{
		Name:       "brp1",
		AggParams:  agg.ParamsP3,
		Middleware: []comm.Middleware{counting},
	})
	env, _ := comm.NewEnvelope(comm.MsgPing, "x", "brp1", nil)
	if _, err := n.Handler()(context.Background(), env); err != nil {
		t.Fatal(err)
	}
	if seen.Load() != 1 {
		t.Errorf("custom middleware saw %d messages", seen.Load())
	}
	// A malformed body must surface as an error, not a crash, and count
	// in the metrics.
	bad := comm.Envelope{Type: comm.MsgFlexOfferSubmit, From: "x", To: "brp1", Body: []byte("{")}
	if _, err := n.Handler()(context.Background(), bad); err == nil {
		t.Error("malformed body accepted")
	}
	if n.Metrics().Snapshot()[comm.MsgFlexOfferSubmit].Errors != 1 {
		t.Error("handler error not counted")
	}
}

func TestNodeRejectsUnknownMessageType(t *testing.T) {
	brp := newBRP(t, nil)
	env := comm.Envelope{Type: comm.MsgType("gossip"), From: "x", To: "brp1"}
	if _, err := brp.Handler()(context.Background(), env); err == nil {
		t.Error("unknown message type accepted")
	}
}

func TestSubmitOfferHonorsCanceledContext(t *testing.T) {
	bus := comm.NewBus()
	newBRP(t, bus)
	p1 := newProsumer(t, bus, "p1")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := p1.Submit(ctx, "brp1", testOffer(3, 40, 16, 4, 5)); err == nil {
		t.Error("canceled submission succeeded")
	}
}

// TestSettleExecutedWithLedger runs the ledger-backed settlement path
// end to end: settlement lines land on the durable hash chain, the
// chain verifies, balances match the report, and a node reopened on the
// same ledger recovers the chain and stays idempotent.
func TestSettleExecutedWithLedger(t *testing.T) {
	ledgerPath := filepath.Join(t.TempDir(), "ledger.log")
	bus := comm.NewBus()
	brp := mustNode(t, bus, Config{
		Name:       "brp1",
		AggParams:  agg.ParamsP3,
		SchedOpts:  sched.Options{MaxIterations: 3, Seed: 1},
		Settlement: &settle.LedgerConfig{Path: ledgerPath},
	})
	p1 := newProsumer(t, bus, "p1")

	offer := testOffer(1, 40, 16, 4, 5)
	if d, err := p1.Submit(context.Background(), "brp1", offer); err != nil || !d.Accept {
		t.Fatalf("submit: %v %+v", err, d)
	}
	baseline := make([]float64, flexoffer.SlotsPerDay)
	for i := 48; i < 56; i++ {
		baseline[i] = -5
	}
	rep, err := brp.RunSchedulingCycle(context.Background(), 0, StaticForecast(baseline), nil, nil)
	if err != nil || rep.MicroSchedules != 1 {
		t.Fatalf("cycle: %v %+v", err, rep)
	}

	sr, err := brp.SettleExecuted(nil, settleConfig(rep))
	if err != nil {
		t.Fatal(err)
	}
	if len(sr.Lines) != 1 || sr.Batches != 1 || sr.AlreadySettled != 0 {
		t.Fatalf("run report = %+v", sr)
	}
	if rec, _ := brp.Store().GetOffer(1); rec.State != store.OfferExecuted {
		t.Errorf("state = %s, want executed", rec.State)
	}

	stats, ok := brp.LedgerStats()
	if !ok || stats.Entries == 0 || stats.SettledOffers != 1 {
		t.Fatalf("ledger stats = %+v, %v", stats, ok)
	}
	res, err := brp.Ledger().Verify()
	if err != nil || !res.OK {
		t.Fatalf("verify = %+v, %v", res, err)
	}
	bal, ok := brp.Ledger().Balance("p1")
	if !ok || math.Abs(bal.NetEUR-sr.Lines[0].NetEUR) > 1e-9 {
		t.Errorf("balance = %+v, want net %g", bal, sr.Lines[0].NetEUR)
	}
	if err := brp.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen on the same chain: recovery rebuilds the settled index, so
	// a re-settlement run stays a no-op even against a fresh process.
	re := mustNode(t, nil, Config{
		Name:       "brp1",
		Store:      brp.Store(),
		Settlement: &settle.LedgerConfig{Path: ledgerPath},
	})
	st, _ := re.LedgerStats()
	if st.RecoveredEntries != stats.Entries || st.DroppedBytes != 0 {
		t.Errorf("recovery stats = %+v, want %d entries", st, stats.Entries)
	}
	sr2, err := re.SettleExecuted(nil, settleConfig(rep))
	if err != nil {
		t.Fatal(err)
	}
	if len(sr2.Lines) != 0 || sr2.AlreadySettled != 0 {
		t.Errorf("re-run = %+v", sr2)
	}
	if st2, _ := re.LedgerStats(); st2.Entries != stats.Entries {
		t.Errorf("re-run appended entries: %d → %d", stats.Entries, st2.Entries)
	}
}
