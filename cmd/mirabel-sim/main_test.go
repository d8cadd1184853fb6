package main

import (
	"context"
	"flag"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"mirabel/internal/chaos"
	"mirabel/internal/store"
)

// acceptanceConfig is the chaos acceptance scenario: 10% message drops,
// latency spikes, ambiguous errors, 2% per-cycle churn, a mid-run
// partition and one node crash/restart.
func acceptanceConfig(t *testing.T, seed int64) simConfig {
	t.Helper()
	return simConfig{
		Prosumers: 200, BRPs: 2, Shards: 2,
		Cycles: 8, SlotsPerCycle: 4, StartSlot: 66,
		Seed:   seed,
		Faults: "drop=0.1,err=0.02,spike=0.05:2ms,part=brp-1@5-5,crash=brp-0@2+2",
		Churn:  0.02,
		Budget: 2 * time.Second, Iters: 100,
		Dir: t.TempDir(),
	}
}

// TestChaosAcceptance is the run the tentpole promises: a seeded
// population under drops, spikes, churn, a partition and a full node
// crash/restart must lose not one acked event, and every settlement
// chain must verify end to end.
func TestChaosAcceptance(t *testing.T) {
	res, err := runSim(context.Background(), acceptanceConfig(t, 7))
	if err != nil {
		t.Fatal(err)
	}

	for _, lost := range res.LostOffers {
		t.Errorf("offer loss: %s", lost)
	}
	for _, lost := range res.LostMeasurements {
		t.Errorf("measurement loss: %s", lost)
	}
	for name, v := range res.Ledgers {
		if !v.OK {
			t.Errorf("ledger %s: chain broken at seq %d: %s", name, v.FirstBadSeq, v.Reason)
		}
	}

	if res.Controller.Kills != 1 || res.Controller.Restarts != 1 {
		t.Errorf("controller = %+v, want 1 kill and 1 restart", res.Controller)
	}
	if res.Controller.PartsCut != 1 || res.Controller.Healed != 1 {
		t.Errorf("controller = %+v, want 1 partition cut and healed", res.Controller)
	}
	if res.OffersAcked == 0 || res.MeasAcked == 0 {
		t.Fatalf("no traffic survived: %d offers, %d measurements acked", res.OffersAcked, res.MeasAcked)
	}
	if res.OffersFailed == 0 {
		t.Error("no submission ever failed under 10% drops — injector not in the path?")
	}
	if res.RecoveredPending == 0 {
		t.Error("restart recovered no pending offers — the crash hit no accepted, unplanned offer")
	}
	if res.ChurnLeft == 0 || res.CancelledOffers == 0 {
		t.Errorf("churn never bit: %d left, %d offers cancelled", res.ChurnLeft, res.CancelledOffers)
	}
	var drops uint64
	for _, st := range res.Injectors {
		drops += st.Drops
	}
	if drops == 0 {
		t.Error("injectors dropped nothing at drop=0.1")
	}
	if res.Cycles != 8 {
		t.Errorf("cycles = %d, want 8", res.Cycles)
	}
	// A notify re-sent after an ambiguous error holds its schedules once,
	// and every notify reached the shard whose offer it answers.
	if res.SchedulesDelivered > uint64(res.MicroSchedules) {
		t.Errorf("%d schedules delivered for %d planned", res.SchedulesDelivered, res.MicroSchedules)
	}
	if res.NotifiesRefused != 0 {
		t.Errorf("%d schedule notifies refused", res.NotifiesRefused)
	}
	if len(res.PlanCostRatios) == 0 {
		t.Error("no cycle reported its plan cost against a positive baseline")
	}
	var out strings.Builder
	printReport(&out, res)
	if want := fmt.Sprintf("plan cost: median %.4f of the baseline cost over %d planned node-cycles\n",
		median(res.PlanCostRatios), len(res.PlanCostRatios)); !strings.Contains(out.String(), want) {
		t.Errorf("report lacks %q:\n%s", want, out.String())
	}
}

// TestMedian: the middle value, or the mean of the two middle ones,
// whatever the input order; the input is left as it was.
func TestMedian(t *testing.T) {
	odd := []float64{0.3, 0.1, 0.2}
	if got := median(odd); got != 0.2 {
		t.Errorf("median(%v) = %v, want 0.2", odd, got)
	}
	if odd[0] != 0.3 {
		t.Errorf("median reordered its input: %v", odd)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median(4, 1, 3, 2) = %v, want 2.5", got)
	}
}

// fingerprint is everything about a run that must be bit-identical
// across same-seed executions: fault decisions, degradation counters,
// churn, traffic outcomes, planning results and each BRP's end state —
// its ledger's head hash (which seals every entry before it) and its
// offers by lifecycle state, so divergence cannot hide behind counters
// that happen to match. Wall-clock artifacts (latencies, backoff time,
// async delivery counts) are excluded.
type fingerprint struct {
	Injectors                                     map[string]chaos.Stats
	Controller                                    chaos.ControllerStats
	Submitted, Acked, Accepted, Failed, Reoffered uint64
	MeasAcked, MeasFailed                         uint64
	ChurnLeft, ChurnDeferred                      uint64
	CancelledOffers, Expired, MicroSchedules      int
	RecoveredPending                              int
	RetryCounts                                   map[string]uint64
	LedgerHeads                                   map[string]string
	OfferStates                                   map[string]map[store.OfferState]int
}

func fingerprintOf(r *simResult) fingerprint {
	retries := make(map[string]uint64)
	for name, rs := range r.Retry {
		retries[name] = rs.Retries
	}
	return fingerprint{
		Injectors:  r.Injectors,
		Controller: r.Controller,
		Submitted:  r.OffersSubmitted, Acked: r.OffersAcked, Accepted: r.OffersAccepted,
		Failed: r.OffersFailed, Reoffered: r.Reoffered,
		MeasAcked: r.MeasAcked, MeasFailed: r.MeasFailed,
		ChurnLeft: r.ChurnLeft, ChurnDeferred: r.ChurnDeferred,
		CancelledOffers: r.CancelledOffers, Expired: r.Expired, MicroSchedules: r.MicroSchedules,
		RecoveredPending: r.RecoveredPending,
		RetryCounts:      retries,
		LedgerHeads:      r.LedgerHeads,
		OfferStates:      r.OfferStates,
	}
}

// TestSameSeedDeterminism: two runs with the same seed must produce
// identical fault schedules, degradation counters and outcomes — a
// failing chaos run reproduces from its seed — and a different seed
// must not. The two same-seed runs use 1 and 4 cores, so the outcome
// may not depend on the core count either.
func TestSameSeedDeterminism(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	a, err := runSim(context.Background(), acceptanceConfig(t, 11))
	if err != nil {
		t.Fatal(err)
	}
	runtime.GOMAXPROCS(4)
	b, err := runSim(context.Background(), acceptanceConfig(t, 11))
	if err != nil {
		t.Fatal(err)
	}
	fa, fb := fingerprintOf(a), fingerprintOf(b)
	if !reflect.DeepEqual(fa, fb) {
		t.Errorf("same seed diverged:\n  run A: %+v\n  run B: %+v", fa, fb)
	}
	c, err := runSim(context.Background(), acceptanceConfig(t, 12))
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(fa.Injectors, fingerprintOf(c).Injectors) {
		t.Error("different seeds drew identical fault streams")
	}
}

// TestScheduleTailRecovery: a crash whose restart lands past the last
// cycle must still be replayed by recovery, and the run must end with
// every node back up and nothing lost.
func TestScheduleTailRecovery(t *testing.T) {
	cfg := simConfig{
		Prosumers: 60, BRPs: 2, Shards: 2,
		Cycles: 4, SlotsPerCycle: 4, StartSlot: 66,
		Seed:   3,
		Faults: "crash=brp-0@3+3", // restart due at cycle 6, two past the end
		Budget: 2 * time.Second, Iters: 50,
		Dir: t.TempDir(),
	}
	res, err := runSim(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Controller.Kills != 1 || res.Controller.Restarts != 1 {
		t.Fatalf("controller = %+v, want the tail restart applied", res.Controller)
	}
	if len(res.LostOffers) > 0 || len(res.LostMeasurements) > 0 {
		t.Errorf("tail recovery lost events: %v %v", res.LostOffers, res.LostMeasurements)
	}
	for name, v := range res.Ledgers {
		if !v.OK {
			t.Errorf("ledger %s broken: %s", name, v.Reason)
		}
	}
}

// TestParseFaultsRejected: a bad -faults string must fail the run
// before any node starts.
func TestParseFaultsRejected(t *testing.T) {
	cfg := simConfig{Faults: "drop=2", Dir: t.TempDir()}
	if _, err := runSim(context.Background(), cfg); err == nil {
		t.Fatal("invalid fault schedule accepted")
	}
}

// TestCancelledRunStillReports: cancelling the context mid-run must
// still produce a verified report over the completed work.
func TestCancelledRunStillReports(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := simConfig{
		Prosumers: 20, BRPs: 1, Shards: 1, Cycles: 2, SlotsPerCycle: 2,
		StartSlot: 66, Seed: 1, Budget: time.Second, Iters: 20, Dir: t.TempDir(),
	}
	res, err := runSim(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles != 0 {
		t.Errorf("cancelled run completed %d cycles", res.Cycles)
	}
	if len(res.LostOffers) > 0 {
		t.Errorf("cancelled run reports losses: %v", res.LostOffers)
	}
}

// TestFlagSet pins the simulator's command line: a new flag is a
// visible diff here.
func TestFlagSet(t *testing.T) {
	fs := flag.NewFlagSet("mirabel-sim", flag.ContinueOnError)
	flags(fs)
	var got []string
	fs.VisitAll(func(f *flag.Flag) { got = append(got, f.Name) })
	want := []string{
		"brps", "budget", "churn", "cycles", "dir", "faults", "iters",
		"measure-every", "pace", "prosumers", "seed", "shards", "slots", "start-slot",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("flags = %v\nwant    %v", got, want)
	}
}
