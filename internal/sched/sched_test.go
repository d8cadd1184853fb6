package sched

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"mirabel/internal/flexoffer"
	"mirabel/internal/market"
	"mirabel/internal/timeseries"
)

// tinyProblem: 8 slots, surplus of 10 kWh in slots 4..5, one offer that
// can soak it up if placed there.
func tinyProblem() *Problem {
	baseline := []float64{0, 0, 0, 0, -10, -10, 0, 0}
	prices := []float64{1, 1, 1, 1, 1, 1, 1, 1}
	offer := &flexoffer.FlexOffer{
		ID:            1,
		EarliestStart: 0,
		LatestStart:   6,
		Profile:       []flexoffer.Slice{{EnergyMin: 0, EnergyMax: 10}, {EnergyMin: 0, EnergyMax: 10}},
	}
	return &Problem{
		Start:          0,
		Slots:          8,
		Baseline:       baseline,
		ImbalancePrice: prices,
		Offers:         []*flexoffer.FlexOffer{offer},
	}
}

func TestProblemValidate(t *testing.T) {
	p := tinyProblem()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := tinyProblem()
	bad.Offers[0].LatestStart = 7 // profile would end at 9 > 8
	if err := bad.Validate(); err == nil {
		t.Error("offer outside horizon accepted")
	}
	bad2 := tinyProblem()
	bad2.Baseline = bad2.Baseline[:4]
	if err := bad2.Validate(); err == nil {
		t.Error("baseline length mismatch accepted")
	}
}

// TestNonFiniteSlotsRefused: a NaN or infinite baseline slot or
// imbalance price makes every candidate cost NaN or +Inf, so no restart
// improves on +Inf. Validate refuses such a problem, naming the slot,
// and every strategy returns that error instead of a nil solution.
func TestNonFiniteSlotsRefused(t *testing.T) {
	for _, tc := range []struct {
		name  string
		spoil func(p *Problem)
		want  string
	}{
		{"NaN baseline", func(p *Problem) { p.Baseline[3] = math.NaN() }, "baseline slot 3 is NaN"},
		{"-Inf baseline", func(p *Problem) { p.Baseline[0] = math.Inf(-1) }, "baseline slot 0 is -Inf"},
		{"+Inf price", func(p *Problem) { p.ImbalancePrice[5] = math.Inf(1) }, "imbalance price of slot 5 is +Inf"},
		{"NaN price", func(p *Problem) { p.ImbalancePrice[7] = math.NaN() }, "imbalance price of slot 7 is NaN"},
	} {
		p := tinyProblem()
		tc.spoil(p)
		if err := p.Validate(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Validate = %v, want an error naming %q", tc.name, err, tc.want)
		}
		for _, s := range []Scheduler{&RandomizedGreedy{}, &Evolutionary{}, &Hybrid{}, &Sweep{}} {
			res, err := s.Schedule(context.Background(), p, Options{MaxIterations: 5, Seed: 1, TimeBudget: time.Hour})
			if err == nil {
				t.Errorf("%s: %s returned no error (solution %v, cost %v)", tc.name, s.Name(), res.Solution, res.Cost)
			}
		}
	}
}

func TestEvaluateKnownCost(t *testing.T) {
	p := tinyProblem()
	// Place the offer exactly on the surplus with full energy: perfect
	// balance, only activation cost (0 per kWh here).
	sol := &Solution{Placements: []Placement{{Start: 4, Energy: []float64{10, 10}}}}
	if cost := p.Evaluate(sol); cost != 0 {
		t.Errorf("balanced cost = %g, want 0", cost)
	}
	// Place it at 0: surplus unabsorbed (20 kWh·1) + consumption
	// unbacked (20 kWh·1) = 40.
	sol = &Solution{Placements: []Placement{{Start: 0, Energy: []float64{10, 10}}}}
	if cost := p.Evaluate(sol); cost != 40 {
		t.Errorf("misplaced cost = %g, want 40", cost)
	}
}

func TestEvaluateWithOfferCost(t *testing.T) {
	p := tinyProblem()
	p.Offers[0].CostPerKWh = 0.5
	sol := &Solution{Placements: []Placement{{Start: 4, Energy: []float64{10, 10}}}}
	if cost := p.Evaluate(sol); math.Abs(cost-10) > 1e-9 {
		t.Errorf("cost = %g, want 10 (20 kWh · 0.5)", cost)
	}
}

func TestSlotCostWithMarket(t *testing.T) {
	prices := timeseries.New(time.Hour, []float64{100}) // 0.1 EUR/kWh mid
	m, err := market.NewDayAhead(market.Config{Prices: prices, SpreadFrac: 0.2, CapacityKWh: 5})
	if err != nil {
		t.Fatal(err)
	}
	p := tinyProblem()
	p.Market = m
	// Deficit of 8 with capacity 5 at buy 0.11: buy 5, penalize 3.
	got := p.slotCost(0, 8)
	want := 5*0.11 + 3*1.0
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("slotCost(deficit) = %g, want %g", got, want)
	}
	// Surplus of 3 at sell 0.09: sell all, revenue −0.27.
	got = p.slotCost(0, -3)
	if math.Abs(got-(-0.27)) > 1e-9 {
		t.Errorf("slotCost(surplus) = %g, want −0.27", got)
	}
}

func TestSlotCostMarketWorseThanPenalty(t *testing.T) {
	prices := timeseries.New(time.Hour, []float64{5000}) // 5 EUR/kWh
	m, err := market.NewDayAhead(market.Config{Prices: prices})
	if err != nil {
		t.Fatal(err)
	}
	p := tinyProblem()
	p.Market = m // imbalance penalty 1 < buy price 5: do not buy
	if got := p.slotCost(0, 8); math.Abs(got-8) > 1e-9 {
		t.Errorf("slotCost = %g, want 8 (pure penalty)", got)
	}
}

func TestGreedyFindsTheSurplus(t *testing.T) {
	g := &RandomizedGreedy{}
	res, err := g.Schedule(context.Background(), tinyProblem(), Options{MaxIterations: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost > 1e-9 {
		t.Errorf("greedy cost = %g, want 0", res.Cost)
	}
	if res.Solution.Placements[0].Start != 4 {
		t.Errorf("greedy start = %d, want 4", res.Solution.Placements[0].Start)
	}
}

func TestGreedySolutionsAreValid(t *testing.T) {
	p, err := BuildScenario(ScenarioConfig{Offers: 50, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	g := &RandomizedGreedy{}
	res, err := g.Schedule(context.Background(), p, Options{MaxIterations: 3, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.ValidateSolution(res.Solution); err != nil {
		t.Errorf("greedy produced invalid solution: %v", err)
	}
	// Incremental accumulation and re-evaluation may differ by rounding.
	if ev := p.Evaluate(res.Solution); math.Abs(ev-res.Cost) > 1e-9*(1+math.Abs(ev)) {
		t.Errorf("reported cost %g != evaluated %g", res.Cost, ev)
	}
}

func TestEvolutionarySolutionsAreValidAndImprove(t *testing.T) {
	p, err := BuildScenario(ScenarioConfig{Offers: 30, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	ea := &Evolutionary{}
	res, err := ea.Schedule(context.Background(), p, Options{MaxIterations: 40, Seed: 5, TraceEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.ValidateSolution(res.Solution); err != nil {
		t.Fatalf("EA produced invalid solution: %v", err)
	}
	first := res.Trace[0].Cost
	last := res.Trace[len(res.Trace)-1].Cost
	if last > first {
		t.Errorf("EA got worse over time: %g → %g", first, last)
	}
	if last >= p.BaselineCost() {
		t.Errorf("EA cost %g not better than unscheduled baseline %g", last, p.BaselineCost())
	}
}

func TestTraceMonotoneNonIncreasing(t *testing.T) {
	p, err := BuildScenario(ScenarioConfig{Offers: 20, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []Scheduler{&RandomizedGreedy{}, &Evolutionary{}} {
		res, err := s.Schedule(context.Background(), p, Options{MaxIterations: 25, Seed: 7, TraceEvery: 1})
		if err != nil {
			t.Fatal(err)
		}
		prev := math.Inf(1)
		for i, tp := range res.Trace {
			if tp.Cost > prev+1e-9 {
				t.Errorf("%s: trace[%d] cost %g > prev %g", s.Name(), i, tp.Cost, prev)
			}
			prev = tp.Cost
		}
	}
}

func TestExhaustiveOptimalOnTiny(t *testing.T) {
	p := tinyProblem()
	x := &Exhaustive{}
	res, err := x.Schedule(context.Background(), p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// With midpoint energies (5 per slice) the best is soaking 10 of the
	// 20 surplus: cost 10·1 (residual surplus) + 0 activation.
	if math.Abs(res.Cost-10) > 1e-9 {
		t.Errorf("exhaustive cost = %g, want 10", res.Cost)
	}
	if res.Solution.Placements[0].Start != 4 {
		t.Errorf("exhaustive start = %d, want 4", res.Solution.Placements[0].Start)
	}
	// 7 start positions enumerated.
	if res.Iterations != 7 {
		t.Errorf("iterations = %d, want 7", res.Iterations)
	}
}

func TestExhaustiveLimit(t *testing.T) {
	p, err := BuildScenario(ScenarioConfig{Offers: 40, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	x := &Exhaustive{Limit: 1000}
	if _, err := x.Schedule(context.Background(), p, Options{}); err == nil {
		t.Error("exhaustive accepted an instance over its limit")
	}
}

func TestGreedyNearOptimalOnSmallInstances(t *testing.T) {
	p, err := BuildScenario(ScenarioConfig{Offers: 5, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	optimal, err := (&Exhaustive{}).Schedule(context.Background(), p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	heuristic, err := (&RandomizedGreedy{}).Schedule(context.Background(), p, Options{MaxIterations: 50, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	// The heuristic chooses energies freely, so it may beat the
	// midpoint-energy optimum; it must never be much worse.
	if heuristic.Cost-optimal.Cost > 0.25*math.Abs(optimal.Cost)+1e-6 {
		t.Errorf("greedy %g much worse than optimal %g", heuristic.Cost, optimal.Cost)
	}
}

func TestCountSolutions(t *testing.T) {
	p := tinyProblem()
	if got := p.CountSolutions(); got != 7 {
		t.Errorf("CountSolutions = %g, want 7", got)
	}
}

func TestBuildScenarioValidation(t *testing.T) {
	if _, err := BuildScenario(ScenarioConfig{}); err == nil {
		t.Error("zero offers accepted")
	}
	p, err := BuildScenario(ScenarioConfig{Offers: 100, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Offers) != 100 || p.Slots != flexoffer.SlotsPerDay {
		t.Errorf("scenario shape: offers=%d slots=%d", len(p.Offers), p.Slots)
	}
}

func TestSchedulingReducesCostVsBaseline(t *testing.T) {
	// The headline claim: scheduling flexibilities reduces imbalance
	// cost versus everyone consuming on their default profile.
	p, err := BuildScenario(ScenarioConfig{Offers: 200, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	g := &RandomizedGreedy{}
	res, err := g.Schedule(context.Background(), p, Options{MaxIterations: 5, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	base := p.BaselineCost()
	if res.Cost >= base {
		t.Errorf("scheduled cost %g >= default cost %g", res.Cost, base)
	}
	// The savings should be substantial (> 25%).
	if res.Cost > 0.75*base {
		t.Errorf("savings too small: %g vs %g", res.Cost, base)
	}
}

func TestGreedyFillAblation(t *testing.T) {
	// The greedy energy-fill must beat midpoint fill on a scenario with
	// real surpluses to chase.
	p, err := BuildScenario(ScenarioConfig{Offers: 100, Seed: 14})
	if err != nil {
		t.Fatal(err)
	}
	greedyFill, err := (&RandomizedGreedy{Fill: FillGreedy}).Schedule(context.Background(), p, Options{MaxIterations: 5, Seed: 15})
	if err != nil {
		t.Fatal(err)
	}
	midFill, err := (&RandomizedGreedy{Fill: FillMidpoint}).Schedule(context.Background(), p, Options{MaxIterations: 5, Seed: 15})
	if err != nil {
		t.Fatal(err)
	}
	if greedyFill.Cost >= midFill.Cost {
		t.Errorf("greedy fill %g not better than midpoint fill %g", greedyFill.Cost, midFill.Cost)
	}
}

func TestMarketLowersScheduleCost(t *testing.T) {
	// With a market, residual imbalances trade at spot instead of paying
	// the full penalty: the same schedule must cost no more.
	prices := timeseries.New(time.Hour, repeatVals(60, 48))
	m, err := market.NewDayAhead(market.Config{Prices: prices, CapacityKWh: 1e6})
	if err != nil {
		t.Fatal(err)
	}
	noMarket, err := BuildScenario(ScenarioConfig{Offers: 50, Seed: 16})
	if err != nil {
		t.Fatal(err)
	}
	withMarket, err := BuildScenario(ScenarioConfig{Offers: 50, Seed: 16, Market: m})
	if err != nil {
		t.Fatal(err)
	}
	g := &RandomizedGreedy{}
	a, err := g.Schedule(context.Background(), noMarket, Options{MaxIterations: 3, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	b, err := g.Schedule(context.Background(), withMarket, Options{MaxIterations: 3, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	if b.Cost > a.Cost+1e-9 {
		t.Errorf("market access raised the cost: %g vs %g", b.Cost, a.Cost)
	}
}

func repeatVals(v float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = v
	}
	return out
}

// Property: for random solutions of random scenarios, Evaluate is
// deterministic and schedules round-trip through Schedules/Validate.
func TestPropertyEvaluateDeterministicAndValid(t *testing.T) {
	f := func(seed int64) bool {
		p, err := BuildScenario(ScenarioConfig{Offers: 10, Seed: seed})
		if err != nil {
			return false
		}
		g := &RandomizedGreedy{}
		res, err := g.Schedule(context.Background(), p, Options{MaxIterations: 1, Seed: seed})
		if err != nil {
			return false
		}
		if p.Evaluate(res.Solution) != p.Evaluate(res.Solution) {
			return false
		}
		for i, s := range p.Schedules(res.Solution) {
			if p.Offers[i].ValidateSchedule(s) != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestSchedulersHonorCancellation(t *testing.T) {
	// A big instance with a generous budget: only cancellation can end
	// the search quickly. Every strategy must return ctx.Err() promptly.
	p, err := BuildScenario(ScenarioConfig{Offers: 400, Seed: 18})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []Scheduler{&RandomizedGreedy{}, &Evolutionary{}, &Hybrid{}} {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
		t0 := time.Now()
		_, err := s.Schedule(ctx, p, Options{TimeBudget: time.Hour, Seed: 19})
		cancel()
		if err == nil {
			t.Errorf("%s: canceled search returned nil error", s.Name())
		}
		// Prompt means well under the one-hour budget; allow slack for a
		// single in-flight iteration on a loaded machine.
		if elapsed := time.Since(t0); elapsed > 5*time.Second {
			t.Errorf("%s: cancellation took %v", s.Name(), elapsed)
		}
	}

	// A GS run cancelled after some restarts returns the best of exactly
	// the restarts it observed, and those are the serial loop's first
	// ones: the trace counts them one by one, and re-running that many
	// restarts gives the same result.
	small, err := BuildScenario(ScenarioConfig{Offers: 50, Seed: 18})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	res, err := (&RandomizedGreedy{}).Schedule(ctx, small, Options{TimeBudget: time.Hour, Seed: 19, TraceEvery: 1})
	if err == nil {
		t.Fatal("GS: canceled search returned nil error")
	}
	if res.Iterations == 0 {
		t.Fatal("GS: no restart finished before cancellation")
	}
	if err := small.ValidateSolution(res.Solution); err != nil {
		t.Fatalf("GS: canceled run returned an invalid solution: %v", err)
	}
	if len(res.Trace) != res.Iterations+1 {
		t.Fatalf("GS: %d trace points for %d iterations", len(res.Trace), res.Iterations)
	}
	for i, tp := range res.Trace[:res.Iterations] {
		if tp.Iterations != i+1 {
			t.Fatalf("GS: trace[%d] counts %d restarts, want %d", i, tp.Iterations, i+1)
		}
	}
	prefix, err := (&RandomizedGreedy{}).Schedule(context.Background(), small, Options{MaxIterations: res.Iterations, Seed: 19, TraceEvery: 1, TimeBudget: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, "GS canceled vs serial prefix", res, prefix)
}

// TestBudgetSpentBeforeFirstSchedule: a search whose budget runs out
// before it builds anything returns ErrNoSolution, never a nil error
// with a nil Solution, which a caller would dereference.
func TestBudgetSpentBeforeFirstSchedule(t *testing.T) {
	p, err := BuildScenario(ScenarioConfig{Offers: 50, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []Scheduler{&RandomizedGreedy{}, &Evolutionary{}, &Hybrid{}} {
		res, err := s.Schedule(context.Background(), p, Options{TimeBudget: time.Nanosecond, Seed: 22})
		switch {
		case err == nil && res.Solution == nil:
			t.Errorf("%s: nil error without a solution", s.Name())
		case err == nil:
			if verr := p.ValidateSolution(res.Solution); verr != nil {
				t.Errorf("%s: invalid solution: %v", s.Name(), verr)
			}
		case res.Solution == nil && !errors.Is(err, ErrNoSolution):
			t.Errorf("%s: error %v without a solution, want ErrNoSolution", s.Name(), err)
		}
	}
}

func TestExhaustiveHonorsCancellation(t *testing.T) {
	p, err := BuildScenario(ScenarioConfig{Offers: 8, Seed: 20})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := (&Exhaustive{}).Schedule(ctx, p, Options{}); err == nil {
		t.Error("canceled enumeration returned nil error")
	}
}

// pastWindowProblem is a planning instance whose planning time has
// slipped into one offer's start window: EarliestStart (2) < Start (4)
// ≤ LatestStart (6). Such offers used to be rejected by Validate (and
// were prematurely expired by the scheduling cycle); they are still
// schedulable in the remainder of their window.
func pastWindowProblem() *Problem {
	baseline := []float64{0, 0, -10, -10, 0, 0, 0, 0}
	prices := []float64{1, 1, 1, 1, 1, 1, 1, 1}
	offer := &flexoffer.FlexOffer{
		ID:            1,
		AssignBefore:  2,
		EarliestStart: 2,
		LatestStart:   6,
		Profile:       []flexoffer.Slice{{EnergyMin: 0, EnergyMax: 10}, {EnergyMin: 0, EnergyMax: 10}},
	}
	return &Problem{
		Start:          4,
		Slots:          8,
		Baseline:       baseline,
		ImbalancePrice: prices,
		Offers:         []*flexoffer.FlexOffer{offer},
	}
}

func TestStartWindowClampsAtPlanningTime(t *testing.T) {
	p := pastWindowProblem()
	lo, hi := p.StartWindow(p.Offers[0])
	if lo != 4 || hi != 6 {
		t.Fatalf("StartWindow = [%d, %d], want [4, 6]", lo, hi)
	}
	// Within the window, EarliestStart still governs.
	early := &flexoffer.FlexOffer{EarliestStart: 5, LatestStart: 6}
	if lo, hi := p.StartWindow(early); lo != 5 || hi != 6 {
		t.Fatalf("StartWindow = [%d, %d], want [5, 6]", lo, hi)
	}
}

// TestPastEarliestStartOffersStaySchedulable is the regression test for
// the premature-expiry bug: an offer with EarliestStart < Start ≤
// LatestStart must pass validation and every strategy must place it at
// a start inside the clamped window [Start, LatestStart] — never in the
// past. Before the fix Validate rejected the instance outright.
func TestPastEarliestStartOffersStaySchedulable(t *testing.T) {
	p := pastWindowProblem()
	if err := p.Validate(); err != nil {
		t.Fatalf("still-schedulable offer rejected: %v", err)
	}
	// BaselineCost must clamp the default placement too (it would index
	// the net position out of range otherwise).
	_ = p.BaselineCost()

	for _, s := range []Scheduler{&RandomizedGreedy{}, &Evolutionary{}, &Hybrid{}, &Sweep{}, &Exhaustive{}} {
		res, err := s.Schedule(context.Background(), p, Options{MaxIterations: 5, Seed: 11})
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		start := res.Solution.Placements[0].Start
		if start < p.Start || start > p.Offers[0].LatestStart {
			t.Errorf("%s placed start %d outside clamped window [%d, %d]", s.Name(), start, p.Start, p.Offers[0].LatestStart)
		}
		if err := p.ValidateSolution(res.Solution); err != nil {
			t.Errorf("%s: %v", s.Name(), err)
		}
	}

	// Truly closed windows (LatestStart < Start) still fail validation.
	gone := pastWindowProblem()
	gone.Offers[0].LatestStart = 3
	if err := gone.Validate(); err == nil {
		t.Error("offer with closed start window accepted")
	}
}
