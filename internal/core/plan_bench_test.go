package core

import (
	"context"
	"math"
	"testing"
	"time"

	"mirabel/internal/agg"
	"mirabel/internal/flexoffer"
	"mirabel/internal/sched"
	"mirabel/internal/workload"
)

// cycleOffers generates the offers one round of the repository
// benchmark's cycle workload plans at now: 5,000 generated offers
// re-based onto the planning time the way the benchmark's generator
// does it (device profile, time flexibility and price kept; time of day
// compressed into the part of the one-day horizon where the offer
// fits), expired ones dropped.
func cycleOffers(now flexoffer.Time) []*flexoffer.FlexOffer {
	const (
		offers     = 5000
		horizon    = flexoffer.SlotsPerDay
		assignLead = 2 * flexoffer.SlotsPerHour
	)
	end := now + horizon
	var out []*flexoffer.FlexOffer
	for _, base := range workload.GenerateFlexOffers(workload.FlexOfferConfig{Count: offers, Seed: 7}) {
		f := *base
		tf := f.TimeFlexibility()
		room := horizon - assignLead - int(tf) - f.NumSlices()
		offset := int(f.EarliestStart%flexoffer.SlotsPerDay) * (room + 1) / flexoffer.SlotsPerDay
		f.EarliestStart = now + assignLead + flexoffer.Time(offset)
		f.LatestStart = f.EarliestStart + tf
		f.AssignBefore = f.EarliestStart - assignLead
		if !offerExpiredAt(&f, now, end) {
			out = append(out, &f)
		}
	}
	return out
}

// cycleBaseline is the benchmark's midday-surplus baseline.
func cycleBaseline() []float64 {
	baseline := make([]float64, flexoffer.SlotsPerDay)
	for i := range baseline {
		s := math.Sin(math.Pi * float64(i) / flexoffer.SlotsPerDay)
		baseline[i] = 200 - 1400*s*s
	}
	return baseline
}

// cyclePlanProblem builds the problem one round of the repository
// benchmark's cycle workload plans: cycleOffers aggregated with
// ParamsP3, and buildProblem over the surviving aggregates with the
// benchmark's baseline and the default flat imbalance price.
func cyclePlanProblem(tb testing.TB) *sched.Problem {
	tb.Helper()
	const horizon = flexoffer.SlotsPerDay
	now := flexoffer.Time(flexoffer.SlotsPerDay)
	end := now + horizon
	p := agg.NewPipeline(agg.ParamsP3)
	for _, f := range cycleOffers(now) {
		if err := p.Accumulate(agg.FlexOfferUpdate{Kind: agg.Insert, Offer: f}); err != nil {
			tb.Fatal(err)
		}
	}
	p.Process()
	var aggregates []*agg.Aggregate
	for _, a := range p.Aggregates() {
		if a.Offer.LatestStart >= now && a.Offer.LatestEnd() <= end {
			aggregates = append(aggregates, a)
		}
	}
	return buildProblem(now, horizon, aggregates, StaticForecast(cycleBaseline()), nil, nil)
}

// BenchmarkCyclePlan times the cycle's search alone, on the problem
// cyclePlanProblem builds untimed, at the cycle workload's 1,000-pass
// budget: the node's planner (SW, sched.Sweep) and, for comparison,
// the paper's RandomizedGreedy (GS) at 1,000 restarts. Each reports its
// plan's cost as a fraction of the baseline cost, and the instance's
// shape — aggregates, mean profile length, mean start window (latest
// minus earliest start, so an aggregate has one start offset more) and
// the (offset, slice) pairs one construction prices — so it can be held
// against a traced cycle run.
func BenchmarkCyclePlan(b *testing.B) {
	p := cyclePlanProblem(b)
	var slices, window, pairs float64
	for _, f := range p.Offers {
		lo, hi := p.StartWindow(f)
		slices += float64(len(f.Profile))
		window += float64(hi - lo)
		pairs += float64(hi-lo+1) * float64(len(f.Profile))
	}
	base := p.BaselineCost()
	opt := sched.Options{MaxIterations: 1000, Seed: 7, TimeBudget: time.Minute}
	for _, s := range []sched.Scheduler{&sched.Sweep{}, &sched.RandomizedGreedy{}} {
		b.Run(s.Name(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := s.Schedule(context.Background(), p, opt)
				if err != nil {
					b.Fatal(err)
				}
				planCost = res.Cost
			}
			b.StopTimer()
			n := float64(len(p.Offers))
			b.ReportMetric(float64(b.Elapsed().Microseconds())/1e3/float64(b.N), "ms/op")
			b.ReportMetric(planCost/base, "cost/baseline")
			b.ReportMetric(n, "aggregates")
			b.ReportMetric(slices/n, "slices/aggregate")
			b.ReportMetric(window/n, "window/aggregate")
			b.ReportMetric(pairs, "pairs/construction")
		})
	}
}

// planCost keeps the benchmarked search's result alive.
var planCost float64
