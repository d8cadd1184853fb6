// Package mirabel's root benchmarks regenerate every figure of the
// paper's evaluation (§9) as testing.B benchmarks. Each figure panel has
// one bench; cmd/mirabel-bench prints the full series sweeps. Custom
// metrics carry the figure's y-axis value (aggregate counts, SMAPE,
// schedule cost) alongside ns/op.
package mirabel

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mirabel/internal/agg"
	"mirabel/internal/comm"
	"mirabel/internal/core"
	"mirabel/internal/flexoffer"
	"mirabel/internal/forecast"
	"mirabel/internal/market"
	"mirabel/internal/optimize"
	"mirabel/internal/sched"
	"mirabel/internal/store"
	"mirabel/internal/workload"
)

// benchOffers is the per-iteration dataset size of the Figure 5 benches
// (the paper sweeps to 800 000; cmd/mirabel-bench does the full sweep).
const benchOffers = 100000

var figParams = []struct {
	name   string
	params agg.Params
}{
	{"P0", agg.ParamsP0},
	{"P1", agg.ParamsP1},
	{"P2", agg.ParamsP2},
	{"P3", agg.ParamsP3},
}

func benchDataset(b *testing.B, n int) []agg.FlexOfferUpdate {
	b.Helper()
	offers := workload.GenerateFlexOffers(workload.FlexOfferConfig{Count: n, Seed: 1})
	ups := make([]agg.FlexOfferUpdate, len(offers))
	for i, f := range offers {
		ups[i] = agg.FlexOfferUpdate{Kind: agg.Insert, Offer: f}
	}
	return ups
}

// BenchmarkFig5aCompression regenerates Figure 5a: the number of
// aggregated flex-offers per parameter combination (metric
// "aggregates").
func BenchmarkFig5aCompression(b *testing.B) {
	ups := benchDataset(b, benchOffers)
	for _, tc := range figParams {
		b.Run(tc.name, func(b *testing.B) {
			var aggs int
			for i := 0; i < b.N; i++ {
				p := agg.NewPipeline(tc.params, agg.BinPackerOptions{})
				if _, err := p.Apply(ups...); err != nil {
					b.Fatal(err)
				}
				aggs = p.CurrentMetrics().Aggregates
			}
			b.ReportMetric(float64(aggs), "aggregates")
			b.ReportMetric(float64(benchOffers)/float64(aggs), "compression")
		})
	}
}

// BenchmarkFig5bAggregationTime regenerates Figure 5b: aggregation time
// per parameter combination (ns/op is the figure's y-axis).
func BenchmarkFig5bAggregationTime(b *testing.B) {
	ups := benchDataset(b, benchOffers)
	for _, tc := range figParams {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p := agg.NewPipeline(tc.params, agg.BinPackerOptions{})
				if _, err := p.Apply(ups...); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig5cFlexLoss regenerates Figure 5c: time-flexibility loss
// per flex-offer (metric "loss_slots/offer").
func BenchmarkFig5cFlexLoss(b *testing.B) {
	ups := benchDataset(b, benchOffers)
	for _, tc := range figParams {
		b.Run(tc.name, func(b *testing.B) {
			var loss float64
			for i := 0; i < b.N; i++ {
				p := agg.NewPipeline(tc.params, agg.BinPackerOptions{})
				if _, err := p.Apply(ups...); err != nil {
					b.Fatal(err)
				}
				loss = p.CurrentMetrics().LossPerOffer
			}
			b.ReportMetric(loss, "loss_slots/offer")
		})
	}
}

// BenchmarkFig5dDisaggregation regenerates Figure 5d: disaggregation
// time (ns/op) against the aggregation time of the same dataset (metric
// "disagg/agg_ratio"; the paper reports ≈ 0.36).
func BenchmarkFig5dDisaggregation(b *testing.B) {
	ups := benchDataset(b, benchOffers)
	for _, tc := range figParams {
		b.Run(tc.name, func(b *testing.B) {
			p := agg.NewPipeline(tc.params, agg.BinPackerOptions{})
			t0 := time.Now()
			if _, err := p.Apply(ups...); err != nil {
				b.Fatal(err)
			}
			aggTime := time.Since(t0)
			// Mid-flexibility schedules for every aggregate.
			scheds := make([]*flexoffer.Schedule, 0, len(p.Aggregates()))
			for _, a := range p.Aggregates() {
				energy := make([]float64, a.Offer.NumSlices())
				for j, sl := range a.Offer.Profile {
					energy[j] = (sl.EnergyMin + sl.EnergyMax) / 2
				}
				scheds = append(scheds, &flexoffer.Schedule{
					OfferID: a.Offer.ID,
					Start:   a.Offer.EarliestStart + a.Offer.TimeFlexibility()/2,
					Energy:  energy,
				})
			}
			b.ResetTimer()
			var disaggTime time.Duration
			for i := 0; i < b.N; i++ {
				t0 := time.Now()
				if _, err := p.Disaggregate(scheds); err != nil {
					b.Fatal(err)
				}
				disaggTime = time.Since(t0)
			}
			b.ReportMetric(disaggTime.Seconds()/aggTime.Seconds(), "disagg/agg_ratio")
		})
	}
}

// BenchmarkFig4aEstimators regenerates Figure 4a: HWT parameter
// estimation with the three global search strategies; the metric "smape"
// is the accuracy each strategy reaches within the fixed budget.
func BenchmarkFig4aEstimators(b *testing.B) {
	demand := workload.DemandSeries(workload.DemandConfig{Days: 28, Seed: 1})
	vals := demand.Values()
	for _, est := range []optimize.Estimator{
		&optimize.RandomRestartNelderMead{},
		&optimize.SimulatedAnnealing{},
		optimize.RandomSearch{},
	} {
		b.Run(est.Name(), func(b *testing.B) {
			var smape float64
			for i := 0; i < b.N; i++ {
				_, res, err := forecast.FitHWT(vals, []int{48, 336}, forecast.FitConfig{
					Estimator: est,
					Options:   optimize.Options{MaxEvaluations: 300, Seed: 2},
				})
				if err != nil {
					b.Fatal(err)
				}
				smape = res.Value
			}
			b.ReportMetric(smape, "smape")
		})
	}
}

// BenchmarkFig4bHorizon regenerates Figure 4b: forecast accuracy at
// growing horizons for the demand and wind series (metric "smape").
func BenchmarkFig4bHorizon(b *testing.B) {
	series := map[string][]float64{
		"demand": workload.DemandSeries(workload.DemandConfig{Days: 28, Seed: 1}).Values(),
		"wind":   workload.WindSeries(workload.WindConfig{Days: 28, Seed: 1}).Values(),
	}
	for _, name := range []string{"demand", "wind"} {
		vals := series[name]
		split := len(vals) - 2*336
		for _, h := range []int{1, 48, 192} { // 30 min, 1 day, 4 days
			b.Run(fmt.Sprintf("%s/h%d", name, h), func(b *testing.B) {
				var smape float64
				for i := 0; i < b.N; i++ {
					m, _, err := forecast.FitHWT(vals[:split], []int{48, 336}, forecast.FitConfig{
						Options: optimize.Options{MaxEvaluations: 200, Seed: 3},
					})
					if err != nil {
						b.Fatal(err)
					}
					smape, err = forecast.HorizonSMAPE(m, vals[split:], h)
					if err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(smape, "smape")
			})
		}
	}
}

// BenchmarkFig6Scheduling regenerates Figure 6: schedule cost reached by
// the evolutionary algorithm and the randomized greedy search on intra-
// day scenarios of growing size, within a budget that scales like the
// paper's time axes (metric "cost_eur").
func BenchmarkFig6Scheduling(b *testing.B) {
	for _, n := range []int{10, 100, 1000} {
		p, err := sched.BuildScenario(sched.ScenarioConfig{Offers: n, Seed: 42})
		if err != nil {
			b.Fatal(err)
		}
		budget := time.Duration(n) * time.Millisecond
		if budget < 50*time.Millisecond {
			budget = 50 * time.Millisecond
		}
		for _, s := range []sched.Scheduler{&sched.Evolutionary{}, &sched.RandomizedGreedy{}} {
			b.Run(fmt.Sprintf("%s/%d", s.Name(), n), func(b *testing.B) {
				var cost float64
				for i := 0; i < b.N; i++ {
					res, err := s.Schedule(context.Background(), p, sched.Options{TimeBudget: budget, Seed: 7})
					if err != nil {
						b.Fatal(err)
					}
					cost = res.Cost
				}
				b.ReportMetric(cost, "cost_eur")
			})
		}
	}
}

// --- scheduler hot-path benchmarks -------------------------------------

// benchSchedInstance is the tentpole's reference instance: 64
// aggregated flex-offers on a 96-slot day with a market attached, so
// every full evaluation pays real Market.Quote calls.
func benchSchedInstance(b *testing.B) *sched.Problem {
	b.Helper()
	prices := workload.PriceSeries(workload.PriceConfig{Days: 2, Seed: 1})
	m, err := market.NewDayAhead(market.Config{Prices: prices, CapacityKWh: 2000})
	if err != nil {
		b.Fatal(err)
	}
	p, err := sched.BuildScenario(sched.ScenarioConfig{Offers: 64, Seed: 33, Market: m})
	if err != nil {
		b.Fatal(err)
	}
	return p
}

// BenchmarkSchedEvalThroughput measures candidate-evaluation throughput
// on the 64-offer/96-slot market instance: the seed's full
// Problem.Evaluate (fresh net slice + Market.Quote per slot) against
// the compiled evaluator (quote table, reused state) and against
// single-offer delta updates — the EA's steady-state operation. The
// "evals/s" metric is the headline: delta+compiled must be ≥5× full.
func BenchmarkSchedEvalThroughput(b *testing.B) {
	p := benchSchedInstance(b)
	res, err := (&sched.RandomizedGreedy{}).Schedule(context.Background(), p, sched.Options{MaxIterations: 1, Seed: 2})
	if err != nil {
		b.Fatal(err)
	}
	sol := res.Solution
	c, err := sched.Compile(p)
	if err != nil {
		b.Fatal(err)
	}

	b.Run("full", func(b *testing.B) {
		b.ReportAllocs()
		t0 := time.Now()
		for i := 0; i < b.N; i++ {
			p.Evaluate(sol)
		}
		b.ReportMetric(float64(b.N)/time.Since(t0).Seconds(), "evals/s")
	})
	b.Run("compiled", func(b *testing.B) {
		ev := c.NewEval()
		b.ReportAllocs()
		b.ResetTimer()
		t0 := time.Now()
		for i := 0; i < b.N; i++ {
			ev.Init(sol)
		}
		b.ReportMetric(float64(b.N)/time.Since(t0).Seconds(), "evals/s")
	})
	b.Run("delta", func(b *testing.B) {
		ev := c.NewEval()
		ev.Init(sol)
		lo, hi := p.StartWindow(p.Offers[0])
		flip := sol.Placements[0].Start
		other := lo
		if flip == lo && hi > lo {
			other = lo + 1
		}
		energy := sol.Placements[0].Energy
		b.ReportAllocs()
		b.ResetTimer()
		t0 := time.Now()
		for i := 0; i < b.N; i++ {
			ev.SetPlacement(0, other, energy)
			flip, other = other, flip
		}
		b.ReportMetric(float64(b.N)/time.Since(t0).Seconds(), "evals/s")
	})
}

// BenchmarkSchedParallelSpeedup measures the portfolio's
// quality-per-budget at 1/2/4/8 workers on the reference instance: the
// "cost_eur" metric is what each worker count reaches within a fixed
// 150 ms budget (lower is better; on multi-core hardware more workers
// evaluate proportionally more candidates in the same wall time).
func BenchmarkSchedParallelSpeedup(b *testing.B) {
	p := benchSchedInstance(b)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers%d", workers), func(b *testing.B) {
			var cost float64
			for i := 0; i < b.N; i++ {
				res, err := (&sched.Parallel{Workers: workers}).Schedule(context.Background(), p,
					sched.Options{TimeBudget: 150 * time.Millisecond, Seed: 3})
				if err != nil {
					b.Fatal(err)
				}
				cost = res.Cost
			}
			b.ReportMetric(cost, "cost_eur")
		})
	}
}

// BenchmarkAblationBinPacker measures the bin-packer's overhead and its
// effect on aggregate counts (DESIGN.md §6: optional stage).
func BenchmarkAblationBinPacker(b *testing.B) {
	ups := benchDataset(b, 50000)
	for _, tc := range []struct {
		name string
		opts agg.BinPackerOptions
	}{
		{"off", agg.BinPackerOptions{}},
		{"max50members", agg.BinPackerOptions{MaxMembers: 50}},
		{"max2MWh", agg.BinPackerOptions{MaxEnergyKWh: 2000}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			var aggs int
			for i := 0; i < b.N; i++ {
				p := agg.NewPipeline(agg.ParamsP3, tc.opts)
				if _, err := p.Apply(ups...); err != nil {
					b.Fatal(err)
				}
				aggs = p.CurrentMetrics().Aggregates
			}
			b.ReportMetric(float64(aggs), "aggregates")
		})
	}
}

// BenchmarkAblationEnergyFill compares the greedy imbalance-canceling
// energy fill against the midpoint baseline (DESIGN.md §6).
func BenchmarkAblationEnergyFill(b *testing.B) {
	p, err := sched.BuildScenario(sched.ScenarioConfig{Offers: 200, Seed: 9})
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		fill sched.FillMode
	}{
		{"greedy", sched.FillGreedy},
		{"midpoint", sched.FillMidpoint},
	} {
		b.Run(tc.name, func(b *testing.B) {
			var cost float64
			for i := 0; i < b.N; i++ {
				res, err := (&sched.RandomizedGreedy{Fill: tc.fill}).Schedule(context.Background(), p, sched.Options{MaxIterations: 5, Seed: 10})
				if err != nil {
					b.Fatal(err)
				}
				cost = res.Cost
			}
			b.ReportMetric(cost, "cost_eur")
		})
	}
}

// BenchmarkAblationWarmStart compares cold parameter estimation against
// a warm start from previously estimated parameters (the context-aware
// adaptation path).
func BenchmarkAblationWarmStart(b *testing.B) {
	vals := workload.DemandSeries(workload.DemandConfig{Days: 21, Seed: 4}).Values()
	good, _, err := forecast.FitHWT(vals, []int{48}, forecast.FitConfig{
		Options: optimize.Options{MaxEvaluations: 600, Seed: 5},
	})
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		start []float64
	}{
		{"cold", nil},
		{"warm", good.Params()},
	} {
		b.Run(tc.name, func(b *testing.B) {
			var smape float64
			for i := 0; i < b.N; i++ {
				_, res, err := forecast.FitHWT(vals, []int{48}, forecast.FitConfig{
					Options: optimize.Options{MaxEvaluations: 60, Seed: 6},
					Start:   tc.start,
				})
				if err != nil {
					b.Fatal(err)
				}
				smape = res.Value
			}
			b.ReportMetric(smape, "smape")
		})
	}
}

// BenchmarkAblationTimeFlexibility sweeps the offers' time flexibility
// (§6 research directions: "the complexity of the search space heavily
// depends also on the start time flexibilities of the included
// flex-offers") and reports the cost the greedy search reaches within a
// fixed budget plus the search-space size.
func BenchmarkAblationTimeFlexibility(b *testing.B) {
	for _, maxTF := range []int{4, 16, 64} {
		p, err := sched.BuildScenario(sched.ScenarioConfig{Offers: 200, Seed: 31, MaxTFSlots: maxTF})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("maxTF%d", maxTF), func(b *testing.B) {
			var cost float64
			for i := 0; i < b.N; i++ {
				res, err := (&sched.RandomizedGreedy{}).Schedule(context.Background(), p, sched.Options{TimeBudget: 100 * time.Millisecond, Seed: 32})
				if err != nil {
					b.Fatal(err)
				}
				cost = res.Cost
			}
			b.ReportMetric(cost, "cost_eur")
			b.ReportMetric(math.Log10(p.CountSolutions()), "log10_search_space")
		})
	}
}

// BenchmarkAblationIncrementalAggregation compares incremental
// maintenance (one batch per 1000 offers) against one-shot aggregation
// from scratch.
func BenchmarkAblationIncrementalAggregation(b *testing.B) {
	ups := benchDataset(b, 50000)
	b.Run("one-shot", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p := agg.NewPipeline(agg.ParamsP3, agg.BinPackerOptions{})
			if _, err := p.Apply(ups...); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("batches-of-1000", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p := agg.NewPipeline(agg.ParamsP3, agg.BinPackerOptions{})
			for off := 0; off < len(ups); off += 1000 {
				end := off + 1000
				if end > len(ups) {
					end = len(ups)
				}
				if _, err := p.Apply(ups[off:end]...); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkAggChurn measures one churn cycle — 1% of a 100 000-offer
// population replaced, applied as a single accumulate-then-process
// batch — on the live incremental pipeline against rebuilding the whole
// pipeline from scratch with the post-churn population. The batched
// delta engine only pays for touched aggregates (boundary owners
// rebuild, everything else is an O(profile) delta), so the incremental
// path should beat from-scratch by well over an order of magnitude.
func BenchmarkAggChurn(b *testing.B) {
	const n = benchOffers
	const churn = n / 100
	offers := workload.GenerateFlexOffers(workload.FlexOfferConfig{Count: n, Seed: 1})

	// churnStep replaces churn offers starting at cursor with clones
	// under fresh IDs and returns the delete+insert batch.
	nextID := flexoffer.ID(10 * n)
	churnStep := func(live []*flexoffer.FlexOffer, cursor int) []agg.FlexOfferUpdate {
		batch := make([]agg.FlexOfferUpdate, 0, 2*churn)
		for j := 0; j < churn; j++ {
			idx := (cursor + j) % n
			f := live[idx]
			nf := *f
			nextID++
			nf.ID = nextID
			live[idx] = &nf
			batch = append(batch,
				agg.FlexOfferUpdate{Kind: agg.Delete, Offer: f},
				agg.FlexOfferUpdate{Kind: agg.Insert, Offer: &nf})
		}
		return batch
	}

	b.Run("incremental", func(b *testing.B) {
		pipe := agg.NewPipeline(agg.ParamsP3, agg.BinPackerOptions{})
		live := append([]*flexoffer.FlexOffer(nil), offers...)
		ups := make([]agg.FlexOfferUpdate, n)
		for i, f := range live {
			ups[i] = agg.FlexOfferUpdate{Kind: agg.Insert, Offer: f}
		}
		if _, err := pipe.Apply(ups...); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			batch := churnStep(live, i*churn%n)
			b.StartTimer()
			if err := pipe.Accumulate(batch...); err != nil {
				b.Fatal(err)
			}
			pipe.Process()
		}
	})

	b.Run("from-scratch", func(b *testing.B) {
		live := append([]*flexoffer.FlexOffer(nil), offers...)
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			churnStep(live, i*churn%n)
			ups := make([]agg.FlexOfferUpdate, n)
			for k, f := range live {
				ups[k] = agg.FlexOfferUpdate{Kind: agg.Insert, Offer: f}
			}
			b.StartTimer()
			pipe := agg.NewPipeline(agg.ParamsP3, agg.BinPackerOptions{})
			if _, err := pipe.Apply(ups...); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- storage-engine benchmarks ----------------------------------------

// benchStoreFacts populates an in-memory store with a synthetic meter
// stream of n facts over 128 actors.
func benchStoreFacts(b *testing.B, n int) *store.Store {
	b.Helper()
	st := store.NewInMemory()
	if err := st.PutMeasurementsBatch(workload.GenerateMeasurements(workload.MeasurementConfig{Count: n, Actors: 128, Seed: 1})); err != nil {
		b.Fatal(err)
	}
	return st
}

// BenchmarkStoreMeasurementsWindow measures the indexed slot-window
// query against fact tables of growing size. The series-clustered
// layout makes the cost track the result rows (metric "rows"), not the
// table: ns/op should stay near-flat across the 16× table sweep.
func BenchmarkStoreMeasurementsWindow(b *testing.B) {
	for _, n := range []int{20000, 80000, 320000} {
		st := benchStoreFacts(b, n)
		slots := flexoffer.Time(n / 128)
		filter := store.MeasurementFilter{Actor: workload.MeasurementActor(5), EnergyType: "demand",
			FromSlot: slots / 2, ToSlot: slots/2 + 64}
		b.Run(fmt.Sprintf("facts%d", n), func(b *testing.B) {
			b.ReportAllocs()
			var rows int
			for i := 0; i < b.N; i++ {
				rows = len(st.Measurements(filter))
			}
			b.ReportMetric(float64(rows), "rows")
		})
	}
}

// BenchmarkStoreSeriesBySlot measures the forecast-input materialization
// over a fixed window while the fact table grows around it.
func BenchmarkStoreSeriesBySlot(b *testing.B) {
	for _, n := range []int{20000, 80000, 320000} {
		st := benchStoreFacts(b, n)
		slots := flexoffer.Time(n / 128)
		f := store.MeasurementFilter{Actor: workload.MeasurementActor(9), EnergyType: "demand"}
		b.Run(fmt.Sprintf("facts%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				st.SeriesBySlot(f, slots/4, slots/4+96)
			}
		})
	}
}

// BenchmarkStoreOffersByState measures the by-state secondary index: a
// fixed 500-record result fished out of offer tables of growing size.
func BenchmarkStoreOffersByState(b *testing.B) {
	for _, n := range []int{2000, 8000, 32000} {
		st := store.NewInMemory()
		offers := workload.GenerateFlexOffers(workload.FlexOfferConfig{Count: n, Seed: 1})
		for i, f := range offers {
			state := store.OfferRejected
			if i < 500 {
				state = store.OfferScheduled
			}
			if err := st.PutOffer(store.OfferRecord{Offer: f, Owner: fmt.Sprintf("p%d", i%50), State: state}); err != nil {
				b.Fatal(err)
			}
		}
		b.Run(fmt.Sprintf("offers%d", n), func(b *testing.B) {
			b.ReportAllocs()
			var hits int
			for i := 0; i < b.N; i++ {
				hits = len(st.Offers(store.OfferFilter{State: store.OfferScheduled}))
			}
			b.ReportMetric(float64(hits), "hits")
		})
	}
}

// BenchmarkStoreIngest compares single-put ingestion against the
// batched path (one WAL group per 256 facts) on a durable store; the
// "recs/group" metric is the committer's amortization factor.
func BenchmarkStoreIngest(b *testing.B) {
	facts := workload.GenerateMeasurements(workload.MeasurementConfig{Count: 100000, Actors: 128, Seed: 1})
	b.Run("single", func(b *testing.B) {
		st, err := store.Open(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		defer st.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := st.PutMeasurement(facts[i%len(facts)]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("batch256", func(b *testing.B) {
		st, err := store.Open(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		defer st.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			lo := (i * 256) % (len(facts) - 256)
			if err := st.PutMeasurementsBatch(facts[lo : lo+256]); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		ls := st.WALStats()
		if ls.Groups > 0 {
			b.ReportMetric(float64(ls.Records)/float64(ls.Groups), "recs/group")
		}
		b.ReportMetric(256, "facts/op")
	})
}

// BenchmarkStoreConcurrentMixed hammers the striped tables from all
// procs at once — measurement puts, offer transitions and indexed
// queries — the contention profile the seed's single store-wide mutex
// serialized.
func BenchmarkStoreConcurrentMixed(b *testing.B) {
	st := benchStoreFacts(b, 50000)
	for id := flexoffer.ID(1); id <= 512; id++ {
		if err := st.PutOffer(store.OfferRecord{Offer: benchCycleOffer(id), Owner: workload.MeasurementActor(int(id) % 128), State: store.OfferAccepted}); err != nil {
			b.Fatal(err)
		}
	}
	var seq atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		worker := int(seq.Add(1))
		actor := workload.MeasurementActor(worker % 128)
		slot := flexoffer.Time(1 << 20)
		i := 0
		for pb.Next() {
			switch i % 4 {
			case 0:
				if err := st.PutMeasurement(store.Measurement{Actor: actor, EnergyType: "demand", Slot: slot, KWh: 1}); err != nil {
					b.Error(err)
					return
				}
				slot++
			case 1:
				st.Measurements(store.MeasurementFilter{Actor: actor, EnergyType: "demand", FromSlot: 0, ToSlot: 64})
			case 2:
				id := flexoffer.ID(worker*31%512 + 1)
				if _, err := st.UpdateOffer(id, func(r *store.OfferRecord) { r.State = store.OfferAccepted }); err != nil {
					b.Error(err)
					return
				}
			case 3:
				st.CountOffersByState()
			}
			i++
		}
	})
}

// BenchmarkStoreSnapshotUnderLoad measures Snapshot() of a 100k-fact
// durable store while a background writer keeps appending; the
// "writes_during" metric counts the writer's committed puts per
// snapshot — zero would mean the snapshot still blocks the store.
func BenchmarkStoreSnapshotUnderLoad(b *testing.B) {
	st, err := store.Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	if err := st.PutMeasurementsBatch(workload.GenerateMeasurements(workload.MeasurementConfig{Count: 100000, Actors: 128, Seed: 1})); err != nil {
		b.Fatal(err)
	}
	stop := make(chan struct{})
	var writes atomic.Int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		slot := flexoffer.Time(1 << 20)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := st.PutMeasurement(store.Measurement{Actor: "bg", EnergyType: "demand", Slot: slot, KWh: 1}); err != nil {
				b.Error(err)
				return
			}
			writes.Add(1)
			slot++
		}
	}()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := st.Snapshot(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	close(stop)
	wg.Wait()
	b.ReportMetric(float64(writes.Load())/float64(b.N), "writes_during")
}

// --- scheduling-cycle benchmarks (snapshot/plan/commit/deliver) -------

func benchCycleOffer(id flexoffer.ID) *flexoffer.FlexOffer {
	p := make([]flexoffer.Slice, 4)
	for i := range p {
		p[i] = flexoffer.Slice{EnergyMin: 0, EnergyMax: 5}
	}
	return &flexoffer.FlexOffer{ID: id, EarliestStart: 40, LatestStart: 56, AssignBefore: 32, Profile: p}
}

// BenchmarkCycleDeliveryFanOut measures a scheduling cycle's deliver
// phase against a slow transport: with the bounded fan-out the wall
// time is governed by the slowest prosumer, not the sum over prosumers
// (limit=1 reproduces the old serialized behaviour as the baseline;
// the "deliver/slowest" metric is ~1 when fanned out, ~#owners when
// serialized).
func BenchmarkCycleDeliveryFanOut(b *testing.B) {
	const owners = 16
	const delay = 2 * time.Millisecond
	for _, limit := range []int{1, owners} {
		b.Run(fmt.Sprintf("limit%d", limit), func(b *testing.B) {
			bus := comm.NewBus()
			brp, err := core.NewNode(core.Config{
				Name: "brp1", Role: store.RoleBRP,
				Transport:   comm.Latency(bus, delay),
				AggParams:   agg.ParamsP3,
				SchedOpts:   sched.Options{MaxIterations: 1, Seed: 1},
				NotifyLimit: limit,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer brp.Close()
			bus.Register("brp1", brp.Handler())
			for i := 0; i < owners; i++ {
				bus.Register(fmt.Sprintf("p%d", i), func(ctx context.Context, env comm.Envelope) (*comm.Envelope, error) {
					return nil, nil
				})
			}
			var id flexoffer.ID
			var deliver time.Duration
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				for j := 0; j < owners; j++ {
					id++
					if d := brp.AcceptOffer(benchCycleOffer(id), fmt.Sprintf("p%d", j)); !d.Accept {
						b.Fatalf("offer rejected: %s", d.Reason)
					}
				}
				b.StartTimer()
				rep, err := brp.RunSchedulingCycle(context.Background(), 0, nil, nil, nil)
				if err != nil {
					b.Fatal(err)
				}
				if rep.NotifyFailures != 0 {
					b.Fatalf("notify failures: %d", rep.NotifyFailures)
				}
				deliver = rep.DeliveryTime
			}
			b.ReportMetric(float64(deliver)/float64(time.Millisecond), "deliver_ms")
			b.ReportMetric(float64(deliver)/float64(delay), "deliver/slowest")
		})
	}
}

// BenchmarkIntakeDuringSlowDelivery measures AcceptOffer latency while
// scheduling cycles deliver over a slow transport in the background:
// ns/op is the intake latency, which must not queue behind the deliver
// phase (it would be milliseconds per offer if it did).
func BenchmarkIntakeDuringSlowDelivery(b *testing.B) {
	const owners = 8
	bus := comm.NewBus()
	brp, err := core.NewNode(core.Config{
		Name: "brp1", Role: store.RoleBRP,
		Transport: comm.Latency(bus, time.Millisecond),
		AggParams: agg.ParamsP3,
		SchedOpts: sched.Options{MaxIterations: 1, Seed: 1},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer brp.Close()
	bus.Register("brp1", brp.Handler())
	for i := 0; i < owners; i++ {
		bus.Register(fmt.Sprintf("p%d", i), func(ctx context.Context, env comm.Envelope) (*comm.Envelope, error) {
			return nil, nil
		})
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			rep, err := brp.RunSchedulingCycle(context.Background(), 0, nil, nil, nil)
			if err != nil {
				b.Error(err)
				return
			}
			if rep.Aggregates == 0 {
				time.Sleep(time.Millisecond)
			}
		}
	}()
	var id flexoffer.ID = 1 << 20 // clear of any cycle-scheduled ids
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id++
		brp.AcceptOffer(benchCycleOffer(id), fmt.Sprintf("p%d", i%owners))
	}
	b.StopTimer()
	close(stop)
	<-done
}

// --- TCP transport benchmarks -----------------------------------------

// BenchmarkTCPFanOut measures N concurrent requests against a
// slow-handler TCP server through one TCPClient. The serial sub-bench
// issues them back to back — the behaviour the seed's client mutex
// forced on every caller — and takes ≈ N×delay; the concurrent
// sub-bench overlaps them over the pooled, Seq-pipelined connections
// and takes ≈ delay ("x_slowest" ≈ 1, versus ≈ N serialized). The
// one-dest sub-benches pipeline into a single server; many-dest spreads
// the same requests over 4 servers.
func BenchmarkTCPFanOut(b *testing.B) {
	const requests = 16
	const delay = 5 * time.Millisecond
	handler := func(ctx context.Context, env comm.Envelope) (*comm.Envelope, error) {
		select {
		case <-time.After(delay):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		reply, err := comm.NewEnvelope(comm.MsgPong, env.To, env.From, nil)
		return &reply, err
	}
	newFabric := func(b *testing.B, dests int) (*comm.TCPClient, []string) {
		b.Helper()
		client := comm.NewTCPClient("brp")
		b.Cleanup(func() { client.Close() })
		names := make([]string, dests)
		for i := range names {
			srv, err := comm.ListenTCP("127.0.0.1:0", handler)
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(func() { srv.Close() })
			names[i] = fmt.Sprintf("p%d", i)
			client.SetRoute(names[i], srv.Addr())
		}
		return client, names
	}

	for _, tc := range []struct {
		name  string
		dests int
	}{{"one-dest", 1}, {"many-dest", 4}} {
		client, names := newFabric(b, tc.dests)
		b.Run("serial/"+tc.name, func(b *testing.B) {
			var wall time.Duration
			for i := 0; i < b.N; i++ {
				t0 := time.Now()
				for j := 0; j < requests; j++ {
					env, _ := comm.NewEnvelope(comm.MsgPing, "brp", names[j%tc.dests], nil)
					if _, err := client.Request(context.Background(), names[j%tc.dests], env); err != nil {
						b.Fatal(err)
					}
				}
				wall = time.Since(t0)
			}
			b.ReportMetric(float64(wall)/float64(time.Millisecond), "wall_ms")
			b.ReportMetric(float64(wall)/float64(delay), "x_slowest")
		})
		b.Run("concurrent/"+tc.name, func(b *testing.B) {
			var wall time.Duration
			for i := 0; i < b.N; i++ {
				t0 := time.Now()
				var wg sync.WaitGroup
				errs := make([]error, requests)
				for j := 0; j < requests; j++ {
					wg.Add(1)
					go func(j int) {
						defer wg.Done()
						to := names[j%tc.dests]
						env, _ := comm.NewEnvelope(comm.MsgPing, "brp", to, nil)
						_, errs[j] = client.Request(context.Background(), to, env)
					}(j)
				}
				wg.Wait()
				wall = time.Since(t0)
				for _, err := range errs {
					if err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(wall)/float64(time.Millisecond), "wall_ms")
			b.ReportMetric(float64(wall)/float64(delay), "x_slowest")
			st := client.Stats()
			b.ReportMetric(float64(st.Dials), "dials")
		})
	}
}

// BenchmarkTCPFrameThroughput measures raw request/reply throughput of
// the framing layer over one pipelined connection — allocs/op shows the
// effect of the pooled encode buffers and reusable read scratch.
func BenchmarkTCPFrameThroughput(b *testing.B) {
	srv, err := comm.ListenTCP("127.0.0.1:0", func(ctx context.Context, env comm.Envelope) (*comm.Envelope, error) {
		reply, err := comm.NewEnvelope(comm.MsgPong, env.To, env.From, nil)
		return &reply, err
	})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	client := comm.NewTCPClient("p1", comm.WithPoolSize(1))
	defer client.Close()
	client.SetRoute("srv", srv.Addr())
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			env, _ := comm.NewEnvelope(comm.MsgPing, "p1", "srv", nil)
			if _, err := client.Request(context.Background(), "srv", env); err != nil {
				b.Error(err)
				return
			}
		}
	})
}
