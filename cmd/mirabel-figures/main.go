// mirabel-figures regenerates the paper's evaluation figures (§9) as text
// series: the aggregation experiments (Figure 5a–d), the forecasting
// experiments (Figure 4a–b), the scheduling experiments (Figure 6a–d)
// and the exhaustive optimality probe from §6. The system itself is
// measured by bench/ (bash bench/run.sh), not here.
//
// Usage:
//
//	mirabel-figures -exp all                 # everything at default scale
//	mirabel-figures -exp fig5 -maxoffers 800000
//	mirabel-figures -exp fig6 -budget 30s
//	mirabel-figures -exp exhaustive
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"mirabel/internal/agg"
	"mirabel/internal/flexoffer"
	"mirabel/internal/forecast"
	"mirabel/internal/market"
	"mirabel/internal/optimize"
	"mirabel/internal/sched"
	"mirabel/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("mirabel-figures: ")
	exp := flag.String("exp", "all", "figure: all | fig5 | fig4a | fig4b | fig6 | exhaustive")
	maxOffers := flag.Int("maxoffers", 800000, "largest flex-offer count of the Figure 5 sweep")
	budget := flag.Duration("budget", 10*time.Second, "time budget of the largest Figure 6 instance")
	seed := flag.Int64("seed", 1, "workload seed")
	flag.Parse()

	switch *exp {
	case "all":
		fig5(*maxOffers, *seed)
		fig4a(*seed)
		fig4b(*seed)
		fig6(*budget, *seed)
		exhaustive(*seed)
	case "fig5":
		fig5(*maxOffers, *seed)
	case "fig4a":
		fig4a(*seed)
	case "fig4b":
		fig4b(*seed)
	case "fig6":
		fig6(*budget, *seed)
	case "exhaustive":
		exhaustive(*seed)
	default:
		log.Printf("unknown figure %q", *exp)
		flag.Usage()
		os.Exit(2)
	}
}

// fig5 sweeps the flex-offer count for P0–P3 and prints all four panels'
// series: aggregate count (5a), aggregation time (5b), time-flexibility
// loss per offer (5c) and disaggregation vs aggregation time (5d).
func fig5(maxOffers int, seed int64) {
	fmt.Println("== Figure 5: aggregation experiments ==")
	fmt.Println("offers  params  aggregates  ratio   agg_time_s  loss_slots/offer  disagg_time_s  disagg/agg")
	// The paper's 100 000-offer stride; a smaller -maxoffers is one row.
	step := max(1, min(100000, maxOffers))
	all := workload.GenerateFlexOffers(workload.FlexOfferConfig{Count: maxOffers, Seed: seed})
	params := []struct {
		name string
		p    agg.Params
	}{{"P0", agg.ParamsP0}, {"P1", agg.ParamsP1}, {"P2", agg.ParamsP2}, {"P3", agg.ParamsP3}}
	for n := step; n <= maxOffers; n += step {
		ups := make([]agg.FlexOfferUpdate, n)
		for i := 0; i < n; i++ {
			ups[i] = agg.FlexOfferUpdate{Kind: agg.Insert, Offer: all[i]}
		}
		for _, pc := range params {
			pipe := agg.NewPipeline(pc.p)
			t0 := time.Now()
			if err := pipe.Apply(ups...); err != nil {
				log.Fatal(err)
			}
			aggTime := time.Since(t0)
			m := pipe.CurrentMetrics()

			// Figure 5d: disaggregate a mid-flexibility schedule of
			// every aggregate.
			scheds := make([]*flexoffer.Schedule, 0, m.Aggregates)
			for _, a := range pipe.Aggregates() {
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
			t0 = time.Now()
			if _, err := pipe.Disaggregate(scheds); err != nil {
				log.Fatal(err)
			}
			disaggTime := time.Since(t0)

			fmt.Printf("%-7d %-7s %-11d %-7.2f %-11.3f %-17.3f %-14.3f %.2f\n",
				n, pc.name, m.Aggregates, m.CompressionRatio, aggTime.Seconds(),
				m.LossPerOffer, disaggTime.Seconds(), disaggTime.Seconds()/aggTime.Seconds())
		}
	}
}

// fig4a prints the SMAPE-over-time convergence traces of the three
// global parameter estimators on the HWT model.
func fig4a(seed int64) {
	fmt.Println("== Figure 4a: accuracy vs estimation time (HWT on demand) ==")
	vals := workload.DemandSeries(workload.DemandConfig{Days: 28, Seed: seed}).Values()
	for _, est := range []optimize.Estimator{
		&optimize.RandomRestartNelderMead{},
		&optimize.SimulatedAnnealing{},
		optimize.RandomSearch{},
	} {
		_, res, err := forecast.FitHWT(vals, []int{48, 336}, forecast.FitConfig{
			Estimator: est,
			Options:   optimize.Options{MaxEvaluations: 1200, Seed: seed + 1, TraceEvery: 60},
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-26s final SMAPE %.5f\n", est.Name(), res.Value)
		for _, tp := range res.Trace {
			fmt.Printf("  t=%-10v evals=%-5d best_smape=%.5f\n", tp.Elapsed.Round(time.Millisecond), tp.Evaluations, tp.Best)
		}
	}
}

// fig4b prints SMAPE against forecast horizon for the demand and wind
// series.
func fig4b(seed int64) {
	fmt.Println("== Figure 4b: accuracy vs forecast horizon ==")
	series := []struct {
		name string
		vals []float64
	}{
		{"demand", workload.DemandSeries(workload.DemandConfig{Days: 42, Seed: seed}).Values()},
		{"wind", workload.WindSeries(workload.WindConfig{Days: 42, Seed: seed}).Values()},
	}
	horizons := []int{1, 6, 12, 24, 48, 96, 144, 192} // up to 4 days
	fmt.Printf("%-8s", "series")
	for _, h := range horizons {
		fmt.Printf("h=%-7d", h)
	}
	fmt.Println()
	for _, s := range series {
		split := len(s.vals) - 4*336
		m, _, err := forecast.FitHWT(s.vals[:split], []int{48, 336}, forecast.FitConfig{
			Options: optimize.Options{MaxEvaluations: 300, Seed: seed + 2},
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-8s", s.name)
		for _, h := range horizons {
			smape, err := forecast.HorizonSMAPE(m, s.vals[split:], h)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("%-9.4f", smape)
		}
		fmt.Println()
	}
}

// fig6 prints the cost-over-time traces of the evolutionary algorithm
// and the randomized greedy search on 10/100/1000/10000 aggregated
// flex-offers, and beside them the hybrid (HYB) and the node's planner
// (SW). The strategies get equal wall-clock budgets, and each runs on
// one goroutine, as in the paper.
func fig6(maxBudget time.Duration, seed int64) {
	fmt.Println("== Figure 6: scheduling cost vs time (EA vs GS; HYB and the node's SW beside them, each on one goroutine) ==")
	prices := workload.PriceSeries(workload.PriceConfig{Days: 2, Seed: seed})
	m, err := market.NewDayAhead(market.Config{Prices: prices, CapacityKWh: 2000})
	if err != nil {
		log.Fatal(err)
	}
	sizes := []int{10, 100, 1000, 10000}
	for i, n := range sizes {
		// Budget grows with instance size like the paper's panels
		// (1 s, 5 s, 60 s, 15 min there; scaled down here).
		budget := maxBudget >> (2 * (len(sizes) - 1 - i))
		if budget < 250*time.Millisecond {
			budget = 250 * time.Millisecond
		}
		p, err := sched.BuildScenario(sched.ScenarioConfig{Offers: n, Seed: seed + 42, Market: m})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("-- %d aggregated flex-offers (budget %v, default cost %.0f EUR, search space %.3g) --\n",
			n, budget, p.BaselineCost(), p.CountSolutions())
		// EA and GS are the paper's two algorithms; HYB is the
		// greedy-seeded hybrid from the research directions, and SW the
		// node's planner, which ends on its own once restarts stop
		// improving, usually well inside the budget.
		for _, s := range []sched.Scheduler{&sched.Evolutionary{}, &sched.RandomizedGreedy{}, &sched.Hybrid{}, &sched.Sweep{}} {
			res, err := s.Schedule(context.Background(), p, sched.Options{TimeBudget: budget, Seed: seed + 7, TraceEvery: traceStride(n)})
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("%-3s final cost %.1f EUR after %d iterations\n", s.Name(), res.Cost, res.Iterations)
			for _, tp := range sampleTrace(res.Trace, 8) {
				fmt.Printf("   t=%-10v cost=%.1f\n", tp.Elapsed.Round(time.Millisecond), tp.Cost)
			}
		}
	}
}

func traceStride(n int) int {
	if n >= 1000 {
		return 1
	}
	return 10
}

func sampleTrace(trace []sched.TracePoint, k int) []sched.TracePoint {
	if len(trace) <= k {
		return trace
	}
	out := make([]sched.TracePoint, 0, k)
	for i := 0; i < k; i++ {
		out = append(out, trace[i*(len(trace)-1)/(k-1)])
	}
	return out
}

// exhaustive reproduces the §6 optimality probe at a tractable scale:
// enumerate every start combination of a small instance and compare the
// heuristics against the optimum, each heuristic on one goroutine for
// the same budget (see fig6).
func exhaustive(seed int64) {
	fmt.Println("== §6 optimality probe: exhaustive enumeration (each strategy on one goroutine) ==")
	p, err := sched.BuildScenario(sched.ScenarioConfig{Offers: 6, Seed: seed + 3})
	if err != nil {
		log.Fatal(err)
	}
	// Cap the time flexibilities so the space stays enumerable in
	// seconds (the paper's 10-offer probe took three hours for 8.5·10⁸).
	for _, f := range p.Offers {
		if f.TimeFlexibility() > 10 {
			f.LatestStart = f.EarliestStart + 10
		}
	}
	fmt.Printf("6 flex-offers, %.0f start combinations\n", p.CountSolutions())
	x := &sched.Exhaustive{}
	t0 := time.Now()
	opt, err := x.Schedule(context.Background(), p, sched.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("optimal (midpoint energies): %.2f EUR in %v (%d schedules evaluated)\n",
		opt.Cost, time.Since(t0).Round(time.Millisecond), opt.Iterations)
	for _, s := range []sched.Scheduler{&sched.RandomizedGreedy{}, &sched.Evolutionary{}} {
		res, err := s.Schedule(context.Background(), p, sched.Options{TimeBudget: time.Second, Seed: seed + 8})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-3s: %.2f EUR (gap to enumerated optimum: %+.2f — negative means the heuristic's free energy choice beats midpoint energies)\n",
			s.Name(), res.Cost, res.Cost-opt.Cost)
	}
}
