// mirabel-bench regenerates the paper's evaluation figures (§9) as text
// series: the aggregation experiments (Figure 5a–d), the forecasting
// experiments (Figure 4a–b), the scheduling experiments (Figure 6a–d)
// and the exhaustive optimality probe from §6.
//
// Usage:
//
//	mirabel-bench -exp all                 # everything at default scale
//	mirabel-bench -exp fig5 -maxoffers 800000
//	mirabel-bench -exp fig6 -budget 30s
//	mirabel-bench -exp exhaustive
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mirabel/internal/agg"
	"mirabel/internal/chaos"
	"mirabel/internal/comm"
	"mirabel/internal/core"
	"mirabel/internal/flexoffer"
	"mirabel/internal/forecast"
	"mirabel/internal/ingest"
	"mirabel/internal/market"
	"mirabel/internal/negotiate"
	"mirabel/internal/optimize"
	"mirabel/internal/sched"
	"mirabel/internal/settle"
	"mirabel/internal/store"
	"mirabel/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("mirabel-bench: ")
	exp := flag.String("exp", "all", "experiment: all | fig5a | fig5b | fig5c | fig5d | fig5 | fig4a | fig4b | fig6 | exhaustive | store | tcp | sched | ingest | agg | forecast | settle | chaos")
	maxOffers := flag.Int("maxoffers", 800000, "largest flex-offer count of the Figure 5 sweep")
	aggOffers := flag.Int("agg-offers", 1000000, "largest flex-offer count of the agg churn experiment")
	maxFacts := flag.Int("maxfacts", 1600000, "largest measurement count of the storage-engine sweep")
	fcSeries := flag.Int("fcast-series", 100000, "resident series count of the forecast fleet experiment")
	settleLines := flag.Int("settle-lines", 100000, "settlement lines per price regime in the ledger experiment")
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
		storeExp(*maxFacts, *seed)
		tcpExp()
		schedExp(*seed)
		ingestExp(*seed)
		aggExp(*aggOffers, *seed)
		forecastExp(*fcSeries, *seed)
		settleExp(*settleLines, *seed)
		chaosExp(*seed)
	case "fig5", "fig5a", "fig5b", "fig5c", "fig5d":
		fig5(*maxOffers, *seed)
	case "fig4a":
		fig4a(*seed)
	case "fig4b":
		fig4b(*seed)
	case "fig6":
		fig6(*budget, *seed)
	case "exhaustive":
		exhaustive(*seed)
	case "store":
		storeExp(*maxFacts, *seed)
	case "tcp":
		tcpExp()
	case "sched":
		schedExp(*seed)
	case "ingest":
		ingestExp(*seed)
	case "agg":
		aggExp(*aggOffers, *seed)
	case "forecast":
		forecastExp(*fcSeries, *seed)
	case "settle":
		settleExp(*settleLines, *seed)
	case "chaos":
		chaosExp(*seed)
	default:
		log.Printf("unknown experiment %q", *exp)
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
	counts := []int{}
	for n := 100000; n <= maxOffers; n += 100000 {
		counts = append(counts, n)
	}
	all := workload.GenerateFlexOffers(workload.FlexOfferConfig{Count: maxOffers, Seed: seed})
	params := []struct {
		name string
		p    agg.Params
	}{{"P0", agg.ParamsP0}, {"P1", agg.ParamsP1}, {"P2", agg.ParamsP2}, {"P3", agg.ParamsP3}}
	for _, n := range counts {
		ups := make([]agg.FlexOfferUpdate, n)
		for i := 0; i < n; i++ {
			ups[i] = agg.FlexOfferUpdate{Kind: agg.Insert, Offer: all[i]}
		}
		for _, pc := range params {
			pipe := agg.NewPipeline(pc.p, agg.BinPackerOptions{})
			t0 := time.Now()
			if _, err := pipe.Apply(ups...); err != nil {
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
		fmt.Printf("%-8s", s.name)
		for _, h := range horizons {
			m, _, err := forecast.FitHWT(s.vals[:split], []int{48, 336}, forecast.FitConfig{
				Options: optimize.Options{MaxEvaluations: 300, Seed: seed + 2},
			})
			if err != nil {
				log.Fatal(err)
			}
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
// flex-offers.
func fig6(maxBudget time.Duration, seed int64) {
	fmt.Println("== Figure 6: scheduling cost vs time (EA vs GS) ==")
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
		// greedy-seeded hybrid from the research directions.
		for _, s := range []sched.Scheduler{&sched.Evolutionary{}, &sched.RandomizedGreedy{}, &sched.Hybrid{}} {
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
// heuristics against the optimum.
func exhaustive(seed int64) {
	fmt.Println("== §6 optimality probe: exhaustive enumeration ==")
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

// storeExp exercises the storage engine the way a loaded BRP node does:
// concurrent meter-stream ingestion (single puts vs WAL-group-committed
// batches), indexed slot-window queries against fact tables of growing
// size, and a snapshot taken while readers and writers keep running.
func storeExp(maxFacts int, seed int64) {
	fmt.Println("== Storage engine: ingestion, indexed queries, snapshot under load ==")

	// --- ingestion: single puts vs batches, 4 concurrent writers -----
	const writers = 4
	ingestN := maxFacts / 8
	if ingestN > 200000 {
		ingestN = 200000
	}
	facts := workload.GenerateMeasurements(workload.MeasurementConfig{Count: ingestN, Actors: 256, Seed: seed})
	fmt.Printf("-- ingestion: %d facts, %d concurrent writers, durable store --\n", ingestN, writers)
	fmt.Println("mode                 wall_s   facts/s     wal_records  wal_groups  recs/group  fsyncs")
	for _, tc := range []struct {
		mode   string
		batch  bool
		policy store.SyncPolicy
	}{
		{"single/flush", false, store.SyncFlush},
		{"batch-256/flush", true, store.SyncFlush},
		{"single/always", false, store.SyncAlways},
		{"batch-256/always", true, store.SyncAlways},
	} {
		mode := tc.mode
		// The fsync-per-commit rows are the group committer's showcase:
		// without coalescing they would cost one fsync per fact.
		factsForMode := facts
		if tc.policy == store.SyncAlways && !tc.batch {
			factsForMode = facts[:min(len(facts), 20000)]
		}
		dir, err := os.MkdirTemp("", "mirabel-storebench")
		if err != nil {
			log.Fatal(err)
		}
		st, err := store.Open(dir, store.WithSyncPolicy(tc.policy))
		if err != nil {
			log.Fatal(err)
		}
		t0 := time.Now()
		var wg sync.WaitGroup
		per := (len(factsForMode) + writers - 1) / writers
		for w := 0; w < writers; w++ {
			lo := w * per
			hi := min(lo+per, len(factsForMode))
			if lo >= hi {
				continue
			}
			wg.Add(1)
			go func(part []store.Measurement) {
				defer wg.Done()
				if !tc.batch {
					for _, m := range part {
						if err := st.PutMeasurement(m); err != nil {
							log.Fatal(err)
						}
					}
					return
				}
				for off := 0; off < len(part); off += 256 {
					if err := st.PutMeasurementsBatch(part[off:min(off+256, len(part))]); err != nil {
						log.Fatal(err)
					}
				}
			}(factsForMode[lo:hi])
		}
		wg.Wait()
		wall := time.Since(t0)
		ls := st.WALStats()
		fmt.Printf("%-20s %-8.3f %-11.0f %-12d %-11d %-11.1f %d\n",
			mode, wall.Seconds(), float64(len(factsForMode))/wall.Seconds(),
			ls.Records, ls.Groups, float64(ls.Records)/float64(ls.Groups), ls.Syncs)
		st.Close()
		os.RemoveAll(dir)
	}

	// --- indexed queries: fixed 64-slot window, growing table --------
	fmt.Println("-- indexed queries: one actor, 64-slot window, growing fact table --")
	fmt.Println("facts     rows  query_us  sum_by_slot_us  offers_by_state_us(1000 hits)")
	startFacts := maxFacts / 16
	if startFacts < 1 {
		startFacts = 1 // tiny -maxfacts: a single sweep point, not a zero-stride loop
	}
	for n := startFacts; n <= maxFacts; n *= 4 {
		st := store.NewInMemory()
		actors := 256
		if err := st.PutMeasurementsBatch(workload.GenerateMeasurements(workload.MeasurementConfig{Count: n, Actors: actors, Seed: seed})); err != nil {
			log.Fatal(err)
		}
		// 1000 scheduled offers drowned in rejected ones, so the
		// by-state index has something to prove.
		offers := workload.GenerateFlexOffers(workload.FlexOfferConfig{Count: 10000, Seed: seed})
		for i, f := range offers {
			state := store.OfferRejected
			if i < 1000 {
				state = store.OfferScheduled
			}
			if err := st.PutOffer(store.OfferRecord{Offer: f, Owner: "p", State: state}); err != nil {
				log.Fatal(err)
			}
		}
		slots := flexoffer.Time(n / actors)
		filter := store.MeasurementFilter{Actor: workload.MeasurementActor(7), EnergyType: "demand",
			FromSlot: slots / 2, ToSlot: slots/2 + 64}
		runtime.GC() // settle the post-population heap before timing
		const reps = 200
		var rows int
		t0 := time.Now()
		for i := 0; i < reps; i++ {
			rows = len(st.Measurements(filter))
		}
		queryUS := float64(time.Since(t0).Microseconds()) / reps
		t0 = time.Now()
		for i := 0; i < reps; i++ {
			st.SumEnergyBySlot(filter)
		}
		sumUS := float64(time.Since(t0).Microseconds()) / reps
		t0 = time.Now()
		for i := 0; i < reps; i++ {
			st.Offers(store.OfferFilter{State: store.OfferScheduled})
		}
		offersUS := float64(time.Since(t0).Microseconds()) / reps
		fmt.Printf("%-9d %-5d %-9.1f %-15.1f %.1f\n", n, rows, queryUS, sumUS, offersUS)
	}

	// --- snapshot under load -----------------------------------------
	snapN := maxFacts / 4
	fmt.Printf("-- snapshot of %d facts while 2 writers + 1 reader keep running --\n", snapN)
	dir, err := os.MkdirTemp("", "mirabel-storebench")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(dir)
	if err != nil {
		log.Fatal(err)
	}
	defer st.Close()
	if err := st.PutMeasurementsBatch(workload.GenerateMeasurements(workload.MeasurementConfig{Count: snapN, Actors: 256, Seed: seed})); err != nil {
		log.Fatal(err)
	}
	stop := make(chan struct{})
	var maxStall int64 // atomic, ns
	var writes, reads int64
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			slot := flexoffer.Time(snapN)
			for {
				select {
				case <-stop:
					return
				default:
				}
				t0 := time.Now()
				if err := st.PutMeasurement(store.Measurement{Actor: workload.MeasurementActor(w), EnergyType: "demand", Slot: slot, KWh: 1}); err != nil {
					log.Fatal(err)
				}
				for d := int64(time.Since(t0)); ; {
					cur := atomic.LoadInt64(&maxStall)
					if d <= cur || atomic.CompareAndSwapInt64(&maxStall, cur, d) {
						break
					}
				}
				atomic.AddInt64(&writes, 1)
				slot++
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			st.SumEnergyBySlot(store.MeasurementFilter{Actor: workload.MeasurementActor(3), EnergyType: "demand"})
			atomic.AddInt64(&reads, 1)
		}
	}()
	t0 := time.Now()
	if err := st.Snapshot(); err != nil {
		log.Fatal(err)
	}
	snapWall := time.Since(t0)
	close(stop)
	wg.Wait()
	fmt.Printf("snapshot_wall_s %.3f   writes_during %d   reads_during %d   max_write_stall_ms %.2f\n",
		snapWall.Seconds(), atomic.LoadInt64(&writes), atomic.LoadInt64(&reads),
		float64(atomic.LoadInt64(&maxStall))/1e6)
}

// schedExp measures the scheduler hot path on the tentpole's reference
// instance (64 offers, 96 slots, market attached): candidate-evaluation
// throughput of the full Problem.Evaluate versus the compiled evaluator
// versus single-offer delta updates, then the cost each strategy — and
// the parallel portfolio at growing worker counts — reaches within a
// fixed 250 ms budget.
func schedExp(seed int64) {
	fmt.Println("== Scheduler hot path: compiled problems, delta evaluation, parallel portfolio ==")
	prices := workload.PriceSeries(workload.PriceConfig{Days: 2, Seed: seed})
	m, err := market.NewDayAhead(market.Config{Prices: prices, CapacityKWh: 2000})
	if err != nil {
		log.Fatal(err)
	}
	p, err := sched.BuildScenario(sched.ScenarioConfig{Offers: 64, Seed: seed + 5, Market: m})
	if err != nil {
		log.Fatal(err)
	}
	c, err := sched.Compile(p)
	if err != nil {
		log.Fatal(err)
	}
	res, err := (&sched.RandomizedGreedy{}).Schedule(context.Background(), p, sched.Options{MaxIterations: 1, Seed: seed})
	if err != nil {
		log.Fatal(err)
	}
	sol := res.Solution

	// Evaluation throughput: each mode runs for a fixed wall slice.
	const slice = 300 * time.Millisecond
	measure := func(name string, op func()) float64 {
		n := 0
		t0 := time.Now()
		for time.Since(t0) < slice {
			for i := 0; i < 64; i++ { // amortize the clock reads
				op()
			}
			n += 64
		}
		rate := float64(n) / time.Since(t0).Seconds()
		fmt.Printf("%-10s %12.0f evals/s\n", name, rate)
		return rate
	}
	fmt.Printf("-- evaluation throughput (64 offers, %d slots, market attached) --\n", p.Slots)
	full := measure("full", func() { p.Evaluate(sol) })
	ev := c.NewEval()
	ev.Init(sol)
	compiled := measure("compiled", func() { ev.Init(sol) })
	lo, hi := p.StartWindow(p.Offers[0])
	flip := sol.Placements[0].Start
	other := lo
	if flip == lo && hi > lo {
		other = lo + 1
	}
	energy := sol.Placements[0].Energy
	delta := measure("delta", func() {
		ev.SetPlacement(0, other, energy)
		flip, other = other, flip
	})
	fmt.Printf("speedup: compiled %.1fx, delta %.1fx over full Evaluate\n", compiled/full, delta/full)

	// Cost at a fixed budget: the Figure 6 quality-per-budget question,
	// now including the portfolio at growing worker counts.
	const budget = 250 * time.Millisecond
	fmt.Printf("-- cost at a %v budget (default cost %.0f EUR) --\n", budget, p.BaselineCost())
	fmt.Println("strategy      cost_eur  iterations")
	run := func(name string, s sched.Scheduler) {
		res, err := s.Schedule(context.Background(), p, sched.Options{TimeBudget: budget, Seed: seed + 9})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-13s %-9.1f %d\n", name, res.Cost, res.Iterations)
	}
	run("GS", &sched.RandomizedGreedy{})
	run("EA", &sched.Evolutionary{})
	run("HYB", &sched.Hybrid{})
	for _, workers := range []int{2, 4, 8} {
		run(fmt.Sprintf("PARx%d", workers), &sched.Parallel{Workers: workers})
	}
}

// tcpExp measures the TCP transport's concurrency over a slow-handler
// server: K requests through one client, issued back to back (the
// seed's single-client-mutex behaviour) versus concurrently over the
// pooled, Seq-pipelined connections. Overlapped, the wall time tracks
// one slow-handler latency ("x_slowest" ≈ 1), not the sum (≈ K); the
// transport stats show how few connections carry the load.
func tcpExp() {
	fmt.Println("== TCP transport: pooled, pipelined fan-out over a slow server ==")
	const delay = 5 * time.Millisecond
	fmt.Printf("per-request handler latency %v\n", delay)
	fmt.Println("requests  pool  mode        wall_ms  x_slowest  dials  reuses  in_flight")
	handler := func(ctx context.Context, env comm.Envelope) (*comm.Envelope, error) {
		// time.NewTimer + Stop, not time.After: a canceled request must
		// release its timer immediately instead of leaking it until
		// expiry (this handler runs once per benchmarked request).
		t := time.NewTimer(delay)
		defer t.Stop()
		select {
		case <-t.C:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		reply, err := comm.NewEnvelope(comm.MsgPong, env.To, env.From, nil)
		return &reply, err
	}
	srv, err := comm.ListenTCP("127.0.0.1:0", handler)
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()

	for _, k := range []int{4, 16, 64} {
		for _, tc := range []struct {
			mode       string
			pool       int
			concurrent bool
		}{
			{"serial", 1, false},
			{"pipelined", 1, true}, // one connection: overlap is pure Seq pipelining
			{"pooled", comm.DefaultPoolSize, true},
		} {
			client := comm.NewTCPClient("bench", comm.WithPoolSize(tc.pool))
			client.SetRoute("srv", srv.Addr())
			run := func(j int) error {
				env, err := comm.NewEnvelope(comm.MsgPing, "bench", "srv", nil)
				if err != nil {
					return err
				}
				_, err = client.Request(context.Background(), "srv", env)
				return err
			}
			t0 := time.Now()
			if tc.concurrent {
				var wg sync.WaitGroup
				errs := make([]error, k)
				for j := 0; j < k; j++ {
					wg.Add(1)
					go func(j int) {
						defer wg.Done()
						errs[j] = run(j)
					}(j)
				}
				wg.Wait()
				for _, err := range errs {
					if err != nil {
						log.Fatal(err)
					}
				}
			} else {
				for j := 0; j < k; j++ {
					if err := run(j); err != nil {
						log.Fatal(err)
					}
				}
			}
			wall := time.Since(t0)
			st := client.Stats()
			fmt.Printf("%-9d %-5d %-11s %-8.2f %-10.1f %-6d %-7d %d\n",
				k, tc.pool, tc.mode, float64(wall)/float64(time.Millisecond),
				float64(wall)/float64(delay), st.Dials, st.Reuses, st.InFlight)
			client.Close()
		}
	}
}

// ingestExp benchmarks the durable async intake path (internal/ingest)
// against the seed's synchronous request/reply intake, then shows the
// backpressure policies under overload and the circuit-breaker's
// graceful degradation across scheduling cycles with one dead prosumer.
func ingestExp(seed int64) {
	fmt.Println("== Ingest: durable async intake vs synchronous store round-trips ==")
	const (
		producers = 8
		events    = 2000
		batch     = 10
	)
	fmt.Printf("%d producers x %d events x %d measurements/event\n", producers, events/producers, batch)
	fmt.Println("fsync   mode    acked_ev/s  ack_p50    ack_p99    drain_ms  mean_batch")
	for _, pol := range []struct {
		name   string
		policy store.SyncPolicy
	}{{"flush", store.SyncFlush}, {"always", store.SyncAlways}} {
		syncRate := runSyncIngest(pol.policy, producers, events, batch)
		fmt.Printf("%-7s %-7s %-11.0f %-10s %-10s %-9s %s\n", pol.name, "sync", syncRate, "-", "-", "-", "-")
		asyncRate, drain, st := runAsyncIngest(pol.policy, producers, events, batch)
		fmt.Printf("%-7s %-7s %-11.0f %-10v %-10v %-9.1f %.1f   (x%.2f vs sync)\n",
			pol.name, "async", asyncRate,
			st.AckP50.Round(time.Microsecond), st.AckP99.Round(time.Microsecond),
			float64(drain)/float64(time.Millisecond), st.MeanBatch, asyncRate/syncRate)
	}

	fmt.Println()
	fmt.Println("-- backpressure policies under overload (queue=64, 1 consumer) --")
	fmt.Println("policy  acked   shed    acked_ev/s  drain_ms")
	for _, policy := range []ingest.Policy{ingest.PolicyBlock, ingest.PolicyShed} {
		acked, st, rate, drain := runOverloadIngest(policy, 16, 3000, 4)
		fmt.Printf("%-7s %-7d %-7d %-11.0f %.1f\n",
			policy, acked, st.Shed, rate, float64(drain)/float64(time.Millisecond))
	}

	fmt.Println()
	breakerCycleExp()
}

func benchStore(policy store.SyncPolicy) (*store.Store, func()) {
	dir, err := os.MkdirTemp("", "mirabel-bench-ingest")
	if err != nil {
		log.Fatal(err)
	}
	st, err := store.Open(dir, store.WithSyncPolicy(policy))
	if err != nil {
		log.Fatal(err)
	}
	return st, func() {
		st.Close()
		os.RemoveAll(dir)
	}
}

func benchMeasurements(producer, event, batch int) []store.Measurement {
	ms := make([]store.Measurement, batch)
	for j := range ms {
		ms[j] = store.Measurement{
			Actor:      fmt.Sprintf("p%d", producer),
			EnergyType: "elec",
			Slot:       flexoffer.Time(event*batch + j),
			KWh:        1,
		}
	}
	return ms
}

// runSyncIngest is the baseline: every event is one synchronous
// PutMeasurementsBatch round-trip through the store's WAL.
func runSyncIngest(policy store.SyncPolicy, producers, events, batch int) float64 {
	st, cleanup := benchStore(policy)
	defer cleanup()
	per := events / producers
	var wg sync.WaitGroup
	t0 := time.Now()
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := st.PutMeasurementsBatch(benchMeasurements(p, i, batch)); err != nil {
					log.Fatal(err)
				}
			}
		}(p)
	}
	wg.Wait()
	return float64(events) / time.Since(t0).Seconds()
}

// runAsyncIngest acks the same events through the ingest journal and
// lets consumers coalesce them into the store behind the ack.
func runAsyncIngest(policy store.SyncPolicy, producers, events, batch int) (float64, time.Duration, ingest.Stats) {
	st, cleanup := benchStore(store.SyncFlush)
	defer cleanup()
	dir, err := os.MkdirTemp("", "mirabel-bench-journal")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	q, err := ingest.Open(ingest.Config{
		Store:     st,
		Path:      filepath.Join(dir, "ingest.log"),
		Sync:      policy,
		Queue:     4096,
		Policy:    ingest.PolicyBlock,
		Consumers: 4,
		MaxBatch:  256,
	})
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()
	per := events / producers
	var wg sync.WaitGroup
	t0 := time.Now()
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := q.SubmitMeasurements(ctx, benchMeasurements(p, i, batch)); err != nil {
					log.Fatal(err)
				}
			}
		}(p)
	}
	wg.Wait()
	acked := time.Since(t0)
	d0 := time.Now()
	if err := q.Drain(ctx); err != nil {
		log.Fatal(err)
	}
	drain := time.Since(d0)
	stats := q.Stats()
	if err := q.Close(); err != nil {
		log.Fatal(err)
	}
	return float64(events) / acked.Seconds(), drain, stats
}

// runOverloadIngest hammers a deliberately tiny queue to show what each
// backpressure policy does when producers outrun the consumer.
func runOverloadIngest(policy ingest.Policy, producers, events, batch int) (int, ingest.Stats, float64, time.Duration) {
	st, cleanup := benchStore(store.SyncFlush)
	defer cleanup()
	dir, err := os.MkdirTemp("", "mirabel-bench-journal")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	q, err := ingest.Open(ingest.Config{
		Store:     st,
		Path:      filepath.Join(dir, "ingest.log"),
		Queue:     64,
		Policy:    policy,
		Consumers: 1,
		MaxBatch:  64,
	})
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()
	per := events / producers
	var acked atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				err := q.SubmitMeasurements(ctx, benchMeasurements(p, i, batch))
				switch {
				case err == nil:
					acked.Add(1)
				case errors.Is(err, ingest.ErrOverloaded):
					// shed: the producer's problem, by design
				default:
					log.Fatal(err)
				}
			}
		}(p)
	}
	wg.Wait()
	wall := time.Since(t0)
	d0 := time.Now()
	if err := q.Drain(ctx); err != nil {
		log.Fatal(err)
	}
	drain := time.Since(d0)
	stats := q.Stats()
	if err := q.Close(); err != nil {
		log.Fatal(err)
	}
	return int(acked.Load()), stats, float64(acked.Load()) / wall.Seconds(), drain
}

// breakerCycleExp runs three scheduling cycles with one dead prosumer:
// the first pays a real delivery failure and trips the circuit; the
// following cycles skip the destination outright (reported, not
// retried), so delivery degrades gracefully instead of stalling.
func breakerCycleExp() {
	fmt.Println("-- circuit breaker: cycles with one unreachable prosumer (p3) --")
	const prosumers = 8
	bus := comm.NewBus()
	brp, err := core.NewNode(core.Config{
		Name: "brp", Role: store.RoleBRP,
		Transport: bus,
		AggParams: agg.ParamsP3,
		SchedOpts: sched.Options{MaxIterations: 1, Seed: 1},
		Breaker: &comm.BreakerConfig{
			MinSamples:  1,
			FailureRate: 0.5,
			Cooldown:    time.Hour, // stays open for the whole run
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer brp.Close()
	bus.Register("brp", brp.Handler())
	for i := 0; i < prosumers; i++ {
		if i == 3 {
			continue // p3 is dead
		}
		bus.Register(fmt.Sprintf("p%d", i), func(ctx context.Context, env comm.Envelope) (*comm.Envelope, error) {
			return nil, nil
		})
	}
	fmt.Println("cycle  schedules  failures  skipped  deliver_ms")
	nextID := 1
	for round := 1; round <= 3; round++ {
		for i := 0; i < prosumers; i++ {
			p := make([]flexoffer.Slice, 4)
			for j := range p {
				p[j] = flexoffer.Slice{EnergyMin: 0, EnergyMax: 5}
			}
			f := &flexoffer.FlexOffer{
				ID: flexoffer.ID(nextID), EarliestStart: 40, LatestStart: 56,
				AssignBefore: 32, Profile: p,
			}
			nextID++
			if d := brp.AcceptOffer(f, fmt.Sprintf("p%d", i)); !d.Accept {
				log.Fatalf("offer %d rejected: %s", f.ID, d.Reason)
			}
		}
		rep, err := brp.RunSchedulingCycle(context.Background(), 0, nil, nil, nil)
		if err != nil {
			log.Fatal(err)
		}
		skipped := "-"
		if len(rep.SkippedOwners) > 0 {
			skipped = strings.Join(rep.SkippedOwners, ",")
		}
		fmt.Printf("%-6d %-10d %-9d %-8s %.2f\n",
			round, rep.MicroSchedules, rep.NotifyFailures, skipped,
			float64(rep.DeliveryTime)/float64(time.Millisecond))
	}
	if got := brp.Breaker().State("p3"); got != comm.BreakerOpen {
		log.Fatalf("p3 circuit = %v, want open", got)
	}
}

// forecastExp benchmarks the fleet-scale forecast service: per-series
// models maintained through the sharded registry's batched update path,
// with parameter re-estimation either inline in the update path (the
// pre-registry behaviour, the baseline) or on the bounded background
// pool. Part one contrasts the two refit modes at a modest fleet size —
// the async pool keeps the p99 batch-update latency flat while the
// synchronous baseline stalls whole batches behind FitHWT. Part two
// runs the async service at the full -fcast-series scale and reports
// update throughput, batch latency percentiles, refit throughput and
// staleness.
func forecastExp(series int, seed int64) {
	fmt.Println("== Forecast fleet: sharded registry, batched updates, async re-estimation ==")
	const (
		period      = 24 // hourly resolution, daily season (keeps refits frequent)
		obsPerRound = 4  // observations per series per batch round
		chunk       = 64 // series per UpdateMeasurements batch
		warmRounds  = 9  // 36 observations: exactly the model-creation threshold
		steadyRds   = 24 // 96 further observations: ~2 refit triggers per series
	)
	workers := runtime.GOMAXPROCS(0)
	newCfg := func(syncRefit bool) forecast.RegistryConfig {
		return forecast.RegistryConfig{
			Periods:         []int{period},
			MinObservations: period + period/2,
			MaxHistory:      4 * period,
			FitCfg:          forecast.FitConfig{Options: optimize.Options{MaxEvaluations: 60, Seed: seed}},
			NewStrategy:     func() forecast.EvaluationStrategy { return &forecast.TimeBased{Every: 2 * period} },
			Workers:         workers,
			QueueDepth:      4096,
			SyncRefit:       syncRefit,
		}
	}

	// runPhase feeds rounds x obsPerRound observations into every series
	// from GOMAXPROCS concurrent feeders (each owning a contiguous
	// series range) and returns the throughput and per-batch latencies.
	actors := make([]string, series)
	for i := range actors {
		actors[i] = fmt.Sprintf("a%06d", i)
	}
	runPhase := func(reg *forecast.Registry, nSeries, rounds, tBase int) (updPerSec float64, lats []time.Duration) {
		feeders := workers
		if feeders > nSeries {
			feeders = nSeries
		}
		per := (nSeries + feeders - 1) / feeders
		latParts := make([][]time.Duration, feeders)
		var wg sync.WaitGroup
		t0 := time.Now()
		for f := 0; f < feeders; f++ {
			lo, hi := f*per, min((f+1)*per, nSeries)
			if lo >= hi {
				continue
			}
			wg.Add(1)
			go func(f, lo, hi int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed + int64(f)))
				batch := make([]store.Measurement, 0, chunk*obsPerRound)
				var lat []time.Duration
				for r := 0; r < rounds; r++ {
					for s := lo; s < hi; s += chunk {
						batch = batch[:0]
						for i := s; i < min(s+chunk, hi); i++ {
							for j := 0; j < obsPerRound; j++ {
								t := tBase + r*obsPerRound + j
								v := 10 + 5*math.Sin(2*math.Pi*float64(t%period)/period) + rng.NormFloat64()
								batch = append(batch, store.Measurement{
									Actor: actors[i], EnergyType: "elec",
									Slot: flexoffer.Time(t), KWh: v,
								})
							}
						}
						b0 := time.Now()
						reg.UpdateMeasurements(batch)
						lat = append(lat, time.Since(b0))
					}
				}
				latParts[f] = lat
			}(f, lo, hi)
		}
		wg.Wait()
		wall := time.Since(t0)
		for _, p := range latParts {
			lats = append(lats, p...)
		}
		return float64(nSeries*rounds*obsPerRound) / wall.Seconds(), lats
	}
	pct := func(lats []time.Duration, q float64) time.Duration {
		if len(lats) == 0 {
			return 0
		}
		sorted := append([]time.Duration(nil), lats...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		return sorted[int(q*float64(len(sorted)-1))]
	}

	// -- part one: synchronous-refit baseline vs async pool ------------
	baseline := min(series, 2000)
	fmt.Printf("-- refit modes at %d series (batch = %d series x %d obs) --\n", baseline, chunk, obsPerRound)
	fmt.Println("mode        upd/s       batch_p50   batch_p99   batch_max   refits")
	for _, mode := range []struct {
		name string
		sync bool
	}{{"sync", true}, {fmt.Sprintf("async(x%d)", workers), false}} {
		reg, err := forecast.NewRegistry(newCfg(mode.sync))
		if err != nil {
			log.Fatal(err)
		}
		runPhase(reg, baseline, warmRounds, 0) // create all models
		rate, lats := runPhase(reg, baseline, steadyRds, warmRounds*obsPerRound)
		_ = reg.Quiesce(30 * time.Second)
		st := reg.Stats()
		refits := st.RefitsDone
		if mode.sync {
			refits = st.SyncRefits
		}
		fmt.Printf("%-11s %-11.0f %-11v %-11v %-11v %d\n",
			mode.name, rate,
			pct(lats, 0.50).Round(time.Microsecond), pct(lats, 0.99).Round(time.Microsecond),
			pct(lats, 1.0).Round(time.Microsecond), refits)
		reg.Close()
	}

	// -- part two: the full fleet, async ------------------------------
	fmt.Printf("-- full fleet: %d series, %d refit workers --\n", series, workers)
	reg, err := forecast.NewRegistry(newCfg(false))
	if err != nil {
		log.Fatal(err)
	}
	t0 := time.Now()
	rate, lats := runPhase(reg, series, warmRounds, 0)
	warmWall := time.Since(t0)
	st := reg.Stats()
	fmt.Printf("warm-up: %d models created in %.1fs (%.0f upd/s, batch_p99 %v)\n",
		st.Models, warmWall.Seconds(), rate, pct(lats, 0.99).Round(time.Microsecond))
	rate, lats = runPhase(reg, series, steadyRds, warmRounds*obsPerRound)
	st = reg.Stats()
	fmt.Printf("steady-state: %.0f upd/s  batch_p50 %v  batch_p99 %v  (refits running: %d done / %d enqueued, queue %d/%d)\n",
		rate, pct(lats, 0.50).Round(time.Microsecond), pct(lats, 0.99).Round(time.Microsecond),
		st.RefitsDone, st.RefitsEnqueued, st.QueueDepth, st.QueueCap)
	fmt.Printf("refits: p50 %v  p99 %v  failed %d  queue_overflows %d  staleness max %d / mean %.0f obs\n",
		st.RefitP50.Round(time.Microsecond), st.RefitP99.Round(time.Microsecond),
		st.RefitsFailed, st.QueueOverflows, st.MaxStaleness, st.MeanStaleness)
	one, ok := reg.Forecast(actors[series/2], "elec", period)
	if !ok || len(one) != period {
		log.Fatalf("mid-fleet series has no forecast (ok=%v, len=%d)", ok, len(one))
	}
	reg.Close()
}

// aggExp loads the P3 pipeline with up to maxOffers flex-offers, then
// runs churn cycles (0.1%, 1% and 10% of the population replaced per
// cycle, each cycle one accumulate-then-process batch) and reports the
// per-cycle incremental cost against the from-scratch bulk-load time —
// the speedup of the batched-delta engine over rebuilding every cycle.
func aggExp(maxOffers int, seed int64) {
	fmt.Println("== Agg engine: batched deltas, O(changed) churn cycles ==")
	sizes := []int{}
	for n := 100000; n <= maxOffers; n *= 10 {
		sizes = append(sizes, n)
	}
	if len(sizes) == 0 || sizes[len(sizes)-1] != maxOffers {
		sizes = append(sizes, maxOffers)
	}
	workers := runtime.GOMAXPROCS(0)
	fmt.Println("offers   workers  churn%  batch    cycle_ms   changed/cyc  scratch_ms  speedup  aggs   ratio   loss/offer")
	for _, n := range sizes {
		all := workload.GenerateFlexOffers(workload.FlexOfferConfig{Count: n, Seed: seed})
		workerRuns := []int{1}
		if workers > 1 {
			workerRuns = append(workerRuns, workers)
		}
		for _, nw := range workerRuns {
			pipe := agg.NewPipeline(agg.ParamsP3, agg.BinPackerOptions{})
			pipe.Workers = nw
			live := make(map[flexoffer.ID]*flexoffer.FlexOffer, n)
			var nextID flexoffer.ID
			ups := make([]agg.FlexOfferUpdate, n)
			for i, f := range all {
				ups[i] = agg.FlexOfferUpdate{Kind: agg.Insert, Offer: f}
				live[f.ID] = f
				if f.ID > nextID {
					nextID = f.ID
				}
			}
			t0 := time.Now()
			if err := pipe.Accumulate(ups...); err != nil {
				log.Fatal(err)
			}
			pipe.Process()
			scratch := time.Since(t0)

			rng := rand.New(rand.NewSource(seed + int64(n) + int64(nw)))
			ids := make([]flexoffer.ID, 0, len(live))
			for _, pct := range []float64{0.1, 1, 10} {
				k := int(float64(n) * pct / 100)
				if k < 1 {
					k = 1
				}
				const cycles = 5
				var total time.Duration
				changed := 0
				for c := 0; c < cycles; c++ {
					ids = ids[:0]
					for id := range live {
						ids = append(ids, id)
					}
					batch := make([]agg.FlexOfferUpdate, 0, 2*k)
					for j := 0; j < k; j++ {
						id := ids[rng.Intn(len(ids))]
						f, ok := live[id]
						if !ok { // already churned this cycle
							continue
						}
						delete(live, id)
						batch = append(batch, agg.FlexOfferUpdate{Kind: agg.Delete, Offer: f})
						nf := *f
						nextID++
						nf.ID = nextID
						live[nf.ID] = &nf
						batch = append(batch, agg.FlexOfferUpdate{Kind: agg.Insert, Offer: &nf})
					}
					if err := pipe.Accumulate(batch...); err != nil {
						log.Fatal(err)
					}
					t0 := time.Now()
					outs := pipe.Process()
					total += time.Since(t0)
					changed += len(outs)
				}
				m := pipe.CurrentMetrics()
				cycleMS := total.Seconds() * 1000 / cycles
				scratchMS := scratch.Seconds() * 1000
				fmt.Printf("%-8d %-8d %-7.1f %-8d %-10.2f %-12d %-11.0f %-8.1f %-6d %-7.2f %.3f\n",
					n, nw, pct, k, cycleMS, changed/cycles, scratchMS,
					scratchMS/cycleMS, m.Aggregates, m.CompressionRatio, m.LossPerOffer)
			}
		}
	}
}

// chaosExp sweeps the fault injector's drop rate over a seeded stream
// of idempotent requests, bare versus wrapped in the retry policy. The
// bare rows show the raw fault rate on delivered calls; the retry rows
// show how much of it the jittered-backoff policy absorbs, what the
// retries cost in wall time, and how many calls still exhaust every
// attempt — the residual the simulator's re-offer path has to cover.
func chaosExp(seed int64) {
	fmt.Println("== Chaos: drop-rate sweep, bare transport vs retry policy ==")
	const ops = 2000
	fmt.Printf("%d idempotent requests per cell (3 attempts, backoff 1ms..8ms, seeded)\n", ops)
	fmt.Println("drop   mode    ok      ok%      retries  exhausted  backoff_ms  wall_ms")
	for _, drop := range []float64{0.05, 0.1, 0.2, 0.3} {
		for _, withRetry := range []bool{false, true} {
			bus := comm.NewBus()
			bus.Register("brp", func(ctx context.Context, env comm.Envelope) (*comm.Envelope, error) {
				reply, err := comm.NewEnvelope(comm.MsgPong, "brp", env.From, nil)
				return &reply, err
			})
			inj := chaos.NewInjector(bus, uint64(seed)^uint64(drop*1000), chaos.Faults{DropFrac: drop})
			var tr comm.Transport = inj
			var retry *comm.Retry
			if withRetry {
				retry = comm.NewRetry(inj, comm.RetryConfig{
					Seed:        seed,
					BaseBackoff: time.Millisecond,
					MaxBackoff:  8 * time.Millisecond,
				})
				tr = retry
			}
			client := comm.NewClient("bench", tr)
			ok := 0
			t0 := time.Now()
			for i := 0; i < ops; i++ {
				if err := client.Ping(context.Background(), "brp"); err == nil {
					ok++
				}
			}
			wall := time.Since(t0)
			mode := "bare"
			var rs comm.RetryStats
			if withRetry {
				mode = "retry"
				rs = retry.Stats()
			}
			fmt.Printf("%-6.2f %-7s %-7d %-8.1f %-8d %-10d %-11.1f %.1f\n",
				drop, mode, ok, 100*float64(ok)/ops,
				rs.Retries, rs.Exhausted,
				float64(rs.Backoff)/float64(time.Millisecond),
				float64(wall)/float64(time.Millisecond))
		}
	}
}

// settleExp drives the auditable settlement stack across the market's
// price regimes: per regime, `lines` scheduled flex-offers settle
// through the hash-chained ledger (batched appends, acked before the
// offer transitions), the full chain is re-verified, and a deliberately
// corrupted copy must fail verification at the flipped entry. A closing
// table sweeps multi-round negotiation sessions under each regime's
// quote movement.
func settleExp(lines int, seed int64) {
	fmt.Println("== Settlement: hash-chained ledger across price regimes ==")
	fmt.Printf("%d settlement lines per regime (~10%% deviating), batch 256, fsync flush\n", lines)
	fmt.Println("regime              lines/s    entries   append_p50  append_p99  verify_ms  verify_ent/s")

	var lastPath string
	for _, regime := range market.Regimes() {
		prices, err := market.Scenario(market.ScenarioConfig{Regime: regime, Days: 7, Seed: seed})
		if err != nil {
			log.Fatal(err)
		}
		m, err := market.NewDayAhead(market.Config{Prices: prices})
		if err != nil {
			log.Fatal(err)
		}

		dir, err := os.MkdirTemp("", "mirabel-bench-settle")
		if err != nil {
			log.Fatal(err)
		}
		defer os.RemoveAll(dir)
		path := filepath.Join(dir, "ledger.log")
		led, err := settle.OpenLedger(settle.LedgerConfig{Path: path})
		if err != nil {
			log.Fatal(err)
		}

		// Scheduled offers with ~10% of executions deviating beyond
		// tolerance, so the chain carries penalty entries priced off the
		// regime's imbalance curve alongside lines and profit shares.
		st := store.NewInMemory()
		rng := rand.New(rand.NewSource(seed))
		metered := make(map[flexoffer.ID][]float64)
		horizon := flexoffer.Time(prices.Len() * flexoffer.SlotsPerHour)
		for i := 1; i <= lines; i++ {
			id := flexoffer.ID(i)
			energy := []float64{2 + 4*rng.Float64(), 2 + 4*rng.Float64()}
			rec := store.OfferRecord{
				Offer: &flexoffer.FlexOffer{
					ID: id, Prosumer: fmt.Sprintf("p%d", i%1024), CostPerKWh: 0.02,
				},
				Owner:    fmt.Sprintf("p%d", i%1024),
				State:    store.OfferScheduled,
				Schedule: &flexoffer.Schedule{OfferID: id, Start: flexoffer.Time(rng.Intn(int(horizon))), Energy: energy},
			}
			if err := st.PutOffer(rec); err != nil {
				log.Fatal(err)
			}
			if rng.Float64() < 0.1 {
				metered[id] = []float64{energy[0] * 1.3, energy[1] * 1.3}
			}
		}

		t0 := time.Now()
		rep, err := settle.Run(settle.RunConfig{
			Store:   st,
			Ledger:  led,
			Metered: metered,
			Settle: settle.Config{
				ImbalancePrice:    m.ImbalancePrice,
				ShareFrac:         0.3,
				RealizedProfitEUR: 0.02 * float64(lines),
			},
		})
		if err != nil {
			log.Fatal(err)
		}
		settleDur := time.Since(t0)
		if len(rep.Lines) != lines {
			log.Fatalf("settled %d lines, want %d", len(rep.Lines), lines)
		}

		t1 := time.Now()
		res, err := led.Verify()
		if err != nil {
			log.Fatal(err)
		}
		verifyDur := time.Since(t1)
		if !res.OK {
			log.Fatalf("%s: chain verification failed at seq %d: %s", regime, res.FirstBadSeq, res.Reason)
		}
		stats := led.Stats()
		fmt.Printf("%-19s %-10.0f %-9d %-11v %-11v %-10.1f %.0f\n",
			regime,
			float64(lines)/settleDur.Seconds(),
			stats.Entries,
			stats.AppendP50.Round(time.Microsecond),
			stats.P99.Round(time.Microsecond),
			float64(verifyDur)/float64(time.Millisecond),
			float64(res.Entries)/verifyDur.Seconds())
		if err := led.Close(); err != nil {
			log.Fatal(err)
		}
		lastPath = path
	}

	// Tamper detection: flip one byte mid-chain in a copy of the last
	// regime's ledger — verification must localize the divergence.
	data, err := os.ReadFile(lastPath)
	if err != nil {
		log.Fatal(err)
	}
	tampered := append([]byte(nil), data...)
	tampered[len(tampered)/2] ^= 0x01
	tamperedPath := lastPath + ".tampered"
	if err := os.WriteFile(tamperedPath, tampered, 0o644); err != nil {
		log.Fatal(err)
	}
	res, err := settle.VerifyFile(tamperedPath)
	if err != nil {
		log.Fatal(err)
	}
	if res.OK {
		log.Fatal("tampered ledger passed verification")
	}
	fmt.Printf("tamper check: flipped 1 byte -> divergence at seq %d (%s), %d entries intact\n",
		res.FirstBadSeq, res.Reason, res.Entries)

	fmt.Println()
	fmt.Println("-- multi-round negotiation under regime price pressure --")
	fmt.Println("regime              accept%  mean_premium  mean_rounds  rejected  expired")
	profile := make([]flexoffer.Slice, 4)
	for i := range profile {
		profile[i] = flexoffer.Slice{EnergyMin: 0, EnergyMax: 5}
	}
	nf := &flexoffer.FlexOffer{
		ID: 1, EarliestStart: 100, LatestStart: 116, AssignBefore: 84, Profile: profile,
	}
	const sessions = 500
	for _, regime := range market.Regimes() {
		prices, err := market.Scenario(market.ScenarioConfig{Regime: regime, Days: 7, Seed: seed})
		if err != nil {
			log.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		vl := negotiate.NewValuator()
		base := vl.OfferPrice(nf, 0)
		var accepted, rejected, expired, totalRounds int
		var premiumSum float64
		for s := 0; s < sessions; s++ {
			// Each session starts at a random hour; quotes follow the
			// regime's curve hour by hour from there.
			start := rng.Intn(prices.Len() - 24)
			refMid := prices.Values()[start] / 1000
			if refMid == 0 {
				refMid = 0.001
			}
			sess, err := negotiate.NewSession(negotiate.SessionConfig{
				Valuator:       vl,
				ReservationEUR: base * (0.5 + rng.Float64()),
				RefMid:         refMid,
				Quote: func(round int) float64 {
					return prices.Values()[start+round%24] / 1000
				},
			})
			if err != nil {
				log.Fatal(err)
			}
			res := sess.Run(nf, 0)
			totalRounds += len(res.Rounds)
			switch res.Outcome {
			case negotiate.Accepted:
				accepted++
				premiumSum += res.PremiumEUR
			case negotiate.Rejected:
				rejected++
			case negotiate.Expired:
				expired++
			}
		}
		meanPremium := 0.0
		if accepted > 0 {
			meanPremium = premiumSum / float64(accepted)
		}
		fmt.Printf("%-19s %-8.1f %-13.4f %-12.1f %-9d %d\n",
			regime,
			100*float64(accepted)/sessions,
			meanPremium,
			float64(totalRounds)/sessions,
			rejected, expired)
	}
}
