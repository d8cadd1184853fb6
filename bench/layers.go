package main

import (
	"context"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"

	"mirabel/internal/agg"
	"mirabel/internal/comm"
	"mirabel/internal/core"
	"mirabel/internal/flexoffer"
	"mirabel/internal/forecast"
	"mirabel/internal/ingest"
	"mirabel/internal/sched"
	"mirabel/internal/settle"
	"mirabel/internal/store"
)

// perLayer are the metrics of single layers, reported by a traced run
// and never gated. The layer.* ones time each layer's public functions
// standalone, on the same seeded inputs the workloads use (layerSuite);
// the run.* ones are the layers' own Stats() counters after the traced
// workload; the trace.* ones describe the span recording itself.
// README.md says which end-to-end metric each should move.
var perLayer = []metricSpec{
	{Name: "comm.roundtrip_p50_us", Unit: "us", Better: "lower"},
	{Name: "comm.bytes_per_offer", Unit: "B", Better: "lower"},
	{Name: "comm.notify_ms_per_1k", Unit: "ms", Better: "lower"},
	{Name: "core.accept_p50_us", Unit: "us", Better: "lower"},
	{Name: "core.cycle_unattributed_ms", Unit: "ms", Better: "lower"},
	{Name: "ingest.submit_p50_us", Unit: "us", Better: "lower"},
	{Name: "ingest.drain_ms", Unit: "ms", Better: "lower"},
	{Name: "ingest.events_per_batch", Unit: "count", Better: "higher"},
	{Name: "ingest.journal_bytes_per_event", Unit: "B", Better: "lower"},
	{Name: "store.apply_us_per_rec", Unit: "us", Better: "lower"},
	{Name: "store.update_offers_ms_per_1k", Unit: "ms", Better: "lower"},
	{Name: "store.offers_by_state_ms", Unit: "ms", Better: "lower"},
	{Name: "store.open_ms", Unit: "ms", Better: "lower"},
	{Name: "store.wal_bytes_per_rec", Unit: "B", Better: "lower"},
	{Name: "store.wal_recs_per_group", Unit: "count", Better: "higher"},
	{Name: "store.wal_fsyncs", Unit: "count", Better: "lower"},
	{Name: "agg.process_ms", Unit: "ms", Better: "lower"},
	{Name: "agg.disaggregate_ms", Unit: "ms", Better: "lower"},
	{Name: "agg.offers_per_aggregate", Unit: "count", Better: "higher"},
	{Name: "sched.schedule_ms", Unit: "ms", Better: "lower"},
	{Name: "sched.cost_vs_baseline", Unit: "frac", Better: "lower"},
	{Name: "forecast.update_us_per_fact", Unit: "us", Better: "lower"},
	{Name: "forecast.refits_done", Unit: "count", Better: "higher"},
	{Name: "forecast.queue_overflows", Unit: "count", Better: "lower"},
	{Name: "settle.run_ms_per_1k", Unit: "ms", Better: "lower"},
	{Name: "settle.verify_ms_per_1k", Unit: "ms", Better: "lower"},
	{Name: "settle.ledger_bytes_per_entry", Unit: "B", Better: "lower"},
	{Name: "settle.entries_per_group", Unit: "count", Better: "higher"},
	{Name: "run.wal_records", Unit: "count", Better: "lower"},
	{Name: "run.wal_recs_per_group", Unit: "count", Better: "higher"},
	{Name: "run.wal_fsyncs", Unit: "count", Better: "lower"},
	{Name: "run.journal_events_per_group", Unit: "count", Better: "higher"},
	{Name: "run.journal_fsyncs", Unit: "count", Better: "lower"},
	{Name: "run.ingest_events_per_batch", Unit: "count", Better: "higher"},
	{Name: "run.ledger_entries_per_group", Unit: "count", Better: "higher"},
	{Name: "run.ledger_fsyncs", Unit: "count", Better: "lower"},
	{Name: "run.forecast_refits", Unit: "count", Better: "higher"},
	{Name: "run.retries", Unit: "count", Better: "lower"},
	{Name: "trace.spans", Unit: "count", Better: "lower"},
	{Name: "trace.overhead_frac", Unit: "frac", Better: "lower"},
	{Name: "trace.root_self_frac", Unit: "frac", Better: "lower"},
}

// layerOffers is the input size of every standalone layer measurement:
// one round's worth of offers.
const layerOffers = 5000

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func fileSize(path string) float64 {
	fi, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return float64(fi.Size())
}

// layerSuite measures every layer.* metric. dir is scratch space of
// its own, removed afterwards.
func layerSuite(g *generator, seed int64, dir string) (map[string]float64, error) {
	defer os.RemoveAll(dir)
	out := make(map[string]float64)
	offers := make([]*flexoffer.FlexOffer, layerOffers)
	for k := range offers {
		offers[k] = g.offer(k, planSlot(0))
	}
	steps := []struct {
		name string
		run  func() error
	}{
		{"comm", func() error { return layerComm(out, offers) }},
		{"core", func() error { return layerCore(out, g, seed, filepath.Join(dir, "core")) }},
		{"ingest", func() error { return layerIngest(out, offers, filepath.Join(dir, "ingest")) }},
		{"store", func() error { return layerStore(out, offers, filepath.Join(dir, "store")) }},
		{"agg+sched", func() error { return layerPlan(out, offers, seed) }},
		{"forecast", func() error { return layerForecast(out, g) }},
		{"settle", func() error { return layerSettle(out, offers, filepath.Join(dir, "settle")) }},
	}
	for _, s := range steps {
		if err := s.run(); err != nil {
			return nil, fmt.Errorf("layer %s: %w", s.name, err)
		}
	}
	return out, nil
}

// layerComm times the transport alone: a request/reply against a
// handler that decodes the offer and answers (no node behind it), the
// bytes one offer occupies on the wire, and a schedule notification
// from encode to decoded.
func layerComm(out map[string]float64, offers []*flexoffer.FlexOffer) error {
	ctx := context.Background()
	decoded := make(chan int, 1)
	mux := comm.NewMux()
	mux.Handle(comm.MsgFlexOfferSubmit, func(_ context.Context, env comm.Envelope) (*comm.Envelope, error) {
		var body comm.FlexOfferSubmit
		if err := env.Decode(comm.MsgFlexOfferSubmit, &body); err != nil {
			return nil, err
		}
		reply, err := comm.NewEnvelope(comm.MsgFlexOfferDecision, "echo", env.From, comm.FlexOfferDecision{OfferID: body.Offer.ID, Accept: true})
		return &reply, err
	})
	mux.Handle(comm.MsgScheduleNotify, func(_ context.Context, env comm.Envelope) (*comm.Envelope, error) {
		var body comm.ScheduleNotify
		if err := env.Decode(comm.MsgScheduleNotify, &body); err != nil {
			return nil, err
		}
		decoded <- len(body.Schedules)
		return nil, nil
	})
	srv, err := comm.ListenTCP("127.0.0.1:0", mux.Serve)
	if err != nil {
		return err
	}
	defer srv.Close()
	tx := comm.NewTCPClient("probe", comm.WithPoolSize(1))
	defer tx.Close()
	tx.SetRoute("echo", srv.Addr())
	rpc := comm.NewClient("probe", tx)

	lat := make([]time.Duration, 0, len(offers))
	for _, f := range offers {
		t0 := clock()
		if _, err := rpc.SubmitOffer(ctx, "echo", f); err != nil {
			return err
		}
		lat = append(lat, clock()-t0)
	}
	out["comm.roundtrip_p50_us"] = us(median(lat))

	const batches, perBatch = 5, 1000
	schedules := make([]*flexoffer.Schedule, perBatch)
	for i := range schedules {
		schedules[i] = offers[i].DefaultSchedule()
	}
	t0 := clock()
	for i := 0; i < batches; i++ {
		if err := rpc.NotifySchedules(ctx, "echo", schedules); err != nil {
			return err
		}
		if n := <-decoded; n != perBatch {
			return fmt.Errorf("notify decoded %d schedules, sent %d", n, perBatch)
		}
	}
	out["comm.notify_ms_per_1k"] = ms(clock()-t0) / batches

	// Wire size: count what a raw socket receives for fire-and-forget
	// submit frames.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer ln.Close()
	got := make(chan int64, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			got <- -1
			return
		}
		defer conn.Close()
		var total int64
		buf := make([]byte, 64<<10)
		for {
			n, err := conn.Read(buf)
			total += int64(n)
			if err != nil {
				got <- total
				return
			}
		}
	}()
	raw := comm.NewTCPClient("probe", comm.WithPoolSize(1))
	raw.SetRoute("sink", ln.Addr().String())
	const frames = 1000
	for _, f := range offers[:frames] {
		env, err := comm.NewEnvelope(comm.MsgFlexOfferSubmit, "probe", "sink", comm.FlexOfferSubmit{Offer: f})
		if err != nil {
			return err
		}
		if err := raw.Send(ctx, "sink", env); err != nil {
			return err
		}
	}
	if err := raw.Close(); err != nil {
		return err
	}
	total := <-got
	if total <= 0 {
		return fmt.Errorf("wire-size sink read %d bytes", total)
	}
	out["comm.bytes_per_offer"] = float64(total) / frames
	return nil
}

// layerCore times the node's own share: in-process acceptance
// (negotiation + pipeline accumulate + journal ack) and the part of a
// cycle that none of its four reported phase timers covers.
func layerCore(out map[string]float64, g *generator, seed int64, dir string) error {
	owners, err := startOwners(1)
	if err != nil {
		return err
	}
	defer owners[0].close()
	b, _, err := openNode(dir, seed, fullSizes.cycleIters, owners)
	if err != nil {
		return err
	}
	defer b.kill()
	var accept, unattributed []time.Duration
	const rounds = 3
	for round := 0; round < rounds; round++ {
		for k := round * layerOffers; k < (round+1)*layerOffers; k++ {
			t0 := clock()
			if d := b.node.AcceptOffer(g.offer(k, planSlot(round)), owners[0].name); !d.Accept {
				return fmt.Errorf("offer %d refused: %s", k, d.Reason)
			}
			accept = append(accept, clock()-t0)
		}
		before := b.received()
		t0 := clock()
		rep, err := b.node.RunSchedulingCycle(context.Background(), planSlot(round), core.StaticForecast(baseline()), nil, nil)
		wall := clock() - t0
		if err != nil {
			return err
		}
		if _, err := b.awaitDelivery(before + int64(rep.MicroSchedules)); err != nil {
			return err
		}
		owners[0].take()
		unattributed = append(unattributed, wall-(rep.IngestDrainTime+rep.AggregationTime+rep.SchedulingTime+rep.DeliveryTime))
	}
	out["core.accept_p50_us"] = us(median(accept))
	out["core.cycle_unattributed_ms"] = ms(median(unattributed))
	return nil
}

// layerIngest times the queue alone over a durable store: acks from as
// many producers as the workloads have clients, then the drain barrier.
func layerIngest(out map[string]float64, offers []*flexoffer.FlexOffer, dir string) error {
	st, err := store.Open(dir)
	if err != nil {
		return err
	}
	defer st.Close()
	journal := filepath.Join(dir, "ingest.log")
	q, err := ingest.Open(ingest.Config{Store: st, Path: journal, Policy: ingest.PolicyBlock})
	if err != nil {
		return err
	}
	defer q.Close()
	const producers = 2
	lats := make([][]time.Duration, producers)
	errs := make([]error, producers)
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for k := p; k < len(offers); k += producers {
				t0 := clock()
				if err := q.SubmitOffer(context.Background(), store.OfferRecord{Offer: offers[k], Owner: "owner0", State: store.OfferAccepted}); err != nil {
					errs[p] = err
					return
				}
				lats[p] = append(lats[p], clock()-t0)
			}
		}(p)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	size := fileSize(journal) // before the drain truncates it
	t0 := clock()
	if err := q.Drain(context.Background()); err != nil {
		return err
	}
	out["ingest.drain_ms"] = ms(clock() - t0)
	out["ingest.submit_p50_us"] = us(median(append(lats[0], lats[1]...)))
	s := q.Stats()
	out["ingest.events_per_batch"] = s.MeanBatch
	out["ingest.journal_bytes_per_event"] = size / float64(len(offers))
	return nil
}

// layerStore times the store's batch paths the node uses — insert
// (ingest drain), batched transition (cycle commit, settlement), the
// state-index read (settlement, recovery) — and a replaying reopen.
func layerStore(out map[string]float64, offers []*flexoffer.FlexOffer, dir string) error {
	st, err := store.Open(dir)
	if err != nil {
		return err
	}
	const batch = 256 // ingest's default coalescing bound
	t0 := clock()
	for lo := 0; lo < len(offers); lo += batch {
		b := store.NewBatch()
		for _, f := range offers[lo:min(lo+batch, len(offers))] {
			b.PutOffer(store.OfferRecord{Offer: f, Owner: "owner0", State: store.OfferAccepted})
		}
		if err := st.ApplyBatch(b); err != nil {
			st.Close()
			return err
		}
	}
	out["store.apply_us_per_rec"] = us(clock()-t0) / float64(len(offers))

	updates := make([]store.OfferUpdate, len(offers))
	for i, f := range offers {
		sch := f.DefaultSchedule()
		updates[i] = store.OfferUpdate{ID: f.ID, Mutate: func(r *store.OfferRecord) {
			r.State, r.Schedule = store.OfferScheduled, sch
		}}
	}
	t0 = clock()
	if _, err := st.UpdateOffers(updates); err != nil {
		st.Close()
		return err
	}
	out["store.update_offers_ms_per_1k"] = ms(clock()-t0) * 1000 / float64(len(offers))

	t0 = clock()
	if n := len(st.Offers(store.OfferFilter{State: store.OfferScheduled})); n != len(offers) {
		st.Close()
		return fmt.Errorf("state index returned %d of %d offers", n, len(offers))
	}
	out["store.offers_by_state_ms"] = ms(clock() - t0)

	ws := st.WALStats()
	if err := st.Close(); err != nil {
		return err
	}
	out["store.wal_bytes_per_rec"] = fileSize(filepath.Join(dir, "wal.log")) / float64(ws.Records)
	out["store.wal_recs_per_group"] = ratio(ws.Records, ws.Groups)

	t0 = clock()
	st, err = store.Open(dir)
	if err != nil {
		return err
	}
	out["store.open_ms"] = ms(clock() - t0)
	out["store.wal_fsyncs"] = float64(ws.Syncs + st.WALStats().Syncs)
	if n := st.Stats().Offers; n != len(offers) {
		st.Close()
		return fmt.Errorf("reopen restored %d of %d offers", n, len(offers))
	}
	return st.Close()
}

// layerPlan times aggregation, the search at the cycle workload's
// iteration bound on the problem built from those aggregates, and
// disaggregation of its result.
func layerPlan(out map[string]float64, offers []*flexoffer.FlexOffer, seed int64) error {
	p := agg.NewPipeline(agg.ParamsP3, agg.BinPackerOptions{})
	t0 := clock()
	for _, f := range offers {
		if err := p.Accumulate(agg.FlexOfferUpdate{Kind: agg.Insert, Offer: f}); err != nil {
			return err
		}
	}
	p.Process()
	out["agg.process_ms"] = ms(clock() - t0)
	m := p.CurrentMetrics()
	out["agg.offers_per_aggregate"] = m.CompressionRatio

	var macros []*flexoffer.FlexOffer
	for _, a := range p.Aggregates() {
		if !expiresAt(a.Offer, planSlot(0)) {
			macros = append(macros, a.Offer)
		}
	}
	price := make([]float64, horizonSlots)
	for i := range price {
		price[i] = 0.15 // the cycle's default flat imbalance price
	}
	problem := &sched.Problem{Start: planSlot(0), Slots: horizonSlots, Baseline: baseline(), ImbalancePrice: price, Offers: macros}
	t0 = clock()
	res, err := (&sched.RandomizedGreedy{}).Schedule(context.Background(), problem, sched.Options{TimeBudget: schedBudget, MaxIterations: fullSizes.cycleIters, Seed: seed})
	if err != nil {
		return err
	}
	out["sched.schedule_ms"] = ms(clock() - t0)
	if base := problem.BaselineCost(); base != 0 {
		out["sched.cost_vs_baseline"] = res.Cost / base
	}

	t0 = clock()
	micro, err := p.Disaggregate(problem.Schedules(res.Solution))
	if err != nil {
		return err
	}
	out["agg.disaggregate_ms"] = ms(clock() - t0)
	if len(micro) == 0 {
		return fmt.Errorf("disaggregation produced no micro schedules")
	}
	return nil
}

// layerForecast times the registry's batched update path on as many
// facts as ten lifecycle rounds deliver, enough for every series to
// leave warm-up and be re-estimated.
func layerForecast(out map[string]float64, g *generator) error {
	reg, err := forecast.NewRegistry(forecast.RegistryConfig{})
	if err != nil {
		return err
	}
	defer reg.Close()
	const batches = 10 * 320
	facts := make([][]store.Measurement, batches)
	for q := range facts {
		for _, m := range g.batch(q) {
			facts[q] = append(facts[q], store.Measurement{Actor: m.Actor, EnergyType: m.EnergyType, Slot: m.Slot, KWh: m.KWh})
		}
	}
	t0 := clock()
	for _, ms := range facts {
		reg.UpdateMeasurements(ms)
	}
	out["forecast.update_us_per_fact"] = us(clock()-t0) / (batches * factsPerBatch)
	if err := reg.Quiesce(opTimeout); err != nil {
		return err
	}
	s := reg.Stats()
	out["forecast.refits_done"] = float64(s.RefitsDone)
	out["forecast.queue_overflows"] = float64(s.QueueOverflows)
	return nil
}

// layerSettle times a settlement run over scheduled offers and the
// audit walk over the chain it wrote.
func layerSettle(out map[string]float64, offers []*flexoffer.FlexOffer, dir string) error {
	st, err := store.Open(dir)
	if err != nil {
		return err
	}
	defer st.Close()
	b := store.NewBatch()
	for _, f := range offers {
		b.PutOffer(store.OfferRecord{Offer: f, Owner: "owner0", State: store.OfferScheduled, Schedule: f.DefaultSchedule()})
	}
	if err := st.ApplyBatch(b); err != nil {
		return err
	}
	path := filepath.Join(dir, "ledger.log")
	ledger, err := settle.OpenLedger(settle.LedgerConfig{Path: path})
	if err != nil {
		return err
	}
	defer ledger.Close()
	t0 := clock()
	rep, err := settle.Run(settle.RunConfig{Store: st, Ledger: ledger})
	if err != nil {
		return err
	}
	out["settle.run_ms_per_1k"] = ms(clock()-t0) * 1000 / float64(len(offers))
	if len(rep.Lines) != len(offers) {
		return fmt.Errorf("settled %d of %d offers", len(rep.Lines), len(offers))
	}
	t0 = clock()
	v, err := ledger.Verify()
	if err != nil || !v.OK {
		return fmt.Errorf("ledger verify: ok=%v err=%v", v.OK, err)
	}
	out["settle.verify_ms_per_1k"] = ms(clock()-t0) * 1000 / float64(v.Entries)
	ls := ledger.Stats()
	out["settle.ledger_bytes_per_entry"] = fileSize(path) / float64(ls.Entries)
	out["settle.entries_per_group"] = ratio(ls.Log.Records, ls.Log.Groups)
	return nil
}

// runCounters reads the layers' own counters off a node after a
// workload ran on it.
func runCounters(b *bench) map[string]float64 {
	out := make(map[string]float64)
	ws := b.node.Store().WALStats()
	out["run.wal_records"] = float64(ws.Records)
	out["run.wal_recs_per_group"] = ratio(ws.Records, ws.Groups)
	out["run.wal_fsyncs"] = float64(ws.Syncs)
	if is, ok := b.node.IngestStats(); ok {
		out["run.journal_events_per_group"] = ratio(is.Journal.Records, is.Journal.Groups)
		out["run.journal_fsyncs"] = float64(is.Journal.Syncs)
		out["run.ingest_events_per_batch"] = is.MeanBatch
	}
	if ls, ok := b.node.LedgerStats(); ok {
		out["run.ledger_entries_per_group"] = ratio(ls.Log.Records, ls.Log.Groups)
		out["run.ledger_fsyncs"] = float64(ls.Log.Syncs)
	}
	if fs, ok := b.node.ForecastStats(); ok {
		out["run.forecast_refits"] = float64(fs.RefitsDone)
	}
	if rs, ok := b.node.RetryStats(); ok {
		out["run.retries"] = float64(rs.Retries)
	}
	return out
}
