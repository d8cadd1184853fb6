// mirabel-node runs a single LEDMS node as a network daemon: it serves
// its role (prosumer, brp or tso) over TCP. With -data the store, the
// ingest journal and the settlement ledger live in that directory under
// one -fsync policy; without it all three are in-memory. Small
// deployments wire nodes together with -route flags.
//
// A two-node session:
//
//	mirabel-node -name brp1 -role brp -listen 127.0.0.1:7701 -data /tmp/brp1 &
//	mirabel-node -name p1 -role prosumer -parent brp1 \
//	    -route brp1=127.0.0.1:7701 -listen 127.0.0.1:7702 -data /tmp/p1 \
//	    -demo-offer
//
// The prosumer's -demo-offer submits one EV-style flex-offer and prints
// the decision, exercising negotiation over the wire.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
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

func main() {
	log.SetFlags(0)
	log.SetPrefix("mirabel-node: ")
	var (
		name      = flag.String("name", "", "node name (endpoint id)")
		role      = flag.String("role", "", "prosumer | brp | tso")
		parent    = flag.String("parent", "", "parent node name")
		listen    = flag.String("listen", "127.0.0.1:0", "TCP listen address")
		dataDir   = flag.String("data", "", "directory of the store, ingest journal and settlement ledger (empty: all in-memory)")
		fsync     = flag.String("fsync", "flush", "fsync policy of store WAL, ingest journal and ledger: flush | always | interval")
		fsyncIvl  = flag.Duration("fsync-interval", 100*time.Millisecond, "background fsync cadence for -fsync interval")
		retain    = flag.Int64("retain-slots", 0, "measurement retention window in slots (0: keep forever)")
		retainIvl = flag.Duration("retain-every", time.Minute, "how often the retention sweep runs")
		routes    = flag.String("route", "", "comma-separated name=addr routes to peers")
		aggWrk    = flag.Int("agg-workers", 0, "parallel per-aggregate workers for batched aggregation (0/1: single-threaded)")
		ingestPol = flag.String("ingest-policy", "block", "ingest backpressure policy when the queue is full: block | shed")
		ingestCmp = flag.Int64("ingest-compact", 0, "ingest journal compaction threshold in bytes (0: compact only on restart)")
		fcWorkers = flag.Int("fcast-workers", 1, "background re-estimation workers for the forecast registry")
		brkWindow = flag.Int("breaker-window", 0, "circuit-breaker outcome window per destination (0: no breaker)")
		brkRate   = flag.Float64("breaker-rate", 0.5, "failure rate over the window that opens a destination's circuit")
		brkCool   = flag.Duration("breaker-cooldown", 5*time.Second, "open-circuit cooldown before a half-open trial")
		retryMax  = flag.Int("retry-attempts", 2, "max attempts per outbound call (1: no retries)")
		retryBase = flag.Duration("retry-backoff", 25*time.Millisecond, "base backoff before the second retry (the first retry of a provably-unsent call is immediate)")
		retryCap  = flag.Duration("retry-backoff-max", time.Second, "exponential backoff ceiling")
		poolSize  = flag.Int("pool", comm.DefaultPoolSize, "pipelined TCP connections pooled per peer")
		demoOffer = flag.Bool("demo-offer", false, "submit one demo flex-offer to the parent and exit")
		pingPeer  = flag.String("ping", "", "ping the named peer over the typed client and exit")
		verbose   = flag.Bool("v", false, "log every handled message")
	)
	flag.Parse()
	if *name == "" || *role == "" {
		flag.Usage()
		os.Exit(2)
	}

	// One fsync policy for everything the node writes: an ingest ack and
	// a ledger append are as durable as a store commit.
	var syncPol store.SyncPolicy
	switch *fsync {
	case "flush":
	case "always":
		syncPol = store.SyncAlways
	case "interval":
		syncPol = store.SyncInterval
	default:
		log.Fatalf("unknown -fsync policy %q (want flush | always | interval)", *fsync)
	}
	policy, err := ingest.ParsePolicy(*ingestPol)
	if err != nil {
		log.Fatal(err)
	}
	ic := &ingest.Config{Policy: policy, CompactBytes: *ingestCmp, Sync: syncPol, SyncInterval: *fsyncIvl}
	lc := &settle.LedgerConfig{Sync: syncPol, SyncInterval: *fsyncIvl}
	var st *store.Store
	if *dataDir != "" {
		// WithSyncInterval also selects SyncInterval; the policy option
		// after it has the last word.
		st, err = store.Open(*dataDir, store.WithSyncInterval(*fsyncIvl), store.WithSyncPolicy(syncPol))
		if err != nil {
			log.Fatal(err)
		}
		defer func() {
			if err := st.Close(); err != nil {
				log.Printf("store close: %v", err)
			}
		}()
		ic.Path = filepath.Join(*dataDir, "ingest.log")
		lc.Path = filepath.Join(*dataDir, "ledger.log")
	}

	client := comm.NewTCPClient(*name, comm.WithPoolSize(*poolSize))
	defer client.Close()
	defer func() {
		// The transport's lifetime counters tell an operator whether the
		// node kept its peers on warm pooled connections (reuses ≫
		// dials) or thrashed redials.
		st := client.Stats()
		log.Printf("transport: dials=%d reuses=%d requests=%d sends=%d in_flight=%d",
			st.Dials, st.Reuses, st.Requests, st.Sends, st.InFlight)
	}()
	if *routes != "" {
		for _, r := range strings.Split(*routes, ",") {
			parts := strings.SplitN(r, "=", 2)
			if len(parts) != 2 {
				log.Fatalf("bad -route entry %q (want name=addr)", r)
			}
			client.SetRoute(parts[0], parts[1])
		}
	}

	var mw []comm.Middleware
	if *verbose {
		mw = append(mw, comm.Logging(log.Printf))
	}
	cfg := core.Config{
		Name:        *name,
		Role:        store.Role(*role),
		Parent:      *parent,
		Transport:   client,
		Store:       st,
		AggParams:   agg.ParamsP3,
		SchedOpts:   sched.Options{TimeBudget: 2 * time.Second},
		AggWorkers:  *aggWrk,
		Middleware:  mw,
		Ingest:      ic,
		Forecasting: &forecast.RegistryConfig{Workers: *fcWorkers},
		Settlement:  lc,
	}
	if *brkWindow > 0 {
		cfg.Breaker = &comm.BreakerConfig{
			Window:      *brkWindow,
			FailureRate: *brkRate,
			Cooldown:    *brkCool,
		}
	}
	if *retryMax > 1 {
		// The retry policy (not the TCP client) owns re-attempts; the
		// default of 2 preserves the historical one-extra-dial heal for
		// stale pooled connections.
		cfg.Retry = &comm.RetryConfig{
			MaxAttempts: *retryMax,
			BaseBackoff: *retryBase,
			MaxBackoff:  *retryCap,
		}
	}
	node, err := core.NewNode(cfg)
	if err != nil {
		log.Fatal(err)
	}
	defer func() {
		if err := node.Close(); err != nil {
			log.Printf("node close: %v", err)
		}
		if rs, ok := node.RetryStats(); ok {
			log.Printf("retry: calls=%d retries=%d short_circuits=%d exhausted=%d non_retryable=%d backoff=%v",
				rs.Calls, rs.Retries, rs.ShortCircuits, rs.Exhausted, rs.NonRetryable, rs.Backoff)
		}
		if st, ok := node.IngestStats(); ok {
			log.Printf("ingest: enqueued=%d consumed=%d shed=%d batches=%d mean_batch=%.1f ack_p99=%v compactions=%d reclaimed_bytes=%d",
				st.Enqueued, st.Consumed, st.Shed, st.Batches, st.MeanBatch, st.AckP99, st.Compactions, st.CompactedBytes)
		}
		if fs, ok := node.ForecastStats(); ok {
			log.Printf("forecast: series=%d models=%d obs=%d refits=%d/%d failed=%d overflows=%d refit_p99=%v max_staleness=%d",
				fs.Series, fs.Models, fs.Observations, fs.RefitsDone, fs.RefitsEnqueued, fs.RefitsFailed,
				fs.QueueOverflows, fs.RefitP99, fs.MaxStaleness)
		}
		if ls, ok := node.LedgerStats(); ok {
			log.Printf("ledger: entries=%d actors=%d settled=%d appends=%d append_p50=%v append_p99=%v recovered=%d dropped_bytes=%d syncs=%d",
				ls.Entries, ls.Actors, ls.SettledOffers, ls.Appends, ls.AppendP50, ls.P99,
				ls.RecoveredEntries, ls.DroppedBytes, ls.Log.Syncs)
		}
	}()

	srv, err := comm.ListenTCP(*listen, node.Handler())
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	log.Printf("%s (%s) serving on %s", *name, *role, srv.Addr())

	ctx := context.Background()
	if *pingPeer != "" {
		// Typed-client liveness probe against a routed peer.
		rpc := comm.NewClient(*name, client, comm.WithRequestTimeout(3*time.Second))
		t0 := time.Now()
		if err := rpc.Ping(ctx, *pingPeer); err != nil {
			log.Fatalf("ping %s: %v", *pingPeer, err)
		}
		fmt.Printf("ping %s: ok in %v\n", *pingPeer, time.Since(t0).Round(time.Microsecond))
		return
	}

	if *demoOffer {
		profile := make([]flexoffer.Slice, 8)
		for i := range profile {
			profile[i] = flexoffer.Slice{EnergyMin: 0, EnergyMax: 6.25}
		}
		offer := &flexoffer.FlexOffer{
			ID:            flexoffer.ID(time.Now().UnixNano() & 0xffff),
			Prosumer:      *name,
			EarliestStart: 88,
			LatestStart:   116,
			AssignBefore:  86,
			Profile:       profile,
		}
		submitCtx, cancel := context.WithTimeout(ctx, 10*time.Second)
		defer cancel()
		decision, err := node.SubmitOfferTo(submitCtx, offer)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("demo offer %d: accept=%v premium=%.3f EUR/kWh reason=%q\n",
			offer.ID, decision.Accept, decision.PremiumEUR, decision.Reason)
		return
	}

	// Retention: periodically drop measurements that slid out of the
	// node's window behind its planning time (durable stores only — an
	// in-memory node dies with its data anyway).
	if *retain > 0 && st != nil {
		stopRetention := make(chan struct{})
		defer close(stopRetention)
		go func() {
			t := time.NewTicker(*retainIvl)
			defer t.Stop()
			for {
				select {
				case <-stopRetention:
					return
				case <-t.C:
					before := int64(node.PlanningTime()) - *retain
					if before <= 0 {
						continue
					}
					n, err := st.PruneMeasurements(flexoffer.Time(before))
					if err != nil {
						log.Printf("retention sweep: %v", err)
					} else if n > 0 && *verbose {
						log.Printf("retention sweep: pruned %d measurements before slot %d", n, before)
					}
				}
			}
		}()
	}

	// Serve until interrupted.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	log.Printf("shutting down")
}
