// mirabel-node runs a single LEDMS node as a network daemon: it serves
// its role (prosumer or brp) over TCP. A brp is the whole node
// (internal/core). With -data its store (whose WAL also holds every
// acked intake event and every schedule it delivered) and its
// settlement ledger live in that directory under one -fsync policy;
// without it both are in-memory. A brp takes no -parent: the paper's
// TSO level above the BRPs is not built. A prosumer is a small endpoint
// (internal/prosumer) that keeps its offers and schedules in memory, so
// it takes no -data; its -parent is the BRP its -demo-offer goes to.
// Small deployments wire nodes together with -route flags.
//
// A two-node session:
//
//	mirabel-node -name brp1 -role brp -listen 127.0.0.1:7701 -data /tmp/brp1 &
//	mirabel-node -name p1 -role prosumer -parent brp1 \
//	    -route brp1=127.0.0.1:7701 -listen 127.0.0.1:7702 -demo-offer
//
// The prosumer's -demo-offer submits one EV-style flex-offer and prints
// the decision, exercising negotiation over the wire. Its offer ID is
// the low 16 bits of the clock's nanoseconds, so two demo prosumers
// against one BRP collide about once in 65,536 runs: the BRP refuses
// the second as a duplicate id, and nothing it acked is lost.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"slices"
	"strings"
	"syscall"
	"time"

	"mirabel/internal/agg"
	"mirabel/internal/comm"
	"mirabel/internal/core"
	"mirabel/internal/flexoffer"
	"mirabel/internal/ingest"
	"mirabel/internal/prosumer"
	"mirabel/internal/sched"
	"mirabel/internal/settle"
	"mirabel/internal/store"
)

// errUsage reports a command line run cannot act on; the flag set has
// already printed why.
var errUsage = errors.New("usage")

func main() {
	log.SetFlags(0)
	log.SetPrefix("mirabel-node: ")
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	switch err := run(os.Args[1:], os.Stdout, stop); {
	case err == nil, errors.Is(err, flag.ErrHelp):
	case errors.Is(err, errUsage):
		os.Exit(2)
	default:
		log.Fatal(err)
	}
}

// config is the daemon's command line.
type config struct {
	name, role, parent, listen, dataDir, routes string
	fsync, ingestPolicy, ping                   string
	retryAttempts                               int
	demoOffer, verbose                          bool
}

// flags declares the daemon's command line on fs.
func flags(fs *flag.FlagSet) *config {
	c := &config{}
	fs.StringVar(&c.name, "name", "", "node name (endpoint id)")
	fs.StringVar(&c.role, "role", "", "prosumer | brp")
	fs.StringVar(&c.parent, "parent", "", "BRP the prosumer's -demo-offer goes to (prosumer only)")
	fs.StringVar(&c.listen, "listen", "127.0.0.1:0", "TCP listen address")
	fs.StringVar(&c.dataDir, "data", "", "brp directory of the store and settlement ledger (empty: both in-memory)")
	fs.StringVar(&c.fsync, "fsync", "flush", "fsync policy of store WAL and ledger: flush | always | interval (every 100ms)")
	fs.StringVar(&c.routes, "route", "", "comma-separated name=addr routes to peers")
	fs.StringVar(&c.ingestPolicy, "ingest-policy", "block", "ingest backpressure policy when the queue is full: block | shed")
	fs.IntVar(&c.retryAttempts, "retry-attempts", 2, "max attempts per outbound call (1: no retries)")
	fs.BoolVar(&c.demoOffer, "demo-offer", false, "submit one demo flex-offer to the parent and exit")
	fs.StringVar(&c.ping, "ping", "", "ping the named peer over the typed client and exit")
	fs.BoolVar(&c.verbose, "v", false, "log every handled message")
	return c
}

// run parses args, opens the node and serves it until stop delivers —
// or, with -ping or -demo-offer, until that exchange is done, whose
// outcome goes to stdout.
func run(args []string, stdout io.Writer, stop <-chan os.Signal) error {
	fs := flag.NewFlagSet("mirabel-node", flag.ContinueOnError)
	c := flags(fs)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return errUsage
	}
	if c.name == "" || !store.Role(c.role).Valid() {
		fs.Usage()
		return errUsage
	}
	if c.retryAttempts < 1 {
		return usage(fs, "-retry-attempts %d: want at least 1 (1: no retries)", c.retryAttempts)
	}
	isProsumer := store.Role(c.role) == store.RoleProsumer
	switch {
	case isProsumer && c.dataDir != "":
		return usage(fs, "-data: a prosumer keeps nothing on disk; its BRP's WAL is the durable copy of its offers and schedules")
	case c.demoOffer && c.parent == "":
		return usage(fs, "-demo-offer needs -parent, the BRP the offer goes to")
	case !isProsumer && c.parent != "":
		return fmt.Errorf("brp %s has no parent level to forward to (got -parent %q)", c.name, c.parent)
	}

	client := comm.NewTCPClient(c.name)
	defer client.Close()
	defer func() {
		// The transport's lifetime counters tell an operator whether the
		// node kept its peers on warm connections (reuses ≫ dials) or
		// thrashed redials.
		st := client.Stats()
		log.Printf("transport: dials=%d reuses=%d requests=%d sends=%d in_flight=%d",
			st.Dials, st.Reuses, st.Requests, st.Sends, st.InFlight)
	}()
	if c.routes != "" {
		for _, r := range strings.Split(c.routes, ",") {
			parts := strings.SplitN(r, "=", 2)
			if len(parts) != 2 {
				return fmt.Errorf("bad -route entry %q (want name=addr)", r)
			}
			client.SetRoute(parts[0], parts[1])
		}
	}

	var mw []comm.Middleware
	if c.verbose {
		mw = append(mw, comm.Logging(log.Printf))
	}
	// The retry policy (not the TCP client) owns re-attempts; the
	// default of 2 heals a stale connection with one extra dial.
	retry := comm.RetryConfig{MaxAttempts: c.retryAttempts}
	var handler comm.Handler
	var ep *prosumer.Endpoint
	if isProsumer {
		ep = prosumer.New(c.name, comm.NewClient(c.name, comm.NewRetry(client, retry)))
		handler = comm.Chain(ep.Handler(), mw...)
		defer func() {
			log.Printf("prosumer: schedules=%d refused_notifies=%d", len(ep.Schedules()), ep.Refused())
		}()
	} else {
		node, closeNode, err := openBRP(c, client, mw, retry)
		if err != nil {
			return err
		}
		defer closeNode()
		handler = node.Handler()
	}

	srv, err := comm.ListenTCP(c.listen, handler)
	if err != nil {
		return err
	}
	defer srv.Close()
	log.Printf("%s (%s) serving on %s", c.name, c.role, srv.Addr())

	ctx := context.Background()
	if c.ping != "" {
		// Typed-client liveness probe against a routed peer.
		rpc := comm.NewClient(c.name, client, comm.WithRequestTimeout(3*time.Second))
		t0 := time.Now()
		if err := rpc.Ping(ctx, c.ping); err != nil {
			return fmt.Errorf("ping %s: %w", c.ping, err)
		}
		fmt.Fprintf(stdout, "ping %s: ok in %v\n", c.ping, time.Since(t0).Round(time.Microsecond))
		return nil
	}

	if c.demoOffer {
		profile := make([]flexoffer.Slice, 8)
		for i := range profile {
			profile[i] = flexoffer.Slice{EnergyMin: 0, EnergyMax: 6.25}
		}
		offer := &flexoffer.FlexOffer{
			ID:            flexoffer.ID(time.Now().UnixNano() & 0xffff),
			Prosumer:      c.name,
			EarliestStart: 88,
			LatestStart:   116,
			AssignBefore:  86,
			Profile:       profile,
		}
		submitCtx, cancel := context.WithTimeout(ctx, 10*time.Second)
		defer cancel()
		decision, err := ep.Submit(submitCtx, c.parent, offer)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "demo offer %d: accept=%v premium=%.3f EUR/kWh reason=%q\n",
			offer.ID, decision.Accept, decision.PremiumEUR, decision.Reason)
		return nil
	}

	// Serve until interrupted.
	<-stop
	log.Printf("shutting down")
	return nil
}

// usage prints why a command line cannot run, then the usage text.
func usage(fs *flag.FlagSet, format string, args ...any) error {
	fmt.Fprintf(fs.Output(), format+"\n", args...)
	fs.Usage()
	return errUsage
}

// openBRP opens the BRP node over its store and ledger. The returned
// close stops the node, logs its counters and closes the store.
func openBRP(c *config, tx comm.Transport, mw []comm.Middleware, retry comm.RetryConfig) (*core.Node, func(), error) {
	// One fsync policy for everything the node writes: an ingest ack is
	// a store commit, and a ledger append is as durable as one.
	var syncPol store.SyncPolicy
	switch c.fsync {
	case "flush":
	case "always":
		syncPol = store.SyncAlways
	case "interval":
		syncPol = store.SyncInterval
	default:
		return nil, nil, fmt.Errorf("unknown -fsync policy %q (want flush | always | interval)", c.fsync)
	}
	policy, err := ingest.ParsePolicy(c.ingestPolicy)
	if err != nil {
		return nil, nil, err
	}
	lc := &settle.LedgerConfig{Sync: syncPol}
	st := store.NewInMemory()
	if c.dataDir != "" {
		if st, err = store.Open(c.dataDir, store.WithSyncPolicy(syncPol)); err != nil {
			return nil, nil, err
		}
		lc.Path = filepath.Join(c.dataDir, "ledger.log")
	}
	node, err := core.NewNode(core.Config{
		Name:       c.name,
		Transport:  tx,
		Store:      st,
		AggParams:  agg.ParamsP3,
		SchedOpts:  sched.Options{TimeBudget: 2 * time.Second},
		Middleware: mw,
		Ingest:     &ingest.Config{Policy: policy},
		Settlement: lc,
		Retry:      &retry,
	})
	if err != nil {
		_ = st.Close()
		return nil, nil, err
	}
	return node, func() {
		if err := node.Close(); err != nil {
			log.Printf("node close: %v", err)
		}
		logStats(node)
		if err := st.Close(); err != nil {
			log.Printf("store close: %v", err)
		}
	}, nil
}

// logStats logs a stopped node's counters, one line per component and
// one per handled message type.
func logStats(node *core.Node) {
	if rs, ok := node.RetryStats(); ok {
		log.Printf("retry: calls=%d retries=%d exhausted=%d non_retryable=%d backoff=%v",
			rs.Calls, rs.Retries, rs.Exhausted, rs.NonRetryable, rs.Backoff)
	}
	st, _ := node.IngestStats()
	log.Printf("ingest: enqueued=%d consumed=%d shed=%d batches=%d mean_batch=%.1f ack_p99=%v",
		st.Enqueued, st.Consumed, st.Shed, st.Batches, st.MeanBatch, st.AckP99)
	fs, _ := node.ForecastStats()
	log.Printf("forecast: series=%d models=%d obs=%d refits=%d/%d failed=%d overflows=%d refit_p99=%v max_staleness=%d",
		fs.Series, fs.Models, fs.Observations, fs.RefitsDone, fs.RefitsEnqueued, fs.RefitsFailed,
		fs.QueueOverflows, fs.RefitP99, fs.MaxStaleness)
	ls, _ := node.LedgerStats()
	log.Printf("ledger: entries=%d actors=%d settled=%d appends=%d append_p50=%v append_p99=%v recovered=%d dropped_bytes=%d syncs=%d",
		ls.Entries, ls.Actors, ls.SettledOffers, ls.Appends, ls.AppendP50, ls.P99,
		ls.RecoveredEntries, ls.DroppedBytes, ls.Log.Syncs)
	snap := node.Metrics().Snapshot()
	types := make([]comm.MsgType, 0, len(snap))
	for t := range snap {
		types = append(types, t)
	}
	slices.Sort(types)
	for _, t := range types {
		m := snap[t]
		log.Printf("handled %s: count=%d errors=%d p50=%v p99=%v", t, m.Handled, m.Errors, m.P50, m.P99)
	}
}
