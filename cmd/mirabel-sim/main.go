// mirabel-sim runs a chaos-capable EDMS population simulation in one
// process: stateful prosumer households sharded across worker
// goroutines issue flex-offers and acked measurement batches to durable
// BRP nodes, which aggregate, schedule and deliver micro schedules back
// — while a seeded fault injector (internal/chaos) drops messages,
// injects latency and ambiguous errors, cuts partitions and
// crash-restarts whole nodes mid-run. A BRP's directory holds its two
// logs, the store WAL (every acked offer and measurement batch is a WAL
// frame before its ack returns) and the settlement ledger, so a restart
// replays what the crash left unapplied. The end-of-run report asserts
// the durability contract (zero acked-event loss, verified settlement
// chains) and prints throughput, latency percentiles and every
// degradation counter.
//
//	mirabel-sim -prosumers 10000 -brps 4 -cycles 12 \
//	    -faults 'drop=0.1,spike=0.05:20ms,crash=brp-0@3+2' -churn 0.01
//
// Runs are reproducible: the same -seed and -faults replay the same
// fault decisions, churn draws and search, so a failing chaos run is a
// repro case, not an anecdote.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"sort"
	"syscall"
	"time"
)

// flags declares the simulator's command line on fs.
func flags(fs *flag.FlagSet) *simConfig {
	cfg := &simConfig{}
	fs.IntVar(&cfg.Prosumers, "prosumers", 2000, "prosumer households")
	fs.IntVar(&cfg.BRPs, "brps", 4, "BRP nodes")
	fs.IntVar(&cfg.Shards, "shards", 4, "worker goroutines driving the population")
	fs.IntVar(&cfg.Cycles, "cycles", 12, "scheduling cycles to run")
	fs.IntVar(&cfg.SlotsPerCycle, "slots", 4, "event-time slots per cycle")
	fs.IntVar(&cfg.StartSlot, "start-slot", 66, "event-time slot the run starts at (default 16:30, before the evening surge)")
	fs.Int64Var(&cfg.Seed, "seed", 1, "run seed (workload, churn, faults, search)")
	fs.StringVar(&cfg.Faults, "faults", "", "fault schedule, e.g. 'drop=0.1,lat=1ms:2ms,part=brp-1@3-4,crash=brp-0@3+2'")
	fs.Float64Var(&cfg.Churn, "churn", 0, "per-household per-cycle probability of leaving mid-contract")
	fs.DurationVar(&cfg.Budget, "budget", 500*time.Millisecond, "per-cycle scheduling time budget")
	fs.IntVar(&cfg.Iters, "iters", 0, "scheduling iteration bound (0 = time budget only; set for deterministic planning)")
	fs.DurationVar(&cfg.Pace, "pace", 0, "wall-clock duration of one event-time slot (0 = free-running)")
	fs.StringVar(&cfg.Dir, "dir", "", "durable state root (default: a fresh temp dir, removed on exit)")
	fs.IntVar(&cfg.MeasureEvery, "measure-every", 8, "every Nth household reports an acked measurement batch per cycle")
	return cfg
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("mirabel-sim: ")
	cfg := flags(flag.CommandLine)
	flag.Parse()
	cfg.Logf = log.Printf

	if cfg.Dir == "" {
		dir, err := os.MkdirTemp("", "mirabel-sim-")
		if err != nil {
			log.Fatal(err)
		}
		defer os.RemoveAll(dir)
		cfg.Dir = dir
	}

	// Ctrl-C cancels the cycle loop; recovery, verification and the
	// report still run over the work completed so far.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	res, err := runSim(ctx, *cfg)
	if err != nil {
		log.Fatal(err)
	}
	printReport(os.Stdout, res)
	if len(res.LostOffers) > 0 || len(res.LostMeasurements) > 0 {
		log.Fatalf("FAIL: %d acked offers and %d acked measurements lost",
			len(res.LostOffers), len(res.LostMeasurements))
	}
	for name, v := range res.Ledgers {
		if !v.OK {
			log.Fatalf("FAIL: %s settlement chain broken: %s", name, v.Reason)
		}
	}
	if res.NotifiesRefused > 0 {
		log.Fatalf("FAIL: %d schedule notifies misdelivered", res.NotifiesRefused)
	}
}

func printReport(w io.Writer, r *simResult) {
	fmt.Fprintf(w, "run: %d cycles in %v\n", r.Cycles, r.Elapsed.Round(time.Millisecond))
	fmt.Fprintf(w, "offers: %d submitted, %d acked (%d accepted), %d failed, %d re-offered — %.0f acked offers/s\n",
		r.OffersSubmitted, r.OffersAcked, r.OffersAccepted, r.OffersFailed, r.Reoffered, r.OffersPerSec())
	fmt.Fprintf(w, "schedules: %d planned, %d delivered — %.0f schedules/s; %d expired; %d notifies refused\n",
		r.MicroSchedules, r.SchedulesDelivered, r.SchedulesPerSec(), r.Expired, r.NotifiesRefused)
	fmt.Fprintf(w, "measurements: %d facts acked, %d batches failed\n", r.MeasAcked, r.MeasFailed)
	cycleQ := func(q float64) time.Duration {
		return time.Duration(r.CycleLatency.Quantile(q)).Round(time.Microsecond)
	}
	fmt.Fprintf(w, "cycle latency: p50=%v p95=%v p99=%v over %d node-cycles (%d errors)\n",
		cycleQ(0.50), cycleQ(0.95), cycleQ(0.99), r.CycleLatency.Count(), r.CycleErrors)
	fmt.Fprint(w, "cycle phases p50:")
	for p, name := range cyclePhaseNames {
		fmt.Fprintf(w, " %s=%v", name, time.Duration(r.CyclePhases[p].Quantile(0.5)).Round(time.Microsecond))
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "churn: %d households left mid-contract (%d deferred past a dead BRP), %d offers cancelled, %.2f EUR penalties\n",
		r.ChurnLeft, r.ChurnDeferred, r.CancelledOffers, r.CancelPenaltyEUR)

	fmt.Fprintf(w, "chaos: %d kills, %d restarts, %d partitions cut, %d healed; %d pending offers recovered across restarts\n",
		r.Controller.Kills, r.Controller.Restarts, r.Controller.PartsCut, r.Controller.Healed, r.RecoveredPending)
	for _, name := range sortedKeys(r.Injectors) {
		st := r.Injectors[name]
		if st.Ops == 0 {
			continue
		}
		fmt.Fprintf(w, "  injector %-8s ops=%-6d drops=%-5d errs=%-5d spikes=%-5d partitioned=%d\n",
			name, st.Ops, st.Drops, st.Errors, st.Spikes, st.Partitioned)
	}
	for _, name := range sortedKeys(r.Retry) {
		rs := r.Retry[name]
		if rs.Calls == 0 {
			continue
		}
		fmt.Fprintf(w, "  retry    %-8s calls=%-6d retries=%-4d exhausted=%-4d nonretryable=%-4d backoff=%v\n",
			name, rs.Calls, rs.Retries, rs.Exhausted, rs.NonRetryable, rs.Backoff.Round(time.Millisecond))
	}
	for _, name := range sortedKeys(r.Ingest) {
		is := r.Ingest[name]
		fmt.Fprintf(w, "  ingest   %-8s enqueued=%-6d consumed=%-6d shed=%-4d batches=%d\n",
			name, is.Enqueued, is.Consumed, is.Shed, is.Batches)
	}
	if r.NotifyFailures > 0 {
		fmt.Fprintf(w, "  delivery: %d notify failures\n", r.NotifyFailures)
	}

	for _, name := range sortedKeys(r.Ledgers) {
		v := r.Ledgers[name]
		status := "OK"
		if !v.OK {
			status = "BROKEN: " + v.Reason
		}
		fmt.Fprintf(w, "ledger %s: %d entries, chain %s\n", name, v.Entries, status)
	}
	if len(r.LostOffers) == 0 && len(r.LostMeasurements) == 0 {
		fmt.Fprintf(w, "durability: zero acked-event loss (%d offers, %d measurement facts verified)\n",
			r.OffersAcked, r.MeasAcked)
	} else {
		for _, l := range r.LostOffers {
			fmt.Fprintf(w, "LOST: %s\n", l)
		}
		for _, l := range r.LostMeasurements {
			fmt.Fprintf(w, "LOST: %s\n", l)
		}
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
