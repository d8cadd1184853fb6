// Package core is the LEDMS node (paper §3): the Control component that
// orchestrates communication, data management, aggregation, forecasting,
// scheduling and negotiation inside one node of the EDMS hierarchy.
// Node is the BRP: it takes flex-offers and measurements, plans and
// settles. The paper's nodes are homogeneous ("millions of homogeneous
// nodes"), but a prosumer here is the small endpoint of package
// prosumer, which submits offers and takes the schedules sent back; its
// BRP's WAL is the durable copy of both. The paper's third level, a TSO
// that aggregates and schedules the BRPs' macro flex-offers (§2), is
// not built: a BRP plans its own aggregates and has no parent.
//
// The scheduling cycle follows a strict snapshot → plan → commit →
// deliver discipline (cycle.go, deliver.go): the node mutex is held
// only to capture immutable snapshots and to commit results, never
// across the scheduler search, aggregation-snapshot disaggregation or
// transport I/O, so offer intake stays responsive for the whole cycle
// no matter how slow the search or the prosumers are.
//
// There is one node composition. A node always takes intake through the
// ingest queue, always maintains the forecast registry from the queue's
// apply funnel and always settles onto a hash-chained ledger — Config
// only tunes. Every node with a transport sends through the retry
// policy (comm.Retry).
//
// Lock order: cycleMu → intake barrier → mu. Every planner-side flow
// enters through enterPlanner, which takes cycleMu and then waits for
// the barrier (ingest.Queue.Drain) before anything reads the store, so
// "acked" means the same to all of them. The one wait for the queue
// under mu is the cycle's snapshot (snapshotForPlanning), which drains
// it again so the offers acked since the barrier are in the store
// before its expiry sweep. That cannot deadlock: offer producers take
// mu before the queue's gate, so none is inside the gate while the
// snapshot holds mu; measurement producers hold the gate without mu;
// and the applier never takes mu. The barrier is also what keeps
// the store's memory in log order: an acked event is in the WAL before
// it is in the tables, so a flow that writes offers or facts intake
// also writes must not start before the barrier has applied them.
package core

import (
	"context"
	"fmt"
	"sync"
	"time"

	"mirabel/internal/agg"
	"mirabel/internal/comm"
	"mirabel/internal/flexoffer"
	"mirabel/internal/forecast"
	"mirabel/internal/ingest"
	"mirabel/internal/negotiate"
	"mirabel/internal/sched"
	"mirabel/internal/settle"
	"mirabel/internal/store"
)

// Config assembles a node.
type Config struct {
	// Name is the node's endpoint name on the transport.
	Name string
	// Deprecated: ignored; every node is a BRP. ROADMAP B(3) deletes it
	// together with bench/node.go's assignment.
	Role store.Role
	// Transport connects the node to its peers.
	Transport comm.Transport
	// Store is the node's Data Management component (in-memory if nil).
	Store *store.Store

	AggParams agg.Params    // aggregation thresholds
	SchedOpts sched.Options // per-cycle scheduling budget
	// Deprecated: ignored; the search's restarts use every core. ROADMAP
	// B(4) deletes it together with bench/node.go's assignment.
	SchedWorkers int
	// Deprecated: ignored; the cycle aggregates on GOMAXPROCS goroutines,
	// with the same result at any core count. ROADMAP B(4) deletes it
	// together with bench/node.go's assignment.
	AggWorkers int

	// Forecasting tunes the fleet-scale forecast service
	// (forecast.Registry) every node runs: each measurement the ingest
	// queue applies maintains a per-(actor,energy) model, re-estimated
	// on a bounded background pool. Nil means the registry's
	// defaults — never "no registry".
	Forecasting *forecast.RegistryConfig

	// Middleware is appended to the node's built-in handler chain
	// (recovery, metrics) — the seam where logging, tracing or
	// rate-limiting layer in without touching dispatch.
	Middleware []comm.Middleware

	// Ingest tunes the async queue (internal/ingest) all intake of a
	// node goes through: producers are acked once their event is in
	// the store's WAL, and one applier applies the acked
	// events to the store with batch coalescing. Store is filled with
	// the node's store and OnMeasurements is chained behind the forecast
	// registry's feed. Nil means the queue's defaults — never synchronous
	// intake. Intake is as durable as Store: acks on an in-memory store
	// recover nothing.
	Ingest *ingest.Config

	// Retry tunes the retry policy (comm.Retry) every outbound call of
	// the node goes through: jittered exponential backoff, retries
	// restricted to idempotent message types unless the failure proves
	// the request never left. Nil means the policy's defaults — never
	// "no retries".
	Retry *comm.RetryConfig

	// Settlement places and tunes the hash-chained settlement ledger
	// (settle.OpenLedger) every node settles onto:
	// SettleExecuted is a batched, crash-recoverable run whose ledger
	// appends are acked before offers transition. Nil or an empty Path
	// means a volatile ledger (same chain and balances, gone with the
	// process) — never ledgerless settlement.
	Settlement *settle.LedgerConfig
}

// Node is one LEDMS instance. A BRP's planning state lives in its
// aggregation pipeline alone: which offers are pending, their
// similarity groups, the aggregates and the aggregates' planning
// snapshots are each held once, there, and the node asks the pipeline
// instead of mirroring it. The store holds the offers' records.
type Node struct {
	cfg     Config
	client  *comm.Client
	handler comm.Handler
	metrics *comm.Metrics
	retry   *comm.Retry // nil exactly when the node has no transport

	// The data path, opened by NewNode.
	ingest *ingest.Queue
	fcasts *forecast.Registry
	ledger *settle.Ledger

	// cycleMu serializes the planner-side flows (RunSchedulingCycle,
	// SettleExecuted, CancelProsumer) against each other; take it
	// through enterPlanner only. It is never held while mu is wanted by
	// message handlers, and it IS held across transport I/O — that is
	// its point: long plan and deliver phases proceed under cycleMu
	// alone while intake keeps flowing under mu.
	cycleMu sync.Mutex

	mu    sync.Mutex
	store *store.Store
	// pipeline holds the accepted-but-unscheduled offers (the paper's
	// pending flexibilities that may time out): an offer is pending
	// exactly while the pipeline holds it (agg.Pipeline.Offer).
	pipeline *agg.Pipeline
	valuator *negotiate.Valuator
	// commit is the commit phase's staging, reused across cycles.
	commit commitScratch

	// planTime is the node's latest planning time: the start slot of
	// the most recent scheduling cycle. Offer valuation is anchored at
	// it.
	planTime flexoffer.Time

	// recoveredPending counts accepted offers re-admitted into the
	// planning pipeline from the store at construction — a reopened node
	// schedules what its predecessor had accepted but not yet placed.
	recoveredPending int
}

// NewNode builds a node and registers nothing — attach it to a transport
// with comm.Bus.Register(name, node.Handler()) or
// comm.ListenTCP(addr, node.Handler()).
func NewNode(cfg Config) (*Node, error) {
	if cfg.Name == "" {
		return nil, fmt.Errorf("core: node needs a name")
	}
	if cfg.Store == nil {
		cfg.Store = store.NewInMemory()
	}
	n := &Node{
		cfg:      cfg,
		metrics:  &comm.Metrics{},
		store:    cfg.Store,
		pipeline: agg.NewPipeline(cfg.AggParams),
		valuator: negotiate.NewValuator(),
	}
	if cfg.Transport != nil {
		n.retry = comm.NewRetry(cfg.Transport, orZero(cfg.Retry))
		n.client = comm.NewClient(cfg.Name, n.retry)
	}

	if err := n.openDataPath(); err != nil {
		return nil, err
	}

	// Dispatch: one registered handler per message type, wrapped in the
	// node's middleware chain. Recover sits innermost so a handler
	// panic surfaces as an ordinary error to the configured middleware
	// (logging sees it) and to Collect (metrics count it).
	mux := comm.NewMux()
	mux.Handle(comm.MsgPing, n.handlePing)
	mux.Handle(comm.MsgFlexOfferSubmit, n.handleOfferSubmit)
	mux.Handle(comm.MsgMeasurementBatch, n.handleMeasurementBatch)
	chain := append([]comm.Middleware{n.metrics.Collect()}, cfg.Middleware...)
	chain = append(chain, comm.Recover())
	n.handler = comm.Chain(mux.Serve, chain...)
	return n, nil
}

// orZero dereferences an optional tuning block: nil means the
// package's defaults.
func orZero[T any](p *T) T {
	if p == nil {
		var zero T
		return zero
	}
	return *p
}

// openDataPath opens the node's components — registry, ingest queue,
// ledger — and re-admits the accepted offers. It reads no intake log:
// every acked event is in the store's WAL, which the store's Open has
// replayed. The ledger's chain walk reads a file nothing else reads,
// so it runs on its own goroutine while the registry starts and the
// accepted offers are re-admitted, and is joined on every path. On any
// failure everything already opened is stopped again.
func (n *Node) openDataPath() error {
	type opened struct {
		l   *settle.Ledger
		err error
	}
	ledger := make(chan opened, 1)
	go func() {
		l, err := settle.OpenLedger(orZero(n.cfg.Settlement))
		ledger <- opened{l, err}
	}()
	reg, q, err := n.openIntake()
	lo := <-ledger
	switch {
	case err != nil:
		if lo.err == nil {
			_ = lo.l.Close()
		}
		return err
	case lo.err != nil:
		q.Kill()
		reg.Close()
		return fmt.Errorf("core: open settlement ledger: %w", lo.err)
	}
	n.fcasts, n.ingest, n.ledger = reg, q, lo.l
	return nil
}

// openIntake opens the forecast registry and the ingest queue and then
// re-admits the accepted offers. On failure it stops what it opened.
func (n *Node) openIntake() (*forecast.Registry, *ingest.Queue, error) {
	reg, err := forecast.NewRegistry(orZero(n.cfg.Forecasting))
	if err != nil {
		return nil, nil, fmt.Errorf("core: forecast registry: %w", err)
	}
	ic := orZero(n.cfg.Ingest)
	ic.Store = n.store
	// The apply funnel feeds the forecast service: every batch the
	// applier applies maintains the per-series models.
	observe := ic.OnMeasurements
	ic.OnMeasurements = func(ms []store.Measurement) {
		reg.UpdateMeasurements(ms)
		if observe != nil {
			observe(ms)
		}
	}
	q, err := ingest.Open(ic)
	if err != nil {
		reg.Close()
		return nil, nil, fmt.Errorf("core: open ingest queue: %w", err)
	}
	n.readmitAccepted()
	return reg, q, nil
}

// readmitAccepted is crash recovery for the planning state: a
// predecessor's accepted offers live in the store — the ones its applier
// never reached too, since their acks are WAL frames — but the pipeline
// is in-memory and died with it. Re-admit them so a
// restarted BRP schedules what it had already promised, instead of
// letting acked offers sit accepted forever.
func (n *Node) readmitAccepted() {
	for _, rec := range n.store.Offers(store.OfferFilter{State: store.OfferAccepted}) {
		if rec.Offer == nil {
			continue
		}
		if err := n.pipeline.Accumulate(agg.FlexOfferUpdate{Kind: agg.Insert, Offer: rec.Offer}); err != nil {
			continue // malformed record: planning just skips it
		}
		n.recoveredPending++
	}
}

// enterPlanner is the one way into a planner-side flow: it takes
// cycleMu and then the intake barrier — every event acked so far is
// applied to the store and has maintained its forecast model — so no
// flow reads a store that is missing an acked offer. On success the
// caller owns cycleMu and must release it; barrier is the wait's wall
// time.
func (n *Node) enterPlanner(ctx context.Context) (barrier time.Duration, err error) {
	n.cycleMu.Lock()
	t0 := time.Now()
	if err := n.ingest.Drain(ctx); err != nil {
		n.cycleMu.Unlock()
		return 0, fmt.Errorf("core: intake barrier: %w", err)
	}
	return time.Since(t0), nil
}

// Store exposes the node's data management component.
func (n *Node) Store() *store.Store { return n.store }

// Metrics exposes the node's per-message-type handler statistics.
func (n *Node) Metrics() *comm.Metrics { return n.metrics }

// Handler returns the node's message entry point — the per-type
// dispatch wrapped in its middleware chain — for registration on a
// transport.
func (n *Node) Handler() comm.Handler { return n.handler }

// handlePing answers liveness probes.
func (n *Node) handlePing(ctx context.Context, env comm.Envelope) (*comm.Envelope, error) {
	reply, err := comm.NewEnvelope(comm.MsgPong, n.cfg.Name, env.From, nil)
	if err != nil {
		return nil, err
	}
	return &reply, nil
}

// handleOfferSubmit runs negotiation and feeds accepted offers into the
// aggregation pipeline.
func (n *Node) handleOfferSubmit(ctx context.Context, env comm.Envelope) (*comm.Envelope, error) {
	var body comm.FlexOfferSubmit
	if err := env.Decode(comm.MsgFlexOfferSubmit, &body); err != nil {
		return nil, err
	}
	decision := n.acceptOffer(ctx, body.Offer, env.From, true)
	reply, err := comm.NewEnvelope(comm.MsgFlexOfferDecision, n.cfg.Name, env.From, comm.FlexOfferDecision{
		OfferID:    body.Offer.ID,
		Accept:     decision.Accept,
		Reason:     decision.Reason,
		PremiumEUR: decision.Price,
	})
	if err != nil {
		return nil, err
	}
	return &reply, nil
}

// AcceptOffer is the in-process form of flex-offer submission: the
// negotiation component decides; accepted offers enter the store and the
// aggregation pipeline as pending flexibilities. It never blocks on a
// running scheduling cycle — intake only needs the node mutex, which
// the cycle releases for its plan and deliver phases.
func (n *Node) AcceptOffer(f *flexoffer.FlexOffer, owner string) negotiate.Decision {
	return n.acceptOffer(context.Background(), f, owner, false)
}

// acceptOffer decides f for owner. owned says the caller hands f over —
// an offer decoded from the wire, which nobody else holds — so the
// negotiated premium is written into f itself; otherwise into a copy,
// and the caller's offer stays as it was.
func (n *Node) acceptOffer(ctx context.Context, f *flexoffer.FlexOffer, owner string, owned bool) negotiate.Decision {
	n.mu.Lock()
	defer n.mu.Unlock()
	// Negotiation evaluates at the current planning time: the node's
	// notion of "now" is the earliest moment it could still schedule.
	decision := n.valuator.Decide(f, n.nowLocked())
	// The stored offer carries the negotiated premium, which settlement
	// reads back after execution.
	priced := f
	if !owned {
		priced = f.Clone()
	}
	priced.CostPerKWh = decision.Price
	if decision.Accept {
		// The id must be free. The store holds every acked offer once
		// applied (a rejected record does not take its id), including
		// the planned ones that have left the pipeline; the pipeline's
		// membership index covers the acked ones not yet applied.
		// Accumulate, don't process: intake only validates against that
		// index and appends to the pipeline's pending batch. Grouping,
		// packing and aggregation run once per cycle (phase 0 of
		// snapshotForPlanning), so the lock hold here is O(1) no matter
		// how hot the intake path runs.
		if rec, ok := n.store.GetOffer(f.ID); ok && rec.State != store.OfferRejected {
			decision = negotiate.Decision{Reason: fmt.Sprintf("core: duplicate flex-offer id %d (%s)", f.ID, rec.State)}
		} else if err := n.pipeline.Accumulate(agg.FlexOfferUpdate{Kind: agg.Insert, Offer: priced}); err != nil {
			// The pipeline rejected the offer (e.g. duplicate id).
			decision = negotiate.Decision{Accept: false, Reason: err.Error()}
		}
	}
	state := store.OfferRejected
	if decision.Accept {
		state = store.OfferAccepted
	}
	// Persist the final record exactly once — after the pipeline verdict
	// — so the intake path never logs two racing records for one
	// submission. The record is acked on the WAL's group commit and
	// applied to the store asynchronously.
	rec := store.OfferRecord{Offer: priced, Owner: owner, State: state}
	slot, err := n.ingest.SubmitOfferSlot(ctx, rec)
	if err != nil {
		if decision.Accept {
			// Keep the pipeline consistent with the store: the delete
			// cancels the still-pending insert at zero cost.
			_ = n.pipeline.Accumulate(agg.FlexOfferUpdate{Kind: agg.Delete, Offer: priced})
		}
		return negotiate.Decision{Accept: false, Reason: err.Error()}
	}
	if decision.Accept {
		// The pending offer carries the slot its record will be applied
		// into, so the cycle's commit writes the record in place.
		n.pipeline.SetSlot(priced.ID, uint64(slot))
	}
	return decision
}

// nowLocked is the node's planning time: the start slot of the most
// recent scheduling cycle (zero until the first cycle runs — the
// simulation drives time explicitly). Caller holds mu.
func (n *Node) nowLocked() flexoffer.Time { return n.planTime }

// handleMeasurementBatch takes a reported meter-stream batch as one
// ingest event: one WAL group, one store round on apply.
func (n *Node) handleMeasurementBatch(ctx context.Context, env comm.Envelope) (*comm.Envelope, error) {
	var body comm.MeasurementBatch
	if err := env.Decode(comm.MsgMeasurementBatch, &body); err != nil {
		return nil, err
	}
	ms := make([]store.Measurement, len(body.Reports))
	for i, r := range body.Reports {
		ms[i] = store.Measurement{Actor: r.Actor, EnergyType: r.EnergyType, Slot: r.Slot, KWh: r.KWh}
	}
	return nil, n.ingest.SubmitMeasurements(ctx, ms)
}

// IngestStats reports the intake queue's counters; ok is always true.
// ROADMAP B(3) drops the ok together with bench/'s reads of it.
func (n *Node) IngestStats() (ingest.Stats, bool) { return n.ingest.Stats(), true }

// DrainIngest waits until every acked intake event has been applied to
// the store. The planner-side flows take this barrier themselves
// (enterPlanner); explicit callers use it for read-your-writes on the
// store.
func (n *Node) DrainIngest(ctx context.Context) error { return n.ingest.Drain(ctx) }

// RetryStats reports the outbound retry policy's counters; ok is false
// only for a node built without a transport.
func (n *Node) RetryStats() (comm.RetryStats, bool) {
	if n.retry == nil {
		return comm.RetryStats{}, false
	}
	return n.retry.Stats(), true
}

// ForecastRegistry exposes the node's fleet forecast service — series
// forecasts and counters.
func (n *Node) ForecastRegistry() *forecast.Registry { return n.fcasts }

// ForecastStats reports the forecast registry's counters; ok is always
// true. ROADMAP B(3) drops the ok together with bench/'s reads of it.
func (n *Node) ForecastStats() (forecast.RegistryStats, bool) { return n.fcasts.Stats(), true }

// Close shuts the node's background machinery down: the ingest queue is
// drained (best effort) and closed so every acked event reaches the
// store before the process exits. The store stays open — it belongs to
// the caller.
func (n *Node) Close() error {
	err := n.ingest.Close()
	// After the ingest drain, so the refit pool outlives the last
	// measurement batch the applier feeds it.
	n.fcasts.Close()
	if lerr := n.ledger.Close(); err == nil {
		err = lerr
	}
	return err
}

// Kill simulates a crash for recovery testing: the ingest queue's
// applier stops with the in-memory backlog abandoned (the acks are in
// the store's WAL), and the forecast service, ledger and store close
// without the drain barrier Close performs. The node must not be
// used afterwards; rebuild it over the same directories to recover.
func (n *Node) Kill() {
	n.ingest.Kill()
	n.fcasts.Close()
	_ = n.ledger.Close()
	_ = n.store.Close()
}

// RecoveredPending reports how many accepted offers the node re-admitted
// into its planning pipeline from the store at construction.
func (n *Node) RecoveredPending() int { return n.recoveredPending }

// CancelProsumer settles a prosumer leaving mid-contract
// (settle.CancelActor): every open offer of theirs — including one
// acked but not yet applied when the call begins — is voided with a
// penalty entry on the ledger, one close-out entry zeroes their balance,
// and their still-pending offers leave the aggregation pipeline so the
// next cycle plans without them.
func (n *Node) CancelProsumer(prosumer string, cfg settle.CancelConfig) (*settle.CancelReport, error) {
	if _, err := n.enterPlanner(context.TODO()); err != nil {
		return nil, err
	}
	defer n.cycleMu.Unlock()
	rep, err := settle.CancelActor(n.store, n.ledger, prosumer, cfg)
	if err != nil {
		return nil, err
	}
	n.mu.Lock()
	for _, id := range rep.Cancelled {
		if off, ok := n.pipeline.Offer(id); ok {
			_ = n.pipeline.Accumulate(agg.FlexOfferUpdate{Kind: agg.Delete, Offer: off})
		}
	}
	n.mu.Unlock()
	return rep, nil
}

// SettleExecuted settles all scheduled flex-offers against their metered
// execution: premiums are paid, deviations penalized and (optionally)
// the realized profit shared — the execution-time half of the
// negotiation component. metered maps offer IDs to measured energy per
// schedule slice; offers without metering are treated as perfectly
// compliant (metered = scheduled). Settled offers move to the executed
// state.
//
// It is a batched, crash-recoverable run: every batch's ledger append
// is acked before its offers transition, and a re-run after a crash
// dedups against the chain (settle.Run). Settlement is a planner-side
// flow: cycleMu is held across ledger fsyncs, so intake keeps flowing
// under mu meanwhile.
func (n *Node) SettleExecuted(metered map[flexoffer.ID][]float64, cfg settle.Config) (*settle.RunReport, error) {
	if _, err := n.enterPlanner(context.TODO()); err != nil {
		return nil, err
	}
	defer n.cycleMu.Unlock()
	return settle.Run(settle.RunConfig{
		Store:   n.store,
		Ledger:  n.ledger,
		Metered: metered,
		Settle:  cfg,
	})
}

// Ledger exposes the node's settlement ledger for balance queries and
// chain verification.
func (n *Node) Ledger() *settle.Ledger { return n.ledger }

// LedgerStats snapshots the settlement ledger's counters; ok is always
// true. ROADMAP B(3) drops the ok together with bench/'s reads of it.
func (n *Node) LedgerStats() (settle.LedgerStats, bool) { return n.ledger.Stats(), true }

// forecaster produces the baseline for a horizon; the node's scheduling
// cycle accepts any source (StaticForecast, ShiftedForecast, ...).
type forecaster interface {
	Forecast(h int) []float64
}
