package core

import (
	"context"
	"fmt"
	"time"

	"mirabel/internal/agg"
	"mirabel/internal/flexoffer"
	"mirabel/internal/par"
	"mirabel/internal/sched"
	"mirabel/internal/store"
)

// CycleReport summarizes one scheduling cycle of a BRP node.
type CycleReport struct {
	Offers         int     // pending micro flex-offers considered
	Aggregates     int     // macro flex-offers scheduled
	ScheduleCost   float64 // cost of the chosen schedule (EUR)
	BaselineCost   float64 // cost had no flexibility been used
	MicroSchedules int     // disaggregated schedules produced by the plan
	Expired        int     // offers dropped because their deadline passed
	// Deprecated: always 0; the commit stores every planned micro
	// schedule or none. ROADMAP B(3) deletes it together with
	// bench/workloads.go's read.
	Reconciled     int
	NotifyFailures int // prosumers that could not be reached
	// Deprecated: always empty; every owner the cycle cannot reach is
	// counted in NotifyFailures. ROADMAP B(3) deletes it together with
	// bench/workloads.go's read.
	SkippedOwners []string

	// The phases' wall times, in the order the cycle runs them. They do
	// not overlap, and together they cover the cycle but for its
	// bookkeeping between phases.

	// IngestDrainTime is the wall time of the cycle's intake barrier:
	// waiting, outside the node lock, for the ingest queue to apply
	// every event acked so far.
	IngestDrainTime time.Duration
	// ExpiryTime is the snapshot's expiry sweep, from taking the node
	// lock — and applying what was acked since the barrier — to the
	// store's batch of expiry transitions.
	ExpiryTime time.Duration
	// AggregationTime is the pipeline's Process and the aggregates'
	// snapshots.
	AggregationTime time.Duration
	ProblemTime     time.Duration // building the scheduling problem from the forecasts
	SchedulingTime  time.Duration // the scheduler's search
	// DisaggregationTime is turning the macro schedules into micro
	// schedules on the snapshots.
	DisaggregationTime time.Duration
	// CommitTime is the commit phase, from taking the node lock to the
	// planned offers' leaving the pipeline.
	CommitTime   time.Duration
	DeliveryTime time.Duration // wall time of the fan-out deliver phase
}

// RunSchedulingCycle executes the full BRP workflow at planning time now
// for [now, now+horizon): drop expired offers, schedule the aggregates
// against the forecast baseline, disaggregate, store and deliver the
// micro schedules to their owners. Cancelling ctx stops the scheduler
// search and outbound schedule deliveries.
//
// The cycle runs in four phases:
//
//	snapshot — under the node lock: apply what was acked since the
//	           barrier, advance the planning time, expire stale offers
//	           and capture an immutable copy of the current aggregates;
//	plan     — without the lock: build the problem from the forecasts,
//	           run the (possibly long) scheduler search and
//	           disaggregate on the snapshot;
//	commit   — under the lock again: persist every planned micro
//	           schedule as one batch and retire each planned aggregate
//	           from the pipeline whole;
//	deliver  — without the lock: fan the schedules out to their owners
//	           with bounded concurrency (comm.DefaultFanOutLimit).
//
// The node lock is therefore never held across transport I/O or the
// scheduler search: offer intake and every other handler stay
// responsive for the whole cycle, and delivery wall time is bounded by
// the slowest prosumer per fan-out wave, not the sum over prosumers —
// on the in-process Bus and over real TCP alike, where the
// Seq-pipelined client overlaps the wave's requests on one connection
// per peer instead of serializing them behind a connection lock.
//
// demandFc and resFc forecast the non-flexible consumption and RES
// production of the balance group; imbalancePrices gives the per-slot
// mismatch penalty (nil = flat 0.15 EUR/kWh).
func (n *Node) RunSchedulingCycle(ctx context.Context, now flexoffer.Time, demandFc, resFc forecaster, imbalancePrices []float64) (*CycleReport, error) {
	// Phase 0: intake barrier, outside the node lock, so the bulk of
	// the apply does not hold intake up.
	barrier, err := n.enterPlanner(ctx)
	if err != nil {
		return nil, err
	}
	defer n.cycleMu.Unlock()

	rep := &CycleReport{IngestDrainTime: barrier}
	const horizon = flexoffer.SlotsPerDay

	// Phase 1: snapshot.
	aggregates, err := n.snapshotForPlanning(ctx, now, horizon, rep)
	if err != nil {
		return nil, err
	}

	// Phase 2: plan — no lock from here until commit. Forecast sources
	// may be arbitrarily slow (a remote maintainer, a model fit), and
	// the search is budgeted in wall-clock seconds.
	t0 := time.Now()
	problem := buildProblem(now, horizon, aggregates, demandFc, resFc, imbalancePrices)
	rep.BaselineCost = problem.BaselineCost()
	rep.ProblemTime = time.Since(t0)
	if len(aggregates) == 0 {
		return rep, nil
	}
	t0 = time.Now()
	// The node plans with sched.Sweep: the paper's greedy placement,
	// re-placed against the rest until it stops improving.
	res, err := (&sched.Sweep{}).Schedule(ctx, problem, n.cfg.SchedOpts)
	if err != nil {
		return nil, err
	}
	rep.SchedulingTime = time.Since(t0)
	rep.ScheduleCost = res.Cost

	t0 = time.Now()
	plan, err := disaggregateSnapshots(aggregates, problem.Schedules(res.Solution))
	if err != nil {
		return nil, err
	}
	for _, pa := range plan {
		rep.MicroSchedules += len(pa.micro)
	}
	rep.DisaggregationTime = time.Since(t0)

	// Phase 3: commit.
	t0 = time.Now()
	byOwner, err := n.commitMicroSchedules(plan)
	if err != nil {
		return nil, err
	}
	rep.CommitTime = time.Since(t0)

	// Phase 4: deliver. Unreachable prosumers are counted, not fatal:
	// their offers will time out and fall back gracefully.
	t0 = time.Now()
	rep.NotifyFailures = n.deliver(ctx, byOwner)
	rep.DeliveryTime = time.Since(t0)
	return rep, nil
}

// offerExpiredAt reports whether a pending offer can no longer be
// scheduled by a cycle planning at now for [now, end): its assignment
// deadline passed, its start window closed, or its execution tail
// overflows the horizon. An offer whose EarliestStart lies in the past
// but whose LatestStart does not (EarliestStart < now ≤ LatestStart) is
// still schedulable — the planner clamps its start window at now
// (sched.Problem.StartWindow) — and must NOT be dropped; keying expiry
// on EarliestStart discarded live flexibility prematurely.
func offerExpiredAt(f *flexoffer.FlexOffer, now, end flexoffer.Time) bool {
	return now >= f.AssignBefore || f.LatestStart < now || f.LatestEnd() > end
}

// markExpired is the expiry sweep's transition, one for every offer.
func markExpired(rec *store.OfferRecord) { rec.State = store.OfferExpired }

// snapshotForPlanning is the cycle's only pass over mutable state
// before commit. Under the node lock it drains intake once more — the
// offers acked since enterPlanner's barrier — so every offer the
// pipeline holds has its record in the store; then it advances the
// planning time, expires pending offers that are no longer schedulable
// (offerExpiredAt), and captures an immutable snapshot of the
// aggregates for the planner. The drain waits under mu, the one place
// the lock order allows it (see the package comment).
func (n *Node) snapshotForPlanning(ctx context.Context, now flexoffer.Time, horizon int, rep *CycleReport) ([]*agg.Aggregate, error) {
	t0 := time.Now()
	n.mu.Lock()
	defer n.mu.Unlock()
	if err := n.ingest.Drain(ctx); err != nil {
		return nil, fmt.Errorf("core: intake barrier: %w", err)
	}
	if now > n.planTime {
		n.planTime = now
	}
	end := now + flexoffer.Time(horizon)
	var expired []agg.FlexOfferUpdate
	var expiredIDs []store.OfferUpdate
	n.pipeline.EachOffer(func(f *flexoffer.FlexOffer) {
		if offerExpiredAt(f, now, end) {
			expired = append(expired, agg.FlexOfferUpdate{Kind: agg.Delete, Offer: f})
			expiredIDs = append(expiredIDs, store.OfferUpdate{ID: f.ID, Mutate: markExpired})
		}
	})
	if len(expiredIDs) > 0 {
		// One WAL group for the whole sweep. The pipeline lets go of
		// the offers only once the store took the batch: a failed
		// write leaves both as they were, and the next cycle sweeps the
		// offers again.
		if _, err := n.store.UpdateOffers(expiredIDs); err != nil {
			return nil, err
		}
	}
	rep.ExpiryTime = time.Since(t0)
	t0 = time.Now()
	if len(expired) > 0 {
		if err := n.pipeline.Accumulate(expired...); err != nil {
			return nil, err
		}
		rep.Expired = len(expired)
	}
	// One batch runs the whole chain: every offer accepted since the
	// last cycle and every expiry above hit each touched aggregate as a
	// single transaction (at worst one rebuild per aggregate).
	snaps := processAndSnapshot(n.pipeline, now, end)
	rep.AggregationTime = time.Since(t0)
	rep.Offers = n.pipeline.NumOffers()
	rep.Aggregates = len(snaps)
	return snaps, nil
}

// processAndSnapshot processes p's accumulated batch and returns a
// snapshot of every live aggregate a cycle planning at now for
// [now, end) can schedule, in aggregate ID order. The snapshots are
// taken on every core.
func processAndSnapshot(p *agg.Pipeline, now, end flexoffer.Time) []*agg.Aggregate {
	p.Process()
	live := p.Aggregates()
	snaps := live[:0]
	for _, a := range live {
		// A tolerance-built macro can end up with an empty clamped start
		// window (LatestStart < now) or an overflowing tail even when
		// every member individually passes offerExpiredAt — its
		// LatestStart is minEarliestStart + min(member flexibility),
		// which member churn can drag below now. Planning such a macro
		// would fail Problem.Validate and abort the whole cycle; leave
		// it out instead. Its members stay pending and either join a
		// reshaped aggregate in a later cycle or expire individually.
		if a.Offer.LatestStart < now || a.Offer.LatestEnd() > end {
			continue
		}
		snaps = append(snaps, a)
	}
	// An aggregate no batch changed since the last cycle hands out the
	// same snapshot again: it costs no deep copy.
	par.For(len(snaps), func(i int) { snaps[i] = snaps[i].Snapshot() })
	return snaps
}

// buildProblem assembles the scheduling instance from an aggregate
// snapshot and the forecasts.
func buildProblem(now flexoffer.Time, horizon int, aggregates []*agg.Aggregate, demandFc, resFc forecaster, imbalancePrices []float64) *sched.Problem {
	baseline := make([]float64, horizon)
	if demandFc != nil {
		copy(baseline, demandFc.Forecast(horizon))
	}
	if resFc != nil {
		for i, v := range resFc.Forecast(horizon) {
			if i < horizon {
				baseline[i] -= v
			}
		}
	}
	if imbalancePrices == nil {
		imbalancePrices = make([]float64, horizon)
		for i := range imbalancePrices {
			imbalancePrices[i] = 0.15
		}
	}
	offers := make([]*flexoffer.FlexOffer, len(aggregates))
	for i, a := range aggregates {
		offers[i] = a.Offer
	}
	return &sched.Problem{
		Start:          now,
		Slots:          horizon,
		Baseline:       baseline,
		ImbalancePrice: imbalancePrices,
		Offers:         offers,
	}
}

// disaggregateSnapshots turns the planner's macro schedules into micro
// schedules using the snapshot aggregates — never the live pipeline,
// which may have changed while the plan ran — one plannedAggregate per
// macro schedule.
func disaggregateSnapshots(snaps []*agg.Aggregate, scheds []*flexoffer.Schedule) ([]plannedAggregate, error) {
	byID := make(map[flexoffer.ID]*agg.Aggregate, len(snaps))
	for _, a := range snaps {
		byID[a.Offer.ID] = a
	}
	out := make([]plannedAggregate, len(scheds))
	errs := make([]error, len(scheds))
	par.For(len(scheds), func(i int) {
		a, ok := byID[scheds[i].OfferID]
		if !ok {
			errs[i] = fmt.Errorf("core: schedule for unknown aggregate %d", scheds[i].OfferID)
			return
		}
		out[i].snap = a
		out[i].micro, errs[i] = a.Disaggregate(scheds[i])
	})
	// The first failure in plan order, whichever goroutine met it first.
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
