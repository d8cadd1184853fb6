package agg

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"mirabel/internal/flexoffer"
)

// contains reports whether the offer id is applied to a group or
// pending insertion.
func contains(p *Pipeline, id flexoffer.ID) bool {
	_, ok := p.Offer(id)
	return ok
}

// grouped is the number of offers applied to groups.
func grouped(p *Pipeline) int { return p.nApplied }

// pendingUpdates is the number of accumulated, unprocessed updates.
func pendingUpdates(p *Pipeline) int { return p.nIns + p.nDel }

// processChanges runs Process and returns how many aggregates it
// created, changed or deleted: the ones whose ID or Version differ.
func processChanges(p *Pipeline) int {
	before := map[flexoffer.ID]uint64{}
	for _, a := range p.Aggregates() {
		before[a.Offer.ID] = a.Version
	}
	p.Process()
	changed := 0
	for _, a := range p.Aggregates() {
		if v, ok := before[a.Offer.ID]; !ok || v != a.Version {
			changed++
		}
		delete(before, a.Offer.ID)
	}
	return changed + len(before)
}

// equivAggregates compares a live (delta-maintained) aggregate against a
// from-scratch build over the same members: combined offer attributes
// exactly, profile/totals/cost within float tolerance.
func equivAggregates(t *testing.T, live *Aggregate, tag string) bool {
	t.Helper()
	scratch := buildAggregate(live.Offer.ID, live.members)
	lo, so := live.Offer, scratch.Offer
	if lo.EarliestStart != so.EarliestStart || lo.LatestStart != so.LatestStart ||
		lo.AssignBefore != so.AssignBefore || len(lo.Profile) != len(so.Profile) {
		t.Logf("%s: attrs live=(es=%d ls=%d ab=%d len=%d) scratch=(es=%d ls=%d ab=%d len=%d)",
			tag, lo.EarliestStart, lo.LatestStart, lo.AssignBefore, len(lo.Profile),
			so.EarliestStart, so.LatestStart, so.AssignBefore, len(so.Profile))
		return false
	}
	const eps = 1e-9
	for j := range lo.Profile {
		if math.Abs(lo.Profile[j].EnergyMin-so.Profile[j].EnergyMin) > eps ||
			math.Abs(lo.Profile[j].EnergyMax-so.Profile[j].EnergyMax) > eps {
			t.Logf("%s: slice %d live=%+v scratch=%+v", tag, j, lo.Profile[j], so.Profile[j])
			return false
		}
	}
	if math.Abs(live.TotalMin-scratch.TotalMin) > eps || math.Abs(live.TotalMax-scratch.TotalMax) > eps {
		t.Logf("%s: totals live=[%g,%g] scratch=[%g,%g]", tag, live.TotalMin, live.TotalMax, scratch.TotalMin, scratch.TotalMax)
		return false
	}
	if math.Abs(lo.CostPerKWh-so.CostPerKWh) > eps {
		t.Logf("%s: cost live=%g scratch=%g", tag, lo.CostPerKWh, so.CostPerKWh)
		return false
	}
	if live.nMinES != scratch.nMinES || live.nMinTF != scratch.nMinTF ||
		live.nMinAB != scratch.nMinAB || live.nMaxEnd != scratch.nMaxEnd {
		t.Logf("%s: counters live=(%d,%d,%d,%d) scratch=(%d,%d,%d,%d)", tag,
			live.nMinES, live.nMinTF, live.nMinAB, live.nMaxEnd,
			scratch.nMinES, scratch.nMinTF, scratch.nMinAB, scratch.nMaxEnd)
		return false
	}
	return true
}

// Property (the delta-path correctness pin): after any random
// interleaving of batched inserts and deletes, every live aggregate is
// equivalent to a from-scratch build over its current members.
func TestPropertyDeltaEqualsScratch(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := NewPipeline(ParamsP3)
		pool := randomOffers(rng, 120)
		for i := range pool {
			pool[i].CostPerKWh = rng.Float64() * 0.5
		}
		live := map[flexoffer.ID]*flexoffer.FlexOffer{}
		next := 0
		for round := 0; round < 8; round++ {
			var batch []FlexOfferUpdate
			// Random deletes of live offers.
			for id, off := range live {
				if rng.Intn(3) == 0 {
					batch = append(batch, FlexOfferUpdate{Kind: Delete, Offer: off})
					delete(live, id)
				}
			}
			// Random inserts from the pool.
			for next < len(pool) && rng.Intn(2) == 0 {
				batch = append(batch, FlexOfferUpdate{Kind: Insert, Offer: pool[next]})
				live[pool[next].ID] = pool[next]
				next++
			}
			if err := p.Accumulate(batch...); err != nil {
				t.Logf("seed %d round %d: %v", seed, round, err)
				return false
			}
			p.Process()
			for _, a := range p.Aggregates() {
				if !equivAggregates(t, a, "live") {
					t.Logf("seed %d round %d: aggregate %d diverged", seed, round, a.Offer.ID)
					return false
				}
			}
		}
		if got := grouped(p); got != len(live) {
			t.Logf("seed %d: grouped offers %d, want %d", seed, got, len(live))
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// Satellite: a batch that fails validation must leave the builder
// untouched — no half-applied inserts, no stuck pending updates.
func TestAccumulateBatchAtomicOnError(t *testing.T) {
	p := NewPipeline(ParamsP0)
	good := offer(1, 100, 8, 4, 1, 2)
	if err := p.Apply(inserts(good)...); err != nil {
		t.Fatal(err)
	}
	bad := offer(3, 100, 8, 4, 1, 2)
	bad.LatestStart = 50 // invalid
	batch := []FlexOfferUpdate{
		{Kind: Insert, Offer: offer(2, 100, 8, 4, 1, 2)}, // valid, earlier in batch
		{Kind: Delete, Offer: good},                      // valid, earlier in batch
		{Kind: Insert, Offer: bad},                       // fails validation
	}
	if err := p.Accumulate(batch...); err == nil {
		t.Fatal("batch with invalid offer should error")
	}
	if n := pendingUpdates(p); n != 0 {
		t.Errorf("pending after failed batch = %d, want 0", n)
	}
	// Offer 2's insert and offer 1's delete must NOT have been recorded.
	if contains(p, 2) {
		t.Error("failed batch leaked insert of offer 2")
	}
	if !contains(p, 1) {
		t.Error("failed batch applied delete of offer 1")
	}
	if changed := processChanges(p); changed != 0 {
		t.Errorf("process after failed batch changed %d aggregates, want 0", changed)
	}
	if got := len(p.Aggregates()); got != 1 {
		t.Errorf("aggregates = %d, want 1 (only the original offer)", got)
	}
	// And the builder still works: a duplicate-id batch also rolls back.
	if err := p.Accumulate(
		FlexOfferUpdate{Kind: Insert, Offer: offer(5, 100, 8, 4, 1, 2)},
		FlexOfferUpdate{Kind: Insert, Offer: offer(1, 100, 8, 4, 1, 2)}, // dup of applied
	); err == nil {
		t.Fatal("duplicate id in batch should error")
	}
	if contains(p, 5) || pendingUpdates(p) != 0 {
		t.Error("duplicate-id batch leaked state")
	}
}

// Satellite: removing an id that is not a member must be a no-op — no
// rebuild, no version bump.
func TestRemoveUnknownIDNoRebuild(t *testing.T) {
	a := buildAggregate(1, []*flexoffer.FlexOffer{
		offer(10, 100, 8, 4, 1, 2),
		offer(11, 100, 8, 4, 1, 2),
	})
	v := a.Version
	if !a.applyBatch(nil, []*flexoffer.FlexOffer{{ID: 99}}) {
		t.Fatal("remove of unknown id reported aggregate death")
	}
	if a.Version != v {
		t.Errorf("remove of unknown id bumped version %d → %d", v, a.Version)
	}
	if a.NumMembers() != 2 {
		t.Errorf("members = %d, want 2", a.NumMembers())
	}
	if !a.applyBatch(nil, []*flexoffer.FlexOffer{{ID: 98}, {ID: 97}}) {
		t.Fatal("batch of unknown removals reported aggregate death")
	}
	if a.Version != v {
		t.Errorf("unknown-only batch bumped version %d → %d", v, a.Version)
	}
}

// A delete of a still-pending insert cancels it: the offer never reaches
// the groups, and the batch costs nothing at Process time.
func TestInsertThenDeleteCancelsPending(t *testing.T) {
	p := NewPipeline(ParamsP0)
	f := offer(1, 100, 8, 4, 1, 2)
	if err := p.Accumulate(FlexOfferUpdate{Kind: Insert, Offer: f}); err != nil {
		t.Fatal(err)
	}
	if !contains(p, 1) {
		t.Fatal("pending insert not visible to contains")
	}
	if err := p.Accumulate(FlexOfferUpdate{Kind: Delete, Offer: f}); err != nil {
		t.Fatal(err)
	}
	if contains(p, 1) {
		t.Error("cancelled insert still visible")
	}
	if n := pendingUpdates(p); n != 0 {
		t.Errorf("pending = %d, want 0 after cancellation", n)
	}
	if changed := processChanges(p); changed != 0 {
		t.Errorf("cancelled insert changed %d aggregates", changed)
	}
	// Re-insert after cancellation must work.
	if err := p.Apply(inserts(f)...); err != nil {
		t.Fatalf("re-insert after cancellation: %v", err)
	}
	if got := len(p.Aggregates()); got != 1 {
		t.Errorf("aggregates = %d, want 1", got)
	}
}

// Pending inserts are applied in ID order whatever order they arrived
// in: a batch of inserts out of ID order, with one insert cancelled and
// made again and another cancelled for good, after a batch that failed
// and was rolled back, builds the same groups — aggregate IDs,
// Versions, members and combined offers — as a fresh pipeline fed the
// surviving inserts in ID order. A Process that finds only cancelled
// inserts leaves nothing queued for the next one.
func TestInsertOrderDoesNotChangeAggregates(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		offers := randomOffers(rng, 40)
		again, gone := offers[rng.Intn(20)], offers[20+rng.Intn(20)]
		shuffled := slices.Clone(offers)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })

		p := NewPipeline(ParamsP1)
		failed := append(inserts(shuffled[:10]...), FlexOfferUpdate{Kind: Insert, Offer: shuffled[3]})
		if err := p.Accumulate(failed...); err == nil {
			t.Fatal("a batch inserting one offer twice was accepted")
		}
		if len(p.ins) != 0 {
			t.Fatalf("seed %d: a failed batch left %d insert IDs queued", seed, len(p.ins))
		}
		batch := inserts(shuffled...)
		batch = append(batch,
			FlexOfferUpdate{Kind: Delete, Offer: again}, FlexOfferUpdate{Kind: Insert, Offer: again},
			FlexOfferUpdate{Kind: Delete, Offer: gone})
		if err := p.Apply(batch...); err != nil {
			t.Fatal(err)
		}

		want := NewPipeline(ParamsP1)
		var kept []*flexoffer.FlexOffer
		for _, f := range offers {
			if f != gone {
				kept = append(kept, f)
			}
		}
		if err := want.Apply(inserts(kept...)...); err != nil {
			t.Fatal(err)
		}
		if !identicalAggregates(t, p, want) {
			t.Fatalf("seed %d: inserts out of ID order built other aggregates than in ID order", seed)
		}

		// Cancelled inserts alone: Process has nothing to apply, and the
		// next batch starts from an empty list.
		if err := p.Accumulate(FlexOfferUpdate{Kind: Insert, Offer: gone}, FlexOfferUpdate{Kind: Delete, Offer: gone}); err != nil {
			t.Fatal(err)
		}
		p.Process()
		if len(p.ins) != 0 {
			t.Fatalf("seed %d: %d cancelled insert IDs left queued after Process", seed, len(p.ins))
		}
	}
}

// Delete-then-reinsert of the same id within one batch replaces the
// offer (new attributes, possibly a new group).
func TestDeleteThenReinsertSameBatch(t *testing.T) {
	p := NewPipeline(ParamsP0)
	f := offer(1, 100, 8, 4, 1, 2)
	if err := p.Apply(inserts(f)...); err != nil {
		t.Fatal(err)
	}
	moved := offer(1, 200, 8, 4, 1, 2)
	if err := p.Apply(
		FlexOfferUpdate{Kind: Delete, Offer: f},
		FlexOfferUpdate{Kind: Insert, Offer: moved},
	); err != nil {
		t.Fatal(err)
	}
	aggs := p.Aggregates()
	if len(aggs) != 1 {
		t.Fatalf("aggregates = %d, want 1", len(aggs))
	}
	if aggs[0].Offer.EarliestStart != 200 {
		t.Errorf("aggregate ES = %d, want the reinserted offer's 200", aggs[0].Offer.EarliestStart)
	}
}

// Versions bump exactly once per mutating batch, and Snapshot carries
// the version and hands out the same copy while it is unchanged.
func TestVersionPerBatchAndSnapshotCarriesVersion(t *testing.T) {
	p := NewPipeline(ParamsP0)
	var batch []FlexOfferUpdate
	for i := 1; i <= 4; i++ {
		batch = append(batch, FlexOfferUpdate{Kind: Insert, Offer: offer(flexoffer.ID(i), 100, 8, 4, 1, 2)})
	}
	if err := p.Apply(batch...); err != nil {
		t.Fatal(err)
	}
	a := p.Aggregates()[0]
	v0 := a.Version
	snap := a.Snapshot()
	if snap.Version != v0 {
		t.Fatalf("snapshot version %d, live %d", snap.Version, v0)
	}
	if a.Snapshot() != snap {
		t.Error("an unchanged aggregate made a second snapshot")
	}
	// One batch with two deletes: exactly one version bump.
	if err := p.Apply(
		FlexOfferUpdate{Kind: Delete, Offer: offer(1, 100, 8, 4, 1, 2)},
		FlexOfferUpdate{Kind: Delete, Offer: offer(2, 100, 8, 4, 1, 2)},
	); err != nil {
		t.Fatal(err)
	}
	if a.Version != v0+1 {
		t.Errorf("version after one batch = %d, want %d", a.Version, v0+1)
	}
	if snap.NumMembers() != 4 {
		t.Errorf("snapshot members = %d, want 4 (frozen)", snap.NumMembers())
	}
	if s := a.Snapshot(); s == snap || s.Version != a.Version || s.NumMembers() != 2 {
		t.Errorf("snapshot after the batch: v%d with %d members, fresh %v; want a fresh v%d copy of 2", s.Version, s.NumMembers(), s != snap, a.Version)
	}
}

// A member that ties a boundary with others is delta-removable; the last
// member at a boundary forces exactly one rebuild for the batch.
func TestBoundaryCountersGateRebuild(t *testing.T) {
	// Three members: two share min TF (2), one has larger TF.
	a := buildAggregate(1, []*flexoffer.FlexOffer{
		offer(10, 100, 2, 4, 1, 2),
		offer(11, 100, 2, 4, 1, 2),
		offer(12, 100, 9, 4, 1, 2),
	})
	if a.nMinTF != 2 {
		t.Fatalf("nMinTF = %d, want 2", a.nMinTF)
	}
	// Removing one of the tied members keeps TF at 2 (delta path).
	if !a.applyBatch(nil, []*flexoffer.FlexOffer{{ID: 10}}) {
		t.Fatal("aggregate died")
	}
	if tf := a.Offer.TimeFlexibility(); tf != 2 {
		t.Errorf("TF after tied removal = %d, want 2", tf)
	}
	if a.nMinTF != 1 {
		t.Errorf("nMinTF = %d, want 1", a.nMinTF)
	}
	// Removing the last min-TF member must widen TF to 9 (rebuild path).
	if !a.applyBatch(nil, []*flexoffer.FlexOffer{{ID: 11}}) {
		t.Fatal("aggregate died")
	}
	if tf := a.Offer.TimeFlexibility(); tf != 9 {
		t.Errorf("TF after boundary-owner removal = %d, want 9", tf)
	}
	if !equivAggregates(t, a, "after boundary removal") {
		t.Error("aggregate diverged from scratch build")
	}
}

// The pipeline answers which offers it holds — applied members that
// are not leaving and pending inserts — through Offer, NumOffers and
// EachOffer alike, whatever mix of pending updates sits in it.
func TestHeldOffers(t *testing.T) {
	p := NewPipeline(ParamsP0)
	f1, f2, f3 := offer(1, 100, 8, 4, 1, 2), offer(2, 100, 8, 4, 1, 2), offer(3, 100, 8, 4, 1, 2)
	if err := p.Apply(inserts(f1, f2, f3)...); err != nil {
		t.Fatal(err)
	}
	moved, f4 := offer(2, 200, 8, 4, 1, 2), offer(4, 100, 8, 4, 1, 2)
	if err := p.Accumulate(
		FlexOfferUpdate{Kind: Delete, Offer: f1},    // leaving
		FlexOfferUpdate{Kind: Delete, Offer: f2},    // leaving, and replaced
		FlexOfferUpdate{Kind: Insert, Offer: moved}, // by a new offer 2
		FlexOfferUpdate{Kind: Insert, Offer: f4},    // pending insert
	); err != nil {
		t.Fatal(err)
	}
	want := map[flexoffer.ID]*flexoffer.FlexOffer{2: moved, 3: f3, 4: f4}
	check := func(when string) {
		t.Helper()
		for id := flexoffer.ID(1); id <= 5; id++ {
			if got, ok := p.Offer(id); got != want[id] || ok != (want[id] != nil) {
				t.Errorf("%s: Offer(%d) = %p, %v; want %p", when, id, got, ok, want[id])
			}
		}
		if n := p.NumOffers(); n != len(want) {
			t.Errorf("%s: NumOffers = %d, want %d", when, n, len(want))
		}
		seen := map[flexoffer.ID]*flexoffer.FlexOffer{}
		p.EachOffer(func(f *flexoffer.FlexOffer) {
			if seen[f.ID] != nil {
				t.Errorf("%s: EachOffer visits %d twice", when, f.ID)
			}
			seen[f.ID] = f
		})
		if !reflect.DeepEqual(seen, want) {
			t.Errorf("%s: EachOffer visits %v, want %v", when, seen, want)
		}
	}
	check("accumulated")
	p.Process()
	check("processed")
}

// Inserting the very offer whose delete is pending cancels the delete,
// the mirror of a delete cancelling a pending insert: the aggregate
// keeps its Version and nothing is left to process. A failing batch
// undoes the cancellation with the rest of the batch.
func TestReinsertCancelsPendingDelete(t *testing.T) {
	p := NewPipeline(ParamsP0)
	f1, f2 := offer(1, 100, 8, 4, 1, 2), offer(2, 100, 8, 4, 1, 2)
	if err := p.Apply(inserts(f1, f2)...); err != nil {
		t.Fatal(err)
	}
	if err := p.Accumulate(FlexOfferUpdate{Kind: Delete, Offer: f1}); err != nil {
		t.Fatal(err)
	}
	bad := offer(3, 100, 8, 4, 1, 2)
	bad.LatestStart = 50 // invalid
	if err := p.Accumulate(inserts(f1, bad)...); err == nil {
		t.Fatal("batch with an invalid offer succeeded")
	}
	if contains(p, 1) || pendingUpdates(p) != 1 {
		t.Fatalf("failed batch kept its cancellation: contains(1) = %v, %d pending updates", contains(p, 1), pendingUpdates(p))
	}
	if err := p.Accumulate(inserts(f1)...); err != nil {
		t.Fatal(err)
	}
	if !contains(p, 1) || pendingUpdates(p) != 0 {
		t.Fatalf("re-insert: contains(1) = %v, %d pending updates; want true, 0", contains(p, 1), pendingUpdates(p))
	}
	if changed := processChanges(p); changed != 0 {
		t.Errorf("a delete cancelled by its re-insert changed %d aggregates", changed)
	}
}
