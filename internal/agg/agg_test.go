package agg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"mirabel/internal/flexoffer"
)

// offer builds a simple test offer with constant per-slice bounds.
func offer(id flexoffer.ID, es, tf flexoffer.Time, slices int, emin, emax float64) *flexoffer.FlexOffer {
	p := make([]flexoffer.Slice, slices)
	for i := range p {
		p[i] = flexoffer.Slice{EnergyMin: emin, EnergyMax: emax}
	}
	return &flexoffer.FlexOffer{
		ID: id, EarliestStart: es, LatestStart: es + tf, AssignBefore: es - 4, Profile: p,
	}
}

func inserts(offers ...*flexoffer.FlexOffer) []FlexOfferUpdate {
	out := make([]FlexOfferUpdate, len(offers))
	for i, f := range offers {
		out[i] = FlexOfferUpdate{Kind: Insert, Offer: f}
	}
	return out
}

func TestSingleOfferAggregateEqualsOffer(t *testing.T) {
	p := NewPipeline(ParamsP0)
	f := offer(1, 100, 8, 4, 1, 2)
	if err := p.Apply(inserts(f)...); err != nil {
		t.Fatal(err)
	}
	aggs := p.Aggregates()
	if len(aggs) != 1 || aggs[0].Version != 1 || aggs[0].NumMembers() != 1 {
		t.Fatalf("aggregates = %+v, want one new aggregate of the offer", aggs)
	}
	a := aggs[0].Offer
	if a.EarliestStart != 100 || a.TimeFlexibility() != 8 || a.NumSlices() != 4 {
		t.Errorf("aggregate = %v", a)
	}
	if a.MinTotalEnergy() != 4 || a.MaxTotalEnergy() != 8 {
		t.Errorf("aggregate energies = [%g, %g]", a.MinTotalEnergy(), a.MaxTotalEnergy())
	}
}

func TestIdenticalOffersSumProfiles(t *testing.T) {
	p := NewPipeline(ParamsP0)
	fs := []*flexoffer.FlexOffer{
		offer(1, 100, 8, 4, 1, 2),
		offer(2, 100, 8, 4, 1, 2),
		offer(3, 100, 8, 4, 1, 2),
	}
	if err := p.Apply(inserts(fs...)...); err != nil {
		t.Fatal(err)
	}
	aggs := p.Aggregates()
	if len(aggs) != 1 {
		t.Fatalf("aggregates = %d, want 1", len(aggs))
	}
	a := aggs[0].Offer
	if a.Profile[0].EnergyMin != 3 || a.Profile[0].EnergyMax != 6 {
		t.Errorf("summed slice = %+v", a.Profile[0])
	}
	if a.TimeFlexibility() != 8 {
		t.Errorf("TF = %d, want 8 (no loss for identical offers)", a.TimeFlexibility())
	}
	if loss := aggs[0].TimeFlexibilityLoss(); loss != 0 {
		t.Errorf("flexibility loss = %d, want 0", loss)
	}
}

func TestP0RequiresExactMatch(t *testing.T) {
	p := NewPipeline(ParamsP0)
	if err := p.Apply(inserts(
		offer(1, 100, 8, 4, 1, 2),
		offer(2, 101, 8, 4, 1, 2), // ES differs
		offer(3, 100, 9, 4, 1, 2), // TF differs
	)...); err != nil {
		t.Fatal(err)
	}
	if got := len(p.Aggregates()); got != 3 {
		t.Errorf("aggregates = %d, want 3 (no grouping under P0)", got)
	}
}

func TestToleranceGroupsNearbyOffers(t *testing.T) {
	p := NewPipeline(Params{StartAfterTolerance: 8, TimeFlexTolerance: 0, DurationTolerance: -1})
	if err := p.Apply(inserts(
		offer(1, 100, 8, 4, 1, 2),
		offer(2, 103, 8, 4, 1, 2), // within the same ES bucket (96..103)
	)...); err != nil {
		t.Fatal(err)
	}
	aggs := p.Aggregates()
	if len(aggs) != 1 {
		t.Fatalf("aggregates = %d, want 1", len(aggs))
	}
	a := aggs[0].Offer
	// Start-alignment: profile spans offsets 4..4+4 for the later offer.
	if a.EarliestStart != 100 || a.NumSlices() != 7 {
		t.Errorf("aggregate es=%d slices=%d, want 100, 7", a.EarliestStart, a.NumSlices())
	}
	// Middle slot 3..3 covers only offer 2's first slice? Offset of
	// offer 2 is 3, so slots 3..6 hold its profile; slots 0..3 offer 1.
	if a.Profile[0].EnergyMax != 2 || a.Profile[3].EnergyMax != 4 || a.Profile[6].EnergyMax != 2 {
		t.Errorf("profile = %+v", a.Profile)
	}
}

func TestAggregateConservativeTimeFlexibility(t *testing.T) {
	p := NewPipeline(Params{TimeFlexTolerance: 16, DurationTolerance: -1})
	if err := p.Apply(inserts(
		offer(1, 100, 2, 4, 1, 2),
		offer(2, 100, 10, 4, 1, 2),
	)...); err != nil {
		t.Fatal(err)
	}
	aggs := p.Aggregates()
	if len(aggs) != 1 {
		t.Fatalf("aggregates = %d", len(aggs))
	}
	if tf := aggs[0].Offer.TimeFlexibility(); tf != 2 {
		t.Errorf("aggregate TF = %d, want min member TF 2", tf)
	}
	if loss := aggs[0].TimeFlexibilityLoss(); loss != 8 {
		t.Errorf("loss = %d, want 8", loss)
	}
}

func TestDeleteShrinksAndRemovesAggregates(t *testing.T) {
	p := NewPipeline(ParamsP0)
	f1 := offer(1, 100, 8, 4, 1, 2)
	f2 := offer(2, 100, 8, 4, 1, 2)
	if err := p.Apply(inserts(f1, f2)...); err != nil {
		t.Fatal(err)
	}
	a := p.Aggregates()[0]
	v := a.Version
	if err := p.Apply(FlexOfferUpdate{Kind: Delete, Offer: f1}); err != nil {
		t.Fatal(err)
	}
	if aggs := p.Aggregates(); len(aggs) != 1 || aggs[0] != a || a.Version != v+1 {
		t.Fatalf("after first delete: %+v, want aggregate %d changed once", aggs, a.Offer.ID)
	}
	if a.Offer.Profile[0].EnergyMax != 2 {
		t.Errorf("profile not shrunk: %+v", a.Offer.Profile[0])
	}
	if err := p.Apply(FlexOfferUpdate{Kind: Delete, Offer: f2}); err != nil {
		t.Fatal(err)
	}
	if a.Version != v+2 || a.NumMembers() != 0 {
		t.Fatalf("after second delete: Version %d, %d members; want %d, 0", a.Version, a.NumMembers(), v+2)
	}
	if len(p.Aggregates()) != 0 {
		t.Error("aggregates remain after deleting all offers")
	}
}

func TestDeleteUnknownOfferErrors(t *testing.T) {
	p := NewPipeline(ParamsP0)
	if err := p.Apply(FlexOfferUpdate{Kind: Delete, Offer: offer(9, 0, 0, 1, 0, 1)}); err == nil {
		t.Error("deleting unknown offer should error")
	}
}

func TestDuplicateInsertErrors(t *testing.T) {
	p := NewPipeline(ParamsP0)
	f := offer(1, 100, 8, 4, 1, 2)
	if err := p.Apply(inserts(f, f)...); err == nil {
		t.Error("duplicate insert should error")
	}
}

func TestInvalidOfferRejected(t *testing.T) {
	p := NewPipeline(ParamsP0)
	bad := offer(1, 100, 8, 4, 1, 2)
	bad.LatestStart = 50
	if err := p.Apply(FlexOfferUpdate{Kind: Insert, Offer: bad}); err == nil {
		t.Error("invalid offer should be rejected")
	}
}

func TestDisaggregationExactEnergy(t *testing.T) {
	p := NewPipeline(ParamsP3)
	fs := []*flexoffer.FlexOffer{
		offer(1, 100, 8, 4, 1, 3),
		offer(2, 102, 10, 3, 0, 2),
		offer(3, 101, 9, 5, 2, 2), // zero energy flexibility
	}
	if err := p.Apply(inserts(fs...)...); err != nil {
		t.Fatal(err)
	}
	aggs := p.Aggregates()
	if len(aggs) != 1 {
		t.Fatalf("aggregates = %d, want 1", len(aggs))
	}
	a := aggs[0]
	// Schedule the aggregate at a mid shift with mid energies.
	sched := &flexoffer.Schedule{
		OfferID: a.Offer.ID,
		Start:   a.Offer.EarliestStart + a.Offer.TimeFlexibility()/2,
		Energy:  make([]float64, a.Offer.NumSlices()),
	}
	for j, sl := range a.Offer.Profile {
		sched.Energy[j] = (sl.EnergyMin + sl.EnergyMax) / 2
	}
	members, err := a.Disaggregate(sched)
	if err != nil {
		t.Fatal(err)
	}
	if len(members) != 3 {
		t.Fatalf("member schedules = %d", len(members))
	}
	// Slot-wise sums of member schedules must equal the aggregate
	// schedule exactly.
	sums := make(map[flexoffer.Time]float64)
	for _, ms := range members {
		for j, e := range ms.Energy {
			sums[ms.Start+flexoffer.Time(j)] += e
		}
	}
	for j, e := range sched.Energy {
		slot := sched.Start + flexoffer.Time(j)
		if d := sums[slot] - e; d > 1e-9 || d < -1e-9 {
			t.Errorf("slot %d: member sum %g != aggregate %g", slot, sums[slot], e)
		}
	}
}

func TestDisaggregateRejectsInvalidAggregateSchedule(t *testing.T) {
	p := NewPipeline(ParamsP0)
	f := offer(1, 100, 8, 2, 1, 2)
	if err := p.Apply(inserts(f)...); err != nil {
		t.Fatal(err)
	}
	a := p.Aggregates()[0]
	bad := &flexoffer.Schedule{OfferID: a.Offer.ID, Start: a.Offer.LatestStart + 1, Energy: []float64{1, 1}}
	if _, err := a.Disaggregate(bad); err == nil {
		t.Error("invalid aggregate schedule accepted")
	}
}

func TestPipelineDisaggregateUnknownID(t *testing.T) {
	p := NewPipeline(ParamsP0)
	if _, err := p.Disaggregate([]*flexoffer.Schedule{{OfferID: 42}}); err == nil {
		t.Error("unknown aggregate id accepted")
	}
}

// randomOffers builds n random valid offers clustered enough for P3 to
// group some of them.
func randomOffers(rng *rand.Rand, n int) []*flexoffer.FlexOffer {
	out := make([]*flexoffer.FlexOffer, n)
	for i := range out {
		slices := 1 + rng.Intn(6)
		p := make([]flexoffer.Slice, slices)
		for j := range p {
			lo := rng.Float64() * 2
			p[j] = flexoffer.Slice{EnergyMin: lo, EnergyMax: lo + rng.Float64()*2}
		}
		es := flexoffer.Time(rng.Intn(64))
		out[i] = &flexoffer.FlexOffer{
			ID:            flexoffer.ID(i + 1),
			EarliestStart: es,
			LatestStart:   es + flexoffer.Time(rng.Intn(24)),
			AssignBefore:  es,
			Profile:       p,
		}
	}
	return out
}

// Property: the disaggregation requirement — for random offer sets and
// random valid aggregate schedules, disaggregation yields schedules that
// satisfy every member constraint and reproduce the aggregate energy.
func TestPropertyDisaggregationRequirement(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := NewPipeline(ParamsP3)
		if err := p.Apply(inserts(randomOffers(rng, 40)...)...); err != nil {
			return false
		}
		for _, a := range p.Aggregates() {
			// Random feasible schedule of the aggregate.
			tf := int(a.Offer.TimeFlexibility())
			start := a.Offer.EarliestStart + flexoffer.Time(rng.Intn(tf+1))
			energy := make([]float64, a.Offer.NumSlices())
			for j, sl := range a.Offer.Profile {
				energy[j] = sl.EnergyMin + rng.Float64()*(sl.EnergyMax-sl.EnergyMin)
			}
			sched := &flexoffer.Schedule{OfferID: a.Offer.ID, Start: start, Energy: energy}
			members, err := a.Disaggregate(sched)
			if err != nil {
				t.Logf("seed %d: %v", seed, err)
				return false
			}
			// Disaggregate validates members internally; check sums here.
			sums := make(map[flexoffer.Time]float64)
			for _, ms := range members {
				for j, e := range ms.Energy {
					sums[ms.Start+flexoffer.Time(j)] += e
				}
			}
			for j, e := range energy {
				slot := start + flexoffer.Time(j)
				if d := sums[slot] - e; d > 1e-6 || d < -1e-6 {
					t.Logf("seed %d: slot %d sum %g != %g", seed, slot, sums[slot], e)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property: incremental maintenance is equivalent to from-scratch
// aggregation — inserting offers in two batches (with some interleaved
// deletes) yields the same aggregate contents as one batch of the
// survivors.
func TestPropertyIncrementalEqualsFromScratch(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		offers := randomOffers(rng, 60)
		// Incremental: first half, then deletes of a third of those, then
		// second half.
		inc := NewPipeline(ParamsP3)
		if err := inc.Apply(inserts(offers[:30]...)...); err != nil {
			return false
		}
		var deletes []FlexOfferUpdate
		deleted := map[flexoffer.ID]bool{}
		for i := 0; i < 10; i++ {
			deletes = append(deletes, FlexOfferUpdate{Kind: Delete, Offer: offers[i*3]})
			deleted[offers[i*3].ID] = true
		}
		if err := inc.Apply(deletes...); err != nil {
			return false
		}
		if err := inc.Apply(inserts(offers[30:]...)...); err != nil {
			return false
		}
		// From scratch with the survivors.
		var survivors []*flexoffer.FlexOffer
		for _, f := range offers {
			if !deleted[f.ID] {
				survivors = append(survivors, f)
			}
		}
		scratch := NewPipeline(ParamsP3)
		if err := scratch.Apply(inserts(survivors...)...); err != nil {
			return false
		}
		return sameAggregates(inc, scratch)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// sameAggregates compares the member partitions and combined constraints
// of two pipelines, ignoring macro flex-offer IDs.
func sameAggregates(a, b *Pipeline) bool {
	sig := func(p *Pipeline) map[string]string {
		out := make(map[string]string)
		for _, ag := range p.Aggregates() {
			var key string
			for _, m := range ag.members {
				key += fmt_id(m.ID)
			}
			out[key] = aggSignature(ag)
		}
		return out
	}
	sa, sb := sig(a), sig(b)
	if len(sa) != len(sb) {
		return false
	}
	for k, v := range sa {
		if sb[k] != v {
			return false
		}
	}
	return true
}

func fmt_id(id flexoffer.ID) string {
	return string(rune(id)) + ","
}

func aggSignature(a *Aggregate) string {
	o := a.Offer
	sig := []byte{byte(o.EarliestStart), byte(o.LatestStart), byte(len(o.Profile))}
	for _, sl := range o.Profile {
		// Round, don't truncate: the delta paths may carry ~1-ulp float
		// drift relative to a from-scratch build, and truncation would
		// flip the digit on values that land just under a decimal.
		sig = append(sig, byte(int(math.Round(sl.EnergyMin*10))), byte(int(math.Round(sl.EnergyMax*10))))
	}
	return string(sig)
}

func TestMetrics(t *testing.T) {
	p := NewPipeline(ParamsP1)
	if err := p.Apply(inserts(
		offer(1, 100, 2, 4, 1, 2),
		offer(2, 100, 6, 4, 1, 2),
		offer(3, 200, 4, 4, 1, 2),
	)...); err != nil {
		t.Fatal(err)
	}
	m := p.CurrentMetrics()
	if m.FlexOffers != 3 {
		t.Errorf("FlexOffers = %d", m.FlexOffers)
	}
	if m.Aggregates != 2 {
		t.Errorf("Aggregates = %d", m.Aggregates)
	}
	if m.CompressionRatio != 1.5 {
		t.Errorf("CompressionRatio = %g", m.CompressionRatio)
	}
	// Offers 1 and 2 share a group (TF bucket 0: 2/8=0, 6/8=0): loss =
	// (2-2)+(6-2) = 4.
	if m.TotalTimeFlexLoss != 4 {
		t.Errorf("TotalTimeFlexLoss = %d", m.TotalTimeFlexLoss)
	}
}

func TestUpdateKindStrings(t *testing.T) {
	if Insert.String() != "insert" || Delete.String() != "delete" {
		t.Error("UpdateKind strings wrong")
	}
	if UpdateKind(9).String() == "" {
		t.Error("unknown kinds should still stringify")
	}
}

func TestSnapshotSurvivesPipelineMutation(t *testing.T) {
	p := NewPipeline(ParamsP0)
	f1 := offer(1, 100, 8, 2, 0, 2)
	f2 := offer(2, 100, 8, 2, 0, 2)
	if err := p.Apply(inserts(f1, f2)...); err != nil {
		t.Fatal(err)
	}
	live := p.Aggregates()[0]
	snap := live.Snapshot()

	// Mutate the live aggregate after the snapshot: a new member joins
	// and an old one leaves.
	if err := p.Apply(FlexOfferUpdate{Kind: Insert, Offer: offer(3, 100, 8, 2, 0, 2)}); err != nil {
		t.Fatal(err)
	}
	if err := p.Apply(FlexOfferUpdate{Kind: Delete, Offer: f1}); err != nil {
		t.Fatal(err)
	}

	if snap.NumMembers() != 2 {
		t.Fatalf("snapshot members = %d, want the 2 at snapshot time", snap.NumMembers())
	}
	// Disaggregating the snapshot yields schedules for exactly the
	// snapshot-time members, all valid.
	sched := &flexoffer.Schedule{
		OfferID: snap.Offer.ID,
		Start:   snap.Offer.EarliestStart,
		Energy:  midEnergies(snap.Offer),
	}
	micro, err := snap.Disaggregate(sched)
	if err != nil {
		t.Fatal(err)
	}
	if len(micro) != 2 {
		t.Fatalf("micro schedules = %d, want 2", len(micro))
	}
	for _, ms := range micro {
		if ms.OfferID != 1 && ms.OfferID != 2 {
			t.Errorf("unexpected member %d in snapshot disaggregation", ms.OfferID)
		}
	}
}

func midEnergies(f *flexoffer.FlexOffer) []float64 {
	out := make([]float64, f.NumSlices())
	for j, sl := range f.Profile {
		out[j] = (sl.EnergyMin + sl.EnergyMax) / 2
	}
	return out
}
