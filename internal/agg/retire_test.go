package agg

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"mirabel/internal/flexoffer"
)

// Property (the retire pin): a batch that empties similarity groups
// outright — the whole-group retirement Process takes when no pending
// insert lands in the group — leaves the aggregates the delete path
// leaves. Each round of seeded interleavings retires whole groups (some
// with a pending insert on the retired key, which keeps them on the
// member-by-member path), deletes parts of others and inserts fresh
// offers. The same batch then goes through a second pipeline with one
// member of every otherwise-retired group held back, so those groups'
// other members leave by the member-by-member removal, and the held-back
// members follow in a second Apply. Both pipelines must agree exactly on
// aggregate IDs, Versions, members and combined offers, and both must
// partition the live offers like a from-scratch build, with the same
// profiles.
func TestPropertyRetireEqualsDeleteBatch(t *testing.T) {
	retired := 0
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		whole, split := NewPipeline(ParamsP3), NewPipeline(ParamsP3)
		keyOf := whole.params.keyOf
		pool := randomOffers(rng, 240)
		live := map[flexoffer.ID]*flexoffer.FlexOffer{}
		nextPool, nextID := 0, flexoffer.ID(10_000)
		for round := 0; round < 10; round++ {
			byKey := map[groupKey][]*flexoffer.FlexOffer{}
			for _, off := range live {
				byKey[keyOf(off)] = append(byKey[keyOf(off)], off)
			}
			keys := make([]groupKey, 0, len(byKey))
			for k, offs := range byKey {
				keys = append(keys, k)
				slices.SortFunc(offs, byOfferID)
			}
			slices.SortFunc(keys, compareKeys)

			var ins, del []*flexoffer.FlexOffer
			var retiring []groupKey
			for _, k := range keys {
				offs := byKey[k]
				switch rng.Intn(4) {
				case 0: // retire the whole group
					del = append(del, offs...)
					retiring = append(retiring, k)
					if rng.Intn(3) == 0 { // and refill its key
						refill := offs[0].Clone()
						refill.ID = nextID
						nextID++
						ins = append(ins, refill)
					}
				case 1: // delete part of it
					for _, off := range offs[:rng.Intn(len(offs))] {
						del = append(del, off)
					}
				}
			}
			for n := rng.Intn(30); n > 0 && nextPool < len(pool); n-- {
				ins = append(ins, pool[nextPool])
				nextPool++
			}

			insKeys := map[groupKey]bool{}
			for _, off := range ins {
				insKeys[keyOf(off)] = true
			}
			held := map[flexoffer.ID]bool{}
			for _, k := range retiring {
				if offs := byKey[k]; !insKeys[k] && len(offs) > 1 {
					held[offs[len(offs)-1].ID] = true
					retired++
				}
			}
			var batch, first, second []FlexOfferUpdate
			for _, off := range del {
				u := FlexOfferUpdate{Kind: Delete, Offer: off}
				batch = append(batch, u)
				if held[off.ID] {
					second = append(second, u)
				} else {
					first = append(first, u)
				}
				delete(live, off.ID)
			}
			for _, off := range ins {
				u := FlexOfferUpdate{Kind: Insert, Offer: off}
				batch, first = append(batch, u), append(first, u)
				live[off.ID] = off
			}
			rng.Shuffle(len(batch), func(i, j int) { batch[i], batch[j] = batch[j], batch[i] })
			if err := whole.Apply(batch...); err != nil {
				t.Logf("seed %d round %d: %v", seed, round, err)
				return false
			}
			if err := split.Apply(first...); err != nil {
				t.Logf("seed %d round %d: %v", seed, round, err)
				return false
			}
			if err := split.Apply(second...); err != nil {
				t.Logf("seed %d round %d: %v", seed, round, err)
				return false
			}

			if !identicalAggregates(t, whole, split) {
				t.Logf("seed %d round %d: retiring whole groups diverged from the delete path", seed, round)
				return false
			}
			if got := grouped(whole); got != len(live) {
				t.Logf("seed %d round %d: grouped offers %d, want %d", seed, round, got, len(live))
				return false
			}
			for _, off := range del {
				if _, ok := live[off.ID]; !ok && contains(whole, off.ID) {
					t.Logf("seed %d round %d: retired offer %d still contained", seed, round, off.ID)
					return false
				}
			}
			scratch := NewPipeline(ParamsP3)
			var survivors []*flexoffer.FlexOffer
			for _, off := range live {
				survivors = append(survivors, off)
			}
			if err := scratch.Apply(inserts(survivors...)...); err != nil {
				return false
			}
			if !sameAggregates(whole, scratch) {
				t.Logf("seed %d round %d: incremental aggregates differ from a from-scratch build", seed, round)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
	if retired == 0 {
		t.Error("no batch retired a multi-member group")
	}
}

// identicalAggregates compares two pipelines' live aggregates exactly:
// IDs, Versions, members and the combined offers, float for float.
func identicalAggregates(t *testing.T, a, b *Pipeline) bool {
	t.Helper()
	as, bs := a.Aggregates(), b.Aggregates()
	if len(as) != len(bs) {
		t.Logf("%d aggregates vs %d", len(as), len(bs))
		return false
	}
	for i := range as {
		x, y := as[i], bs[i]
		if x.Offer.ID != y.Offer.ID || x.Version != y.Version {
			t.Logf("aggregate %d v%d vs %d v%d", x.Offer.ID, x.Version, y.Offer.ID, y.Version)
			return false
		}
		if !slices.Equal(x.members, y.members) {
			t.Logf("aggregate %d: members differ", x.Offer.ID)
			return false
		}
		if !reflect.DeepEqual(x.Offer, y.Offer) || x.TotalMin != y.TotalMin || x.TotalMax != y.TotalMax {
			t.Logf("aggregate %d: combined offers differ", x.Offer.ID)
			return false
		}
	}
	return true
}

// A retired group's aggregate is left the way the delete path leaves
// an emptied one: no members, Version bumped once for the batch — so a
// holder of the aggregate sees it change — and gone from the pipeline.
func TestRetireReportsDeletedAggregate(t *testing.T) {
	p := NewPipeline(ParamsP0)
	members := []*flexoffer.FlexOffer{offer(1, 10, 4, 2, 0, 1), offer(2, 10, 4, 3, 0, 2), offer(3, 10, 4, 1, 0, 1)}
	if err := p.Apply(inserts(members...)...); err != nil {
		t.Fatal(err)
	}
	live := p.Aggregates()
	if len(live) != 1 {
		t.Fatalf("%d aggregates, want 1", len(live))
	}
	a, v := live[0], live[0].Version
	var dels []FlexOfferUpdate
	for _, m := range members {
		dels = append(dels, FlexOfferUpdate{Kind: Delete, Offer: m})
	}
	if err := p.Apply(dels...); err != nil {
		t.Fatal(err)
	}
	if a.Version != v+1 || a.NumMembers() != 0 {
		t.Errorf("retired aggregate: Version %d, %d members; want %d, 0", a.Version, a.NumMembers(), v+1)
	}
	if len(p.Aggregates()) != 0 || grouped(p) != 0 || contains(p, 1) {
		t.Error("retired group left state behind")
	}
}

// Property: a group that leaves whole (LeaveWhole on its snapshot)
// leaves the aggregates the member-by-member deletes of its members
// leave — with pending inserts on its key or not, beside partial
// deletes of other groups — and a departure taken back (StayWhole)
// leaves the group as if nothing had been queued. The slots handed back
// are the members' own, in member order. A snapshot whose aggregate
// changed since is refused and queues nothing.
func TestPropertyLeaveWholeEqualsDeleteBatch(t *testing.T) {
	left := 0
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		whole, split := NewPipeline(ParamsP3), NewPipeline(ParamsP3)
		pool := randomOffers(rng, 240)
		nextPool, nextID := 0, flexoffer.ID(10_000)
		slotOf := func(id flexoffer.ID) uint64 { return uint64(id)*7 + 1 }
		insert := func(off *flexoffer.FlexOffer) FlexOfferUpdate {
			return FlexOfferUpdate{Kind: Insert, Offer: off}
		}
		// apply is Apply with every insert's slot set (SetSlot).
		apply := func(p *Pipeline, batch []FlexOfferUpdate) error {
			if err := p.Accumulate(batch...); err != nil {
				return err
			}
			for _, u := range batch {
				if u.Kind == Insert {
					p.SetSlot(u.Offer.ID, slotOf(u.Offer.ID))
				}
			}
			p.Process()
			return nil
		}
		for round := 0; round < 10; round++ {
			var batch []FlexOfferUpdate
			for n := 5 + rng.Intn(30); n > 0 && nextPool < len(pool); n-- {
				batch = append(batch, insert(pool[nextPool]))
				nextPool++
			}
			for _, p := range []*Pipeline{whole, split} {
				if err := apply(p, batch); err != nil {
					t.Logf("seed %d round %d: %v", seed, round, err)
					return false
				}
			}
			batch = batch[:0]
			for _, a := range whole.Aggregates() {
				snap := a.Snapshot()
				switch rng.Intn(4) {
				case 0, 1: // leave whole
					slots, ok := whole.LeaveWhole(snap, nil)
					if !ok || len(slots) != len(snap.members) {
						t.Logf("seed %d round %d: LeaveWhole refused a current snapshot", seed, round)
						return false
					}
					for i, m := range snap.members {
						if slots[i] != slotOf(m.ID) {
							t.Logf("seed %d round %d: member %d came back with slot %d", seed, round, m.ID, slots[i])
							return false
						}
						if err := split.Accumulate(FlexOfferUpdate{Kind: Delete, Offer: m}); err != nil {
							t.Logf("seed %d round %d: %v", seed, round, err)
							return false
						}
						if _, held := whole.Offer(m.ID); held {
							t.Logf("seed %d round %d: a leaving member is still held", seed, round)
							return false
						}
					}
					left++
					if rng.Intn(3) == 0 { // and refill its key
						refill := snap.members[0].Clone()
						refill.ID = nextID
						nextID++
						batch = append(batch, insert(refill))
					}
				case 2: // queue the departure, then take it back
					if _, ok := whole.LeaveWhole(snap, nil); !ok {
						return false
					}
					whole.StayWhole(snap)
				default: // delete part of it on both
					for _, m := range snap.members[:rng.Intn(len(snap.members))] {
						batch = append(batch, FlexOfferUpdate{Kind: Delete, Offer: m})
					}
				}
			}
			if whole.NumOffers() != split.NumOffers() {
				t.Logf("seed %d round %d: %d offers held vs %d", seed, round, whole.NumOffers(), split.NumOffers())
				return false
			}
			for _, p := range []*Pipeline{whole, split} {
				if err := apply(p, batch); err != nil {
					t.Logf("seed %d round %d: %v", seed, round, err)
					return false
				}
			}
			if !identicalAggregates(t, whole, split) {
				t.Logf("seed %d round %d: leaving whole diverged from the delete path", seed, round)
				return false
			}
			for id, m := range whole.byID {
				if m.slot != slotOf(id) {
					t.Logf("seed %d round %d: offer %d holds slot %d", seed, round, id, m.slot)
					return false
				}
			}
			// A snapshot taken before a change is refused.
			if as := whole.Aggregates(); len(as) > 0 && nextPool < len(pool) {
				stale := as[0].Snapshot()
				join := pool[nextPool].Clone()
				join.ID = nextID
				nextID++
				join.EarliestStart, join.LatestStart, join.AssignBefore = stale.members[0].EarliestStart, stale.members[0].LatestStart, stale.members[0].AssignBefore
				for _, p := range []*Pipeline{whole, split} {
					if err := apply(p, []FlexOfferUpdate{insert(join)}); err != nil {
						return false
					}
				}
				if as[0].Version != stale.Version {
					if _, ok := whole.LeaveWhole(stale, nil); ok {
						t.Logf("seed %d round %d: LeaveWhole took a stale snapshot", seed, round)
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
	if left == 0 {
		t.Error("no group left whole")
	}
}
