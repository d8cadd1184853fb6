package agg

import (
	"fmt"
	"maps"
	"math/rand"
	"runtime"
	"testing"

	"mirabel/internal/flexoffer"
)

// refMember is one offer of the reference model and its slot.
type refMember struct {
	off  *flexoffer.FlexOffer
	slot uint64
}

// refTable is the naive model of the offers a pipeline holds: plain
// maps keyed by ID, changed the way the pipeline documents it.
// applied holds the members of the last Process, pending the pending
// inserts, deleted the applied members with a pending delete and
// leaving the applied members of groups queued to leave whole.
type refTable struct {
	applied, pending map[flexoffer.ID]refMember
	deleted, leaving map[flexoffer.ID]bool
}

func newRefTable() *refTable {
	return &refTable{
		applied: map[flexoffer.ID]refMember{}, pending: map[flexoffer.ID]refMember{},
		deleted: map[flexoffer.ID]bool{}, leaving: map[flexoffer.ID]bool{},
	}
}

func (r *refTable) clone() *refTable {
	return &refTable{
		applied: maps.Clone(r.applied), pending: maps.Clone(r.pending),
		deleted: maps.Clone(r.deleted), leaving: maps.Clone(r.leaving),
	}
}

// held is what Offer should find for id, with its slot.
func (r *refTable) held(id flexoffer.ID) (refMember, bool) {
	if m, ok := r.pending[id]; ok {
		return m, true
	}
	m, ok := r.applied[id]
	return m, ok && !r.deleted[id] && !r.leaving[id]
}

// update records one update, or reports why the pipeline must refuse
// the batch holding it.
func (r *refTable) update(u FlexOfferUpdate) error {
	id := u.Offer.ID
	switch u.Kind {
	case Insert:
		m, applied := r.applied[id]
		if _, ok := r.pending[id]; ok || applied && !r.deleted[id] {
			return fmt.Errorf("duplicate %d", id)
		}
		if applied && m.off == u.Offer {
			delete(r.deleted, id) // the very offer comes back
		} else {
			r.pending[id] = refMember{off: u.Offer}
		}
	case Delete:
		if _, ok := r.pending[id]; ok {
			delete(r.pending, id)
			return nil
		}
		if _, ok := r.applied[id]; !ok || r.deleted[id] || r.leaving[id] {
			return fmt.Errorf("unknown %d", id)
		}
		r.deleted[id] = true
	}
	return nil
}

func (r *refTable) process() {
	for id := range r.leaving {
		delete(r.applied, id)
	}
	for id := range r.deleted {
		delete(r.applied, id)
	}
	maps.Copy(r.applied, r.pending)
	clear(r.pending)
	clear(r.deleted)
	clear(r.leaving)
}

// TestMemberTableMatchesReference drives a pipeline and the naive
// reference with the same seeded steps — Accumulate batches of inserts,
// deletes, cancels and re-inserts (of the very offer, or of another
// offer with its ID), batches that must fail and roll back, SetSlot,
// Process, LeaveWhole and StayWhole — and after every step checks that
// Offer, NumOffers and EachOffer agree with the reference, and that
// LeaveWhole hands back the reference's slots and refuses exactly the
// aggregates a member of which is being deleted.
func TestMemberTableMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		const ids = 60
		// Two offers per ID, so an ID can come back as another offer.
		pool := [2][]*flexoffer.FlexOffer{randomOffers(rng, ids), randomOffers(rng, ids)}
		p, ref := NewPipeline(ParamsP3), newRefTable()
		var stayed []*Aggregate
		nextSlot := uint64(1)
		check := func(step int, what string) {
			t.Helper()
			want := map[flexoffer.ID]*flexoffer.FlexOffer{}
			for id := flexoffer.ID(1); id <= ids; id++ {
				m, ok := ref.held(id)
				off, got := p.Offer(id)
				if ok != got || ok && off != m.off {
					t.Fatalf("seed %d step %d (%s): Offer(%d) = %p, %v; want %p, %v", seed, step, what, id, off, got, m.off, ok)
				}
				if ok {
					want[id] = m.off
				}
			}
			if p.NumOffers() != len(want) {
				t.Fatalf("seed %d step %d (%s): NumOffers = %d, want %d", seed, step, what, p.NumOffers(), len(want))
			}
			seen := map[flexoffer.ID]*flexoffer.FlexOffer{}
			p.EachOffer(func(f *flexoffer.FlexOffer) {
				if _, twice := seen[f.ID]; twice {
					t.Fatalf("seed %d step %d (%s): EachOffer calls %d twice", seed, step, what, f.ID)
				}
				seen[f.ID] = f
			})
			if !maps.Equal(seen, want) {
				t.Fatalf("seed %d step %d (%s): EachOffer gives %d offers, want %d", seed, step, what, len(seen), len(want))
			}
		}
		for step := 0; step < 300; step++ {
			switch op := rng.Intn(10); {
			case op < 5: // a batch; one in five holds an update that fails
				n := 1 + rng.Intn(8)
				var batch []FlexOfferUpdate
				next := ref.clone()
				var failed error
				for k := 0; k < n; k++ {
					id := flexoffer.ID(1 + rng.Intn(ids))
					u := FlexOfferUpdate{Kind: Insert, Offer: pool[rng.Intn(2)][id-1]}
					if m, ok := next.held(id); ok && rng.Intn(4) > 0 {
						u = FlexOfferUpdate{Kind: Delete, Offer: m.off}
					} else if m, ok := next.applied[id]; ok && next.deleted[id] && rng.Intn(2) == 0 {
						u.Offer = m.off // the very offer back
					}
					if err := next.update(u); err != nil {
						if rng.Intn(5) > 0 {
							continue // leave the failing update out
						}
						failed = err
						batch = append(batch, u)
						break
					}
					batch = append(batch, u)
				}
				err := p.Accumulate(batch...)
				if (err != nil) != (failed != nil) {
					t.Fatalf("seed %d step %d: Accumulate = %v, want failure %v", seed, step, err, failed)
				}
				if failed == nil {
					ref = next
				}
				check(step, "accumulate")
			case op < 6: // a slot for every pending insert
				for id, m := range ref.pending {
					m.slot = nextSlot
					nextSlot++
					ref.pending[id] = m
					p.SetSlot(id, m.slot)
				}
				check(step, "setslot")
			case op < 8:
				p.Process()
				ref.process()
				stayed = nil
				check(step, "process")
			default: // leave whole, and sometimes stay
				for _, a := range p.Aggregates() {
					if rng.Intn(3) > 0 {
						continue
					}
					snap := a.Snapshot()
					wantOK := true
					var wantSlots []uint64
					for _, m := range snap.members {
						if ref.deleted[m.ID] || ref.leaving[m.ID] {
							wantOK = false
						}
						wantSlots = append(wantSlots, ref.applied[m.ID].slot)
					}
					slots, ok := p.LeaveWhole(snap, []uint64{7})
					if ok != wantOK {
						t.Fatalf("seed %d step %d: LeaveWhole(%d) = %v, want %v", seed, step, snap.Offer.ID, ok, wantOK)
					}
					if !ok {
						if len(slots) != 1 || slots[0] != 7 {
							t.Fatalf("seed %d step %d: a refused LeaveWhole changed slots to %v", seed, step, slots)
						}
						continue
					}
					if fmt.Sprint(slots[1:]) != fmt.Sprint(wantSlots) {
						t.Fatalf("seed %d step %d: LeaveWhole slots %v, want %v", seed, step, slots[1:], wantSlots)
					}
					for _, m := range snap.members {
						ref.leaving[m.ID] = true
					}
					stayed = append(stayed, snap)
				}
				if len(stayed) > 0 && rng.Intn(3) == 0 {
					snap := stayed[rng.Intn(len(stayed))]
					p.StayWhole(snap)
					for _, m := range snap.members {
						delete(ref.leaving, m.ID)
					}
				}
				check(step, "leave")
			}
		}
	}
}

// TestProcessIndependentOfCores: the same seeded steps on one pipeline
// per core count — GOMAXPROCS 1, 2 and 4 — build the same aggregates,
// IDs, Versions, members and combined offers to the last bit, so
// building the touched groups on every core changes nothing.
func TestProcessIndependentOfCores(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	offers := randomOffers(rand.New(rand.NewSource(5)), 400)
	run := func(procs int) *Pipeline {
		runtime.GOMAXPROCS(procs)
		rng := rand.New(rand.NewSource(6))
		p := NewPipeline(ParamsP3)
		live := map[flexoffer.ID]bool{}
		for round := 0; round < 30; round++ {
			var batch []FlexOfferUpdate
			for k := 0; k < 40; k++ {
				f := offers[rng.Intn(len(offers))]
				switch {
				case live[f.ID] && rng.Intn(3) == 0:
					batch = append(batch, FlexOfferUpdate{Kind: Delete, Offer: f})
					delete(live, f.ID)
				case !live[f.ID]:
					batch = append(batch, FlexOfferUpdate{Kind: Insert, Offer: f})
					live[f.ID] = true
				}
			}
			if err := p.Apply(batch...); err != nil {
				t.Fatal(err)
			}
			for _, a := range p.Aggregates() {
				if rng.Intn(6) == 0 {
					if _, ok := p.LeaveWhole(a.Snapshot(), nil); ok {
						for _, m := range a.members {
							delete(live, m.ID)
						}
					}
				}
			}
			p.Process()
		}
		return p
	}
	want := run(1)
	for _, procs := range []int{2, 4} {
		if !identicalAggregates(t, run(procs), want) {
			t.Errorf("GOMAXPROCS %d built other aggregates than GOMAXPROCS 1", procs)
		}
	}
}

// Keys that pack to the same integer (groupKey.pack) stay apart: under
// P0 an earliest start 2^40 slots later wraps onto the same integer,
// and so does a time flexibility of 4,096 slots on an earliest start
// one slot later. Each offer keeps its own group and aggregate while
// its chain neighbours join, leave whole, are deleted and come back.
func TestPackedKeyCollisionsStayApart(t *testing.T) {
	mk := func(id flexoffer.ID, es, tf flexoffer.Time) *flexoffer.FlexOffer {
		return &flexoffer.FlexOffer{ID: id, EarliestStart: es, LatestStart: es + tf, AssignBefore: es,
			Profile: []flexoffer.Slice{{EnergyMin: 1, EnergyMax: float64(id)}}}
	}
	offers := []*flexoffer.FlexOffer{mk(1, 5, 0), mk(2, 5+1<<40, 0), mk(3, 4, 0), mk(4, 5, 1<<12)}
	p := NewPipeline(ParamsP0)
	if p.params.keyOf(offers[0]).pack() != p.params.keyOf(offers[1]).pack() ||
		p.params.keyOf(offers[2]).pack() != p.params.keyOf(offers[3]).pack() {
		t.Fatal("the offers' keys do not collide; the test shows nothing")
	}
	sole := func(id flexoffer.ID) *Aggregate {
		t.Helper()
		for _, a := range p.Aggregates() {
			if a.NumMembers() == 1 && a.members[0].ID == id {
				return a
			}
		}
		t.Fatalf("offer %d has no aggregate of its own: %d aggregates", id, len(p.Aggregates()))
		return nil
	}
	if err := p.Apply(inserts(offers...)...); err != nil {
		t.Fatal(err)
	}
	for _, f := range offers {
		if a := sole(f.ID); a.Offer.EarliestStart != f.EarliestStart || a.Offer.LatestStart != f.LatestStart {
			t.Fatalf("offer %d's aggregate spans [%d, %d]", f.ID, a.Offer.EarliestStart, a.Offer.LatestStart)
		}
	}
	if err := p.Apply(FlexOfferUpdate{Kind: Delete, Offer: offers[1]}); err != nil {
		t.Fatal(err)
	}
	if _, ok := p.LeaveWhole(sole(3).Snapshot(), nil); !ok {
		t.Fatal("offer 3's aggregate refused to leave whole")
	}
	p.Process()
	if got := len(p.Aggregates()); got != 2 {
		t.Fatalf("%d aggregates after two left, want 2", got)
	}
	sole(1)
	sole(4)
	if err := p.Apply(inserts(offers[1], offers[2])...); err != nil {
		t.Fatal(err)
	}
	for _, f := range offers {
		sole(f.ID)
	}
	if len(p.groups) != 2 {
		t.Fatalf("%d packed keys hold the 4 groups, want 2", len(p.groups))
	}
}
