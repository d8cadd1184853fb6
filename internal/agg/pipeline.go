package agg

import (
	"fmt"
	"sort"

	"mirabel/internal/flexoffer"
)

// groupUpdate is the internal delta between group-builder and bin-packer:
// which offers joined/left which similarity group.
type groupUpdate struct {
	key     groupKey
	added   []*flexoffer.FlexOffer
	removed []*flexoffer.FlexOffer
}

// GroupBuilder partitions flex-offers into disjoint groups of similar
// offers according to the aggregation thresholds. Updates accumulate
// until Process is invoked (paper: "flex-offer updates are accumulated
// within the group-builder until their further processing is invoked").
//
// Accumulate validates each whole batch up front against the membership
// index and the already-pending updates, then records it infallibly —
// a failed batch leaves the builder exactly as it was, and Process can
// never fail half way through. Pending inserts and deletes are kept as
// net-effect maps: deleting a still-pending insert cancels it, so an
// offer that arrives and expires between two cycles costs nothing.
type GroupBuilder struct {
	params Params
	groups map[groupKey]map[flexoffer.ID]*flexoffer.FlexOffer
	// byID is the membership index over applied offers: which group an
	// offer lives in. Delete validation is a map lookup — the offer's
	// grouping key is never re-derived from caller-supplied attributes.
	byID   map[flexoffer.ID]groupKey
	offers int

	// Net-effect pending state, applied by Process.
	pendingIns map[flexoffer.ID]*flexoffer.FlexOffer
	pendingDel map[flexoffer.ID]bool
}

// NewGroupBuilder returns an empty group-builder with the given
// thresholds.
func NewGroupBuilder(params Params) *GroupBuilder {
	return &GroupBuilder{
		params:     params,
		groups:     make(map[groupKey]map[flexoffer.ID]*flexoffer.FlexOffer),
		byID:       make(map[flexoffer.ID]groupKey),
		pendingIns: make(map[flexoffer.ID]*flexoffer.FlexOffer),
		pendingDel: make(map[flexoffer.ID]bool),
	}
}

// Accumulate queues flex-offer updates for the next Process call. The
// whole batch is validated first (offer validity, duplicate inserts,
// deletes of unknown offers); on error nothing is recorded. A Delete of
// an offer whose Insert is still pending cancels the insert in place.
func (g *GroupBuilder) Accumulate(updates ...FlexOfferUpdate) error {
	// Simulated net effect of this batch, committed only if every update
	// validates.
	var (
		insAdd map[flexoffer.ID]*flexoffer.FlexOffer // pendingIns additions
		insCut map[flexoffer.ID]bool                 // pendingIns cancellations
		delAdd map[flexoffer.ID]bool                 // pendingDel additions
	)
	pendingInsert := func(id flexoffer.ID) bool {
		if insAdd[id] != nil {
			return true
		}
		if insCut[id] {
			return false
		}
		return g.pendingIns[id] != nil
	}
	pendingDelete := func(id flexoffer.ID) bool {
		return delAdd[id] || g.pendingDel[id]
	}
	for _, u := range updates {
		switch u.Kind {
		case Insert:
			if err := u.Offer.Validate(); err != nil {
				return fmt.Errorf("agg: rejecting offer: %w", err)
			}
			id := u.Offer.ID
			if pendingInsert(id) {
				return fmt.Errorf("agg: duplicate flex-offer id %d", id)
			}
			if _, applied := g.byID[id]; applied && !pendingDelete(id) {
				return fmt.Errorf("agg: duplicate flex-offer id %d", id)
			}
			if insAdd == nil {
				insAdd = make(map[flexoffer.ID]*flexoffer.FlexOffer)
			}
			insAdd[id] = u.Offer
			delete(insCut, id)
		case Delete:
			if u.Offer == nil {
				return fmt.Errorf("agg: delete of nil flex-offer")
			}
			id := u.Offer.ID
			switch {
			case pendingInsert(id):
				// Cancel the not-yet-processed insert: net effect zero.
				if insAdd[id] != nil {
					delete(insAdd, id)
				} else {
					if insCut == nil {
						insCut = make(map[flexoffer.ID]bool)
					}
					insCut[id] = true
				}
			default:
				if _, applied := g.byID[id]; !applied || pendingDelete(id) {
					return fmt.Errorf("agg: delete of unknown flex-offer id %d", id)
				}
				if delAdd == nil {
					delAdd = make(map[flexoffer.ID]bool)
				}
				delAdd[id] = true
			}
		default:
			return fmt.Errorf("agg: unknown update kind %v", u.Kind)
		}
	}
	// Commit — infallible.
	for id := range insCut {
		delete(g.pendingIns, id)
	}
	for id, off := range insAdd {
		g.pendingIns[id] = off
	}
	for id := range delAdd {
		g.pendingDel[id] = true
	}
	return nil
}

// Process applies all accumulated updates to the maintained groups and
// returns the group deltas. It cannot fail: every update was validated
// by Accumulate. Deltas are emitted in deterministic (key, member-ID)
// order so downstream parallel processing assigns stable aggregate IDs.
func (g *GroupBuilder) Process() []groupUpdate {
	if len(g.pendingIns) == 0 && len(g.pendingDel) == 0 {
		return nil
	}
	deltas := make(map[groupKey]*groupUpdate)
	delta := func(k groupKey) *groupUpdate {
		d, ok := deltas[k]
		if !ok {
			d = &groupUpdate{key: k}
			deltas[k] = d
		}
		return d
	}
	// Removals first (an offer deleted and re-inserted in one batch must
	// leave its old group before joining the new one), in ID order.
	for _, id := range sortedIDKeys(g.pendingDel) {
		k := g.byID[id]
		grp := g.groups[k]
		off := grp[id]
		delete(grp, id)
		if len(grp) == 0 {
			delete(g.groups, k)
		}
		delete(g.byID, id)
		g.offers--
		delta(k).removed = append(delta(k).removed, off)
		delete(g.pendingDel, id)
	}
	ins := make([]flexoffer.ID, 0, len(g.pendingIns))
	for id := range g.pendingIns {
		ins = append(ins, id)
	}
	sort.Slice(ins, func(i, j int) bool { return ins[i] < ins[j] })
	for _, id := range ins {
		off := g.pendingIns[id]
		k := g.params.keyOf(off)
		grp, ok := g.groups[k]
		if !ok {
			grp = make(map[flexoffer.ID]*flexoffer.FlexOffer)
			g.groups[k] = grp
		}
		grp[id] = off
		g.byID[id] = k
		g.offers++
		delta(k).added = append(delta(k).added, off)
		delete(g.pendingIns, id)
	}
	out := make([]groupUpdate, 0, len(deltas))
	for _, d := range deltas {
		out = append(out, *d)
	}
	sort.Slice(out, func(i, j int) bool { return keyLess(out[i].key, out[j].key) })
	return out
}

func sortedIDKeys(m map[flexoffer.ID]bool) []flexoffer.ID {
	out := make([]flexoffer.ID, 0, len(m))
	for id := range m {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func keyLess(a, b groupKey) bool {
	if a.es != b.es {
		return a.es < b.es
	}
	if a.tf != b.tf {
		return a.tf < b.tf
	}
	return a.dur < b.dur
}

// Contains reports whether the offer id is either applied to a group or
// pending insertion.
func (g *GroupBuilder) Contains(id flexoffer.ID) bool {
	if _, ok := g.pendingIns[id]; ok {
		return true // includes delete-then-reinsert within one batch
	}
	if g.pendingDel[id] {
		return false
	}
	_, ok := g.byID[id]
	return ok
}

// NumOffers returns the number of flex-offers currently grouped.
func (g *GroupBuilder) NumOffers() int { return g.offers }

// NumPending returns the number of accumulated-but-unprocessed updates.
func (g *GroupBuilder) NumPending() int { return len(g.pendingIns) + len(g.pendingDel) }

// BinPackerOptions bound the sub-groups the bin-packer produces (paper:
// "lower and upper bounds on ... the number of flex-offers included into
// a single aggregate, the amount of energy ... an aggregated flex-offer
// has to offer"). Zero values disable a bound; with all bounds disabled
// the pipeline skips the bin-packer stage entirely ("this bin-packer is
// an optional feature and can be turned off").
type BinPackerOptions struct {
	// MaxMembers caps the members per aggregate.
	MaxMembers int
	// MaxEnergyKWh caps Σ |max total energy| of members per aggregate.
	MaxEnergyKWh float64
}

func (o BinPackerOptions) enabled() bool { return o.MaxMembers > 0 || o.MaxEnergyKWh > 0 }

// fits reports whether a sub-group with the given load can absorb m.
func (o BinPackerOptions) fits(count int, energy float64, m *flexoffer.FlexOffer) bool {
	if o.MaxMembers > 0 && count+1 > o.MaxMembers {
		return false
	}
	if o.MaxEnergyKWh > 0 && energy+absTotalMax(m) > o.MaxEnergyKWh {
		return false
	}
	return true
}

// subgroupID identifies one bounds-satisfying sub-group within a group.
type subgroupID struct {
	key groupKey
	seq int
}

// subgroup is the bin-packer's unit of work; one aggregate is maintained
// per sub-group.
type subgroup struct {
	members map[flexoffer.ID]*flexoffer.FlexOffer
	energy  float64
}

// subgroupUpdate is the delta between bin-packer and n-to-1 aggregator.
type subgroupUpdate struct {
	id      subgroupID
	added   []*flexoffer.FlexOffer
	removed []flexoffer.ID
}

// BinPacker splits similarity groups into bounds-satisfying sub-groups
// using first-fit packing, maintained incrementally.
type BinPacker struct {
	opts      BinPackerOptions
	seq       map[groupKey]int
	subgroups map[subgroupID]*subgroup
	byOffer   map[flexoffer.ID]subgroupID
	byGroup   map[groupKey][]subgroupID
}

// NewBinPacker returns a bin-packer with the given bounds.
func NewBinPacker(opts BinPackerOptions) *BinPacker {
	return &BinPacker{
		opts:      opts,
		seq:       make(map[groupKey]int),
		subgroups: make(map[subgroupID]*subgroup),
		byOffer:   make(map[flexoffer.ID]subgroupID),
		byGroup:   make(map[groupKey][]subgroupID),
	}
}

// Process converts group deltas into sub-group deltas, in deterministic
// sub-group order.
func (b *BinPacker) Process(groups []groupUpdate) []subgroupUpdate {
	deltas := make(map[subgroupID]*subgroupUpdate)
	delta := func(id subgroupID) *subgroupUpdate {
		d, ok := deltas[id]
		if !ok {
			d = &subgroupUpdate{id: id}
			deltas[id] = d
		}
		return d
	}
	for _, gu := range groups {
		for _, off := range gu.removed {
			id, ok := b.byOffer[off.ID]
			if !ok {
				continue
			}
			sg := b.subgroups[id]
			delete(sg.members, off.ID)
			sg.energy -= absTotalMax(off)
			delete(b.byOffer, off.ID)
			delta(id).removed = append(delta(id).removed, off.ID)
			if len(sg.members) == 0 {
				delete(b.subgroups, id)
				b.byGroup[gu.key] = removeSubgroupID(b.byGroup[gu.key], id)
				if len(b.byGroup[gu.key]) == 0 {
					delete(b.byGroup, gu.key)
				}
			}
		}
		for _, off := range gu.added {
			id := b.place(gu.key, off)
			delta(id).added = append(delta(id).added, off)
		}
	}
	out := make([]subgroupUpdate, 0, len(deltas))
	for _, d := range deltas {
		out = append(out, *d)
	}
	sortSubgroupUpdates(out)
	return out
}

// place assigns the offer to the first sub-group of its group with
// capacity, creating a new sub-group when none fits.
func (b *BinPacker) place(key groupKey, off *flexoffer.FlexOffer) subgroupID {
	for _, id := range b.byGroup[key] {
		sg := b.subgroups[id]
		if b.opts.fits(len(sg.members), sg.energy, off) {
			sg.members[off.ID] = off
			sg.energy += absTotalMax(off)
			b.byOffer[off.ID] = id
			return id
		}
	}
	b.seq[key]++
	id := subgroupID{key: key, seq: b.seq[key]}
	sg := &subgroup{members: map[flexoffer.ID]*flexoffer.FlexOffer{off.ID: off}, energy: absTotalMax(off)}
	b.subgroups[id] = sg
	b.byGroup[key] = append(b.byGroup[key], id)
	b.byOffer[off.ID] = id
	return id
}

func removeSubgroupID(ids []subgroupID, id subgroupID) []subgroupID {
	for i, x := range ids {
		if x == id {
			return append(ids[:i], ids[i+1:]...)
		}
	}
	return ids
}

// passthrough converts group deltas straight into sub-group deltas (one
// sub-group per group) when the bin-packer is disabled.
func passthrough(groups []groupUpdate) []subgroupUpdate {
	out := make([]subgroupUpdate, len(groups))
	for i, gu := range groups {
		su := subgroupUpdate{id: subgroupID{key: gu.key}, added: gu.added}
		if len(gu.removed) > 0 {
			su.removed = make([]flexoffer.ID, len(gu.removed))
			for j, off := range gu.removed {
				su.removed[j] = off.ID
			}
		}
		out[i] = su
	}
	return out
}

func sortSubgroupUpdates(subs []subgroupUpdate) {
	sort.Slice(subs, func(i, j int) bool {
		a, b := subs[i].id, subs[j].id
		if a.key != b.key {
			return keyLess(a.key, b.key)
		}
		return a.seq < b.seq
	})
}
