package agg

import (
	"cmp"
	"fmt"
	"slices"

	"mirabel/internal/flexoffer"
)

// groupUpdate is the internal delta between group-builder and n-to-1
// aggregator: which offers joined/left which similarity group. A
// retired group lost every applied member and gained none: the
// aggregator drops its aggregate whole instead of replaying the
// removals (removed is nil).
type groupUpdate struct {
	key     groupKey
	added   []*flexoffer.FlexOffer
	removed []*flexoffer.FlexOffer
	retired bool
}

// group is one similarity group: its applied member count and, while
// Process runs, its slot in the batch's delta list.
type group struct {
	key  groupKey
	n    int  // applied members
	slot int  // 1 + index into GroupBuilder.deltas; 0 = untouched
	ins  bool // a pending insert of the running Process lands here
}

// member is one applied offer and the group it lives in.
type member struct {
	g   *group
	off *flexoffer.FlexOffer
}

// pendingUndo reverts one recorded update when a batch fails validation
// half way: a queued delete (del), or the id's pending insert before the
// update (ins, nil when it had none).
type pendingUndo struct {
	id  flexoffer.ID
	ins *flexoffer.FlexOffer
	del bool
}

// GroupBuilder partitions flex-offers into disjoint groups of similar
// offers according to the aggregation thresholds. Updates accumulate
// until Process is invoked (paper: "flex-offer updates are accumulated
// within the group-builder until their further processing is invoked").
//
// Accumulate validates each batch against the membership index and the
// already-pending updates as it records it, and undoes the batch's
// records when an update fails — a failed batch leaves the builder
// exactly as it was, and Process can never fail half way through.
// Pending inserts and deletes are kept as net-effect maps: deleting a
// still-pending insert cancels it, so an offer that arrives and expires
// between two cycles costs nothing.
type GroupBuilder struct {
	params Params
	groups map[groupKey]*group
	// byID is the membership index over applied offers: which group an
	// offer lives in. Delete validation is a map lookup — the offer's
	// grouping key is never re-derived from caller-supplied attributes.
	byID map[flexoffer.ID]member

	// Net-effect pending state, applied by Process. A pending delete
	// keeps the membership it removes.
	pendingIns map[flexoffer.ID]*flexoffer.FlexOffer
	pendingDel map[flexoffer.ID]member

	// Scratch reused across calls, so neither a single-offer Accumulate
	// nor a Process allocates bookkeeping of its own.
	undo      []pendingUndo
	ins       []flexoffer.ID
	insGroups []*group
	deltas    []groupUpdate
	touched   []*group
}

// NewGroupBuilder returns an empty group-builder with the given
// thresholds.
func NewGroupBuilder(params Params) *GroupBuilder {
	return &GroupBuilder{
		params:     params,
		groups:     make(map[groupKey]*group),
		byID:       make(map[flexoffer.ID]member),
		pendingIns: make(map[flexoffer.ID]*flexoffer.FlexOffer),
		pendingDel: make(map[flexoffer.ID]member),
	}
}

// Accumulate queues flex-offer updates for the next Process call. The
// whole batch is validated (offer validity, duplicate inserts, deletes
// of unknown offers); on error nothing is recorded. A Delete of an offer
// whose Insert is still pending cancels the insert in place.
func (g *GroupBuilder) Accumulate(updates ...FlexOfferUpdate) error {
	g.undo = g.undo[:0]
	for _, u := range updates {
		if err := g.accumulate(u); err != nil {
			for i := len(g.undo) - 1; i >= 0; i-- {
				switch r := g.undo[i]; {
				case r.del:
					delete(g.pendingDel, r.id)
				case r.ins != nil:
					g.pendingIns[r.id] = r.ins
				default:
					delete(g.pendingIns, r.id)
				}
			}
			return err
		}
	}
	return nil
}

// accumulate validates one update against the pending state, records
// it, and logs how to undo it.
func (g *GroupBuilder) accumulate(u FlexOfferUpdate) error {
	switch u.Kind {
	case Insert:
		if err := u.Offer.Validate(); err != nil {
			return fmt.Errorf("agg: rejecting offer: %w", err)
		}
		id := u.Offer.ID
		if g.pendingIns[id] != nil {
			return fmt.Errorf("agg: duplicate flex-offer id %d", id)
		}
		if _, applied := g.byID[id]; applied {
			if _, leaving := g.pendingDel[id]; !leaving {
				return fmt.Errorf("agg: duplicate flex-offer id %d", id)
			}
		}
		g.undo = append(g.undo, pendingUndo{id: id})
		g.pendingIns[id] = u.Offer
	case Delete:
		if u.Offer == nil {
			return fmt.Errorf("agg: delete of nil flex-offer")
		}
		id := u.Offer.ID
		if prev := g.pendingIns[id]; prev != nil {
			// Cancel the not-yet-processed insert: net effect zero.
			g.undo = append(g.undo, pendingUndo{id: id, ins: prev})
			delete(g.pendingIns, id)
			return nil
		}
		m, applied := g.byID[id]
		if _, leaving := g.pendingDel[id]; !applied || leaving {
			return fmt.Errorf("agg: delete of unknown flex-offer id %d", id)
		}
		g.undo = append(g.undo, pendingUndo{id: id, del: true})
		g.pendingDel[id] = m
	default:
		return fmt.Errorf("agg: unknown update kind %v", u.Kind)
	}
	return nil
}

// Process applies all accumulated updates to the maintained groups and
// returns the group deltas. It cannot fail: every update was validated
// by Accumulate. Deltas are emitted in key order, each group's offers in
// ID order, so the aggregator downstream assigns stable aggregate IDs.
// A group whose every applied member leaves, with no pending insert
// landing in it, is retired whole: its removals are not listed.
func (g *GroupBuilder) Process() []groupUpdate {
	if len(g.pendingIns) == 0 && len(g.pendingDel) == 0 {
		return nil
	}
	// Resolve the inserts' groups first, so a delete pass that empties a
	// group knows whether the batch refills it.
	for id := range g.pendingIns {
		g.ins = append(g.ins, id)
	}
	slices.Sort(g.ins)
	for _, id := range g.ins {
		k := g.params.keyOf(g.pendingIns[id])
		grp := g.groups[k]
		if grp == nil {
			grp = &group{key: k}
			g.groups[k] = grp
		}
		grp.ins = true
		g.touch(grp)
		g.insGroups = append(g.insGroups, grp)
	}
	// Removals before additions: an offer deleted and re-inserted in one
	// batch leaves its old group before joining the new one.
	for id, m := range g.pendingDel {
		delete(g.byID, id)
		m.g.n--
		d := g.touch(m.g)
		d.removed = append(d.removed, m.off)
	}
	for i := range g.deltas {
		d, grp := &g.deltas[i], g.touched[i]
		switch {
		case len(d.removed) == 0:
		case grp.n == 0 && !grp.ins:
			d.retired, d.removed = true, nil
		default:
			slices.SortFunc(d.removed, byOfferID)
		}
	}
	for i, id := range g.ins {
		off, grp := g.pendingIns[id], g.insGroups[i]
		g.byID[id] = member{g: grp, off: off}
		grp.n++
		d := &g.deltas[grp.slot-1]
		d.added = append(d.added, off)
	}

	out := make([]groupUpdate, len(g.deltas))
	copy(out, g.deltas)
	for i, grp := range g.touched {
		grp.slot, grp.ins = 0, false
		if grp.n == 0 {
			delete(g.groups, grp.key)
		}
		g.deltas[i] = groupUpdate{}
		g.touched[i] = nil
	}
	clear(g.insGroups)
	g.ins, g.insGroups, g.deltas, g.touched = g.ins[:0], g.insGroups[:0], g.deltas[:0], g.touched[:0]
	clear(g.pendingIns)
	clear(g.pendingDel)
	slices.SortFunc(out, func(a, b groupUpdate) int { return compareKeys(a.key, b.key) })
	return out
}

// touch returns grp's delta of the running Process, opening it on first
// use. The pointer is valid until the next touch.
func (g *GroupBuilder) touch(grp *group) *groupUpdate {
	if grp.slot == 0 {
		g.deltas = append(g.deltas, groupUpdate{key: grp.key})
		g.touched = append(g.touched, grp)
		grp.slot = len(g.deltas)
	}
	return &g.deltas[grp.slot-1]
}

func byOfferID(a, b *flexoffer.FlexOffer) int { return cmp.Compare(a.ID, b.ID) }

func compareKeys(a, b groupKey) int {
	if c := cmp.Compare(a.es, b.es); c != 0 {
		return c
	}
	if c := cmp.Compare(a.tf, b.tf); c != 0 {
		return c
	}
	return cmp.Compare(a.dur, b.dur)
}

// BinPackerOptions is kept for source compatibility: NewPipeline
// ignores it.
//
// Deprecated: the pipeline has no bin-packer. Every group maps to one
// aggregate, as in the paper's experiments, which ran with the optional
// bin-packer turned off.
type BinPackerOptions struct{}
