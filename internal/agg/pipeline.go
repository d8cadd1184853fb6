package agg

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"mirabel/internal/flexoffer"
)

// group is one similarity group and the aggregate it maps to one to
// one, plus, while Process runs, its slot in the batch's delta list.
type group struct {
	key  groupKey
	agg  *Aggregate // nil only while Process builds a new group's aggregate
	slot int        // 1 + index into Pipeline.deltas; 0 = untouched
	// leaving says every member leaves at the next Process (LeaveWhole).
	leaving bool
}

// member is one held offer, the group it lives in (nil while its
// insert is pending) and the slot its caller gave it (SetSlot).
type member struct {
	g    *group
	off  *flexoffer.FlexOffer
	slot uint64
}

// delta is what one Process batch does to one group: the offers that
// join it and the members that leave it, or, when whole is set, every
// member leaving.
type delta struct {
	g              *group
	added, removed []*flexoffer.FlexOffer
	whole          bool
}

// pendingUndo is an offer's pending state before one recorded update:
// its pending insert (off nil when it had none) and its pending delete
// (zero when it had none). A batch that fails validation half way
// restores it.
type pendingUndo struct {
	id  flexoffer.ID
	ins member
	del member
}

// Pipeline is the paper's aggregation chain — "these sub-components
// are chained so that provided flex-offer updates traverse them
// sequentially" — in one structure: it partitions flex-offers into
// groups of similar offers under the thresholds and maintains exactly
// one aggregated flex-offer per group, without the paper's optional
// bin-packer. Intake accumulates; Process runs the whole chain once
// per batch (paper: "flex-offer updates are accumulated within the
// group-builder until their further processing is invoked").
//
// The pipeline is also the one index of the offers it holds: an applied
// member that is not leaving, or a pending insert (Offer, NumOffers,
// EachOffer). Each held offer carries an opaque slot for its caller: a
// node keeps there where the offer's store record lives. SetSlot is the
// one way a slot enters the pipeline, on a pending insert; LeaveWhole
// hands the slots back.
//
// Accumulate validates each batch against the membership index and the
// already-pending updates as it records it, and undoes the batch's
// records when an update fails — a failed batch leaves the pipeline
// exactly as it was, and Process can never fail half way through.
// Pending inserts and deletes are kept as net-effect maps: deleting a
// still-pending insert cancels it, so an offer that arrives and expires
// between two cycles costs nothing, and inserting the very offer whose
// delete is pending cancels that delete.
type Pipeline struct {
	params Params
	nextID flexoffer.ID
	groups map[groupKey]*group
	// byID is the membership index over applied offers: which group an
	// offer lives in. Delete validation is a map lookup — the offer's
	// grouping key is never re-derived from caller-supplied attributes.
	byID map[flexoffer.ID]member
	// byAggID finds a group by its aggregate's macro flex-offer ID.
	byAggID map[flexoffer.ID]*group

	// Net-effect pending state, applied by Process. A pending delete
	// keeps the membership it removes. leaving lists the groups whose
	// every member leaves (LeaveWhole), and leavingN counts those
	// members.
	pendingIns map[flexoffer.ID]member
	pendingDel map[flexoffer.ID]member
	leaving    []*group
	leavingN   int

	// Scratch reused across calls, so neither a single-offer Accumulate
	// nor a Process allocates bookkeeping of its own.
	undo   []pendingUndo
	ins    []flexoffer.ID
	deltas []delta
}

// NewPipeline returns an empty aggregation pipeline with the given
// thresholds. The BinPackerOptions argument is ignored and may be left
// out.
func NewPipeline(params Params, _ ...BinPackerOptions) *Pipeline {
	return &Pipeline{
		params:     params,
		nextID:     1,
		groups:     make(map[groupKey]*group),
		byID:       make(map[flexoffer.ID]member),
		byAggID:    make(map[flexoffer.ID]*group),
		pendingIns: make(map[flexoffer.ID]member),
		pendingDel: make(map[flexoffer.ID]member),
	}
}

// Accumulate validates and queues flex-offer updates for the next
// Process call without processing them — the intake half of the
// paper's accumulate-then-process design. The whole batch is validated
// (offer validity, duplicate inserts, deletes of unknown offers); on
// error nothing is recorded.
func (p *Pipeline) Accumulate(updates ...FlexOfferUpdate) error {
	p.undo = p.undo[:0]
	for _, u := range updates {
		if err := p.accumulate(u); err != nil {
			for i := len(p.undo) - 1; i >= 0; i-- {
				r := p.undo[i]
				if r.ins.off != nil {
					p.pendingIns[r.id] = r.ins
				} else {
					delete(p.pendingIns, r.id)
				}
				if r.del.off != nil {
					p.pendingDel[r.id] = r.del
				} else {
					delete(p.pendingDel, r.id)
				}
			}
			return err
		}
	}
	return nil
}

// accumulate validates one update against the pending state, records
// it, and logs how to undo it.
func (p *Pipeline) accumulate(u FlexOfferUpdate) error {
	switch u.Kind {
	case Insert:
		if err := u.Offer.Validate(); err != nil {
			return fmt.Errorf("agg: rejecting offer: %w", err)
		}
		id := u.Offer.ID
		if p.pendingIns[id].off != nil {
			return fmt.Errorf("agg: duplicate flex-offer id %d", id)
		}
		var leaving member
		if _, applied := p.byID[id]; applied {
			var ok bool
			if leaving, ok = p.pendingDel[id]; !ok {
				return fmt.Errorf("agg: duplicate flex-offer id %d", id)
			}
		}
		p.undo = append(p.undo, pendingUndo{id: id, del: leaving})
		if leaving.off == u.Offer {
			// The very offer comes back before it left: net effect zero.
			delete(p.pendingDel, id)
		} else {
			p.pendingIns[id] = member{off: u.Offer}
		}
	case Delete:
		if u.Offer == nil {
			return fmt.Errorf("agg: delete of nil flex-offer")
		}
		id := u.Offer.ID
		if prev := p.pendingIns[id]; prev.off != nil {
			// Cancel the not-yet-processed insert: net effect zero.
			p.undo = append(p.undo, pendingUndo{id: id, ins: prev, del: p.pendingDel[id]})
			delete(p.pendingIns, id)
			return nil
		}
		m, applied := p.byID[id]
		if _, leaving := p.pendingDel[id]; !applied || leaving || m.g.leaving {
			return fmt.Errorf("agg: delete of unknown flex-offer id %d", id)
		}
		p.undo = append(p.undo, pendingUndo{id: id})
		p.pendingDel[id] = m
	default:
		return fmt.Errorf("agg: unknown update kind %v", u.Kind)
	}
	return nil
}

// Process applies every accumulated update as one batch: each touched
// group's aggregate takes its joins and leaves as a single transaction
// (at worst one rebuild). It cannot fail: all validation happened in
// Accumulate. Groups are handled in key order, each group's offers in
// ID order, so new aggregates get their macro flex-offer IDs in a
// deterministic order. A group whose every member leaves, with no
// pending insert landing in it, is retired whole instead of replaying
// the removals.
func (p *Pipeline) Process() {
	if len(p.pendingIns) == 0 && len(p.pendingDel) == 0 && len(p.leaving) == 0 {
		return
	}
	// Removals before additions: an offer deleted and re-inserted in one
	// batch leaves its old group before joining the new one.
	for _, grp := range p.leaving {
		for _, m := range grp.agg.members {
			delete(p.byID, m.ID)
		}
		grp.leaving = false
		p.touch(grp).whole = true
	}
	clear(p.leaving)
	p.leaving, p.leavingN = p.leaving[:0], 0
	for id, m := range p.pendingDel {
		delete(p.byID, id)
		d := p.touch(m.g)
		d.removed = append(d.removed, m.off)
	}
	for id := range p.pendingIns {
		p.ins = append(p.ins, id)
	}
	slices.Sort(p.ins)
	for _, id := range p.ins {
		pm := p.pendingIns[id]
		off := pm.off
		k := p.params.keyOf(off)
		grp := p.groups[k]
		if grp == nil {
			grp = &group{key: k}
			p.groups[k] = grp
		}
		p.byID[id] = member{g: grp, off: off, slot: pm.slot}
		d := p.touch(grp)
		d.added = append(d.added, off)
	}
	slices.SortFunc(p.deltas, func(a, b delta) int { return compareKeys(a.g.key, b.g.key) })
	for i := range p.deltas {
		p.apply(&p.deltas[i])
		p.deltas[i] = delta{}
	}
	p.ins, p.deltas = p.ins[:0], p.deltas[:0]
	clear(p.pendingIns)
	clear(p.pendingDel)
}

// apply runs one group's share of a batch on its aggregate, building
// the aggregate of a new group and dropping the group of an emptied
// one.
func (p *Pipeline) apply(d *delta) {
	grp := d.g
	grp.slot = 0
	a := grp.agg
	alive := true
	switch {
	case a == nil:
		a = buildAggregate(p.nextID, d.added)
		p.nextID++
		grp.agg = a
		p.byAggID[a.Offer.ID] = grp
	case d.whole:
		// What removing every member one by one comes to: one Version
		// bump, and the batch's joiners built from scratch under the
		// aggregate's ID.
		a.retire()
		alive = len(d.added) > 0 && a.rebuildWith(d.added)
	case len(d.added) == 0 && len(d.removed) == a.NumMembers():
		a.retire()
		alive = false
	default:
		slices.SortFunc(d.removed, byOfferID)
		alive = a.applyBatch(d.added, d.removed)
	}
	if !alive {
		delete(p.groups, grp.key)
		delete(p.byAggID, a.Offer.ID)
	}
}

// touch returns grp's delta of the running Process, opening it on first
// use. The pointer is valid until the next touch.
func (p *Pipeline) touch(grp *group) *delta {
	if grp.slot == 0 {
		p.deltas = append(p.deltas, delta{g: grp})
		grp.slot = len(p.deltas)
	}
	return &p.deltas[grp.slot-1]
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

// Apply is Accumulate followed immediately by Process — the one-call
// form for tests, tools and synchronous callers.
func (p *Pipeline) Apply(updates ...FlexOfferUpdate) error {
	if err := p.Accumulate(updates...); err != nil {
		return err
	}
	p.Process()
	return nil
}

// Offer returns the held offer with the given ID: an applied member
// that is not leaving, or a pending insert.
func (p *Pipeline) Offer(id flexoffer.ID) (*flexoffer.FlexOffer, bool) {
	if m := p.pendingIns[id]; m.off != nil {
		return m.off, true
	}
	if _, leaving := p.pendingDel[id]; leaving {
		return nil, false
	}
	m, ok := p.byID[id]
	if !ok || m.g.leaving {
		return nil, false
	}
	return m.off, true
}

// SetSlot sets the slot of the pending insert with the given ID, for
// a caller that learns where the offer's record lives only after
// accumulating its insert. An offer whose slot was never set holds 0.
func (p *Pipeline) SetSlot(id flexoffer.ID, slot uint64) {
	if m := p.pendingIns[id]; m.off != nil {
		m.slot = slot
		p.pendingIns[id] = m
	}
}

// LeaveWhole queues the departure of every member of the live aggregate
// snap is a snapshot of, for the next Process, provided it is still at
// snap's Version and none of its members is already leaving: the
// members leave in one pass over the group, with no per-member delete.
// It appends each member's slot to slots, in member order — the order
// of snap's members and of the schedules snap.Disaggregate returns —
// and reports whether it queued the departure; when it did not, slots
// comes back as it was. Until Process, Offer no longer finds the
// members, and StayWhole takes the departure back.
func (p *Pipeline) LeaveWhole(snap *Aggregate, slots []uint64) ([]uint64, bool) {
	grp := p.byAggID[snap.Offer.ID]
	if grp == nil || grp.leaving || grp.agg.Version != snap.Version {
		return slots, false
	}
	n := len(slots)
	for _, off := range grp.agg.members {
		if _, deleting := p.pendingDel[off.ID]; deleting {
			return slots[:n], false
		}
		slots = append(slots, p.byID[off.ID].slot)
	}
	grp.leaving = true
	p.leaving = append(p.leaving, grp)
	p.leavingN += grp.agg.NumMembers()
	return slots, true
}

// StayWhole takes back a departure LeaveWhole queued for snap's
// aggregate: its members are held again, as they were.
func (p *Pipeline) StayWhole(snap *Aggregate) {
	grp := p.byAggID[snap.Offer.ID]
	if grp == nil || !grp.leaving {
		return
	}
	grp.leaving = false
	p.leavingN -= grp.agg.NumMembers()
	i := slices.Index(p.leaving, grp)
	p.leaving = slices.Delete(p.leaving, i, i+1)
}

// NumOffers returns how many offers the pipeline holds (see Offer).
func (p *Pipeline) NumOffers() int {
	return len(p.byID) - len(p.pendingDel) - p.leavingN + len(p.pendingIns)
}

// EachOffer calls fn for every held offer (see Offer), in no particular
// order. fn must not change the pipeline.
func (p *Pipeline) EachOffer(fn func(*flexoffer.FlexOffer)) {
	for _, m := range p.pendingIns {
		fn(m.off)
	}
	for id, m := range p.byID {
		if _, leaving := p.pendingDel[id]; !leaving && !m.g.leaving {
			fn(m.off)
		}
	}
}

// Aggregates returns the current macro flex-offers ordered by ID.
func (p *Pipeline) Aggregates() []*Aggregate {
	out := make([]*Aggregate, 0, len(p.groups))
	for _, grp := range p.groups {
		out = append(out, grp.agg)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Offer.ID < out[j].Offer.ID })
	return out
}

// Disaggregate converts schedules of macro flex-offers into schedules of
// all their member micro flex-offers.
func (p *Pipeline) Disaggregate(scheds []*flexoffer.Schedule) ([]*flexoffer.Schedule, error) {
	var out []*flexoffer.Schedule
	for _, s := range scheds {
		grp, ok := p.byAggID[s.OfferID]
		if !ok {
			return nil, fmt.Errorf("agg: no aggregate with id %d", s.OfferID)
		}
		ms, err := grp.agg.Disaggregate(s)
		if err != nil {
			return nil, err
		}
		out = append(out, ms...)
	}
	return out, nil
}

// Metrics summarizes the current aggregation state for the compression /
// flexibility trade-off analysis (paper Figures 5a and 5c).
type Metrics struct {
	FlexOffers       int     // micro flex-offers aggregated
	Aggregates       int     // macro flex-offers
	CompressionRatio float64 // FlexOffers / Aggregates
	// TotalTimeFlexLoss is Σ over members of (TF_member − TF_aggregate),
	// in slots; LossPerOffer is the same divided by FlexOffers.
	TotalTimeFlexLoss flexoffer.Time
	LossPerOffer      float64
}

// CurrentMetrics computes Metrics for the pipeline's live aggregates.
func (p *Pipeline) CurrentMetrics() Metrics {
	m := Metrics{}
	for _, grp := range p.groups {
		m.Aggregates++
		m.FlexOffers += grp.agg.NumMembers()
		m.TotalTimeFlexLoss += grp.agg.TimeFlexibilityLoss()
	}
	if m.Aggregates > 0 {
		m.CompressionRatio = float64(m.FlexOffers) / float64(m.Aggregates)
	}
	if m.FlexOffers > 0 {
		m.LossPerOffer = float64(m.TotalTimeFlexLoss) / float64(m.FlexOffers)
	}
	return m
}

// BinPackerOptions is kept for source compatibility: NewPipeline
// ignores it.
//
// Deprecated: the pipeline has no bin-packer. Every group maps to one
// aggregate, as in the paper's experiments, which ran with the optional
// bin-packer turned off.
type BinPackerOptions struct{}
