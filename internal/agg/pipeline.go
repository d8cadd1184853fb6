package agg

import (
	"cmp"
	"fmt"
	"slices"

	"mirabel/internal/flexoffer"
	"mirabel/internal/par"
)

// group is one similarity group and the aggregate it maps to one to
// one, plus, while Process runs, its slot in the batch's delta list.
type group struct {
	key groupKey
	// next is the next group whose key packs to the same integer
	// (groupKey.pack); nil at the end of the chain.
	next *group
	agg  *Aggregate // nil only while Process builds a new group's aggregate
	// rows are the member table rows of agg's members, in member order.
	rows []int32
	slot int // 1 + index into Pipeline.deltas; 0 = untouched
	// leaving says every member leaves at the next Process (LeaveWhole).
	leaving bool
}

// entry is one row of the member table: an offer ID's applied
// membership, if it has one, and its pending insert, if it has one.
// Both at once happen only while the applied offer's delete is pending
// and another offer with its ID waits to replace it.
type entry struct {
	id   flexoffer.ID
	off  *flexoffer.FlexOffer // the applied member; nil when none
	g    *group               // off's group
	slot uint64               // off's slot
	// ins is the pending insert, nil when none, and insSlot its slot.
	ins     *flexoffer.FlexOffer
	insSlot uint64
	del     bool // off leaves at the next Process
	listed  bool // the entry is on Pipeline.ins until the next Process
}

// delta is what one Process batch does to one group: the offers that
// join it and the members that leave it, or, when whole is set, every
// member leaving. id is the macro flex-offer ID a new group's
// aggregate takes, and alive says whether the group keeps an aggregate.
type delta struct {
	g              *group
	added, removed []*flexoffer.FlexOffer
	whole          bool
	id             flexoffer.ID
	alive          bool
}

// entryUndo is an entry before one recorded update, or, when created
// is set, an entry the update made. A batch that fails validation half
// way restores them, last first.
type entryUndo struct {
	i       int32
	created bool
	prev    entry
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
// EachOffer). Every offer ID it knows is one row of a member table — a
// slab of entries found through one ID → row map — that carries the
// applied membership and the pending insert side by side, and each
// group lists its members' rows, so a group leaves whole without a
// lookup. Each held offer carries an opaque slot for its caller: a node keeps there where
// the offer's store record lives. SetSlot is the one way a slot enters
// the pipeline, on a pending insert; LeaveWhole hands the slots back.
//
// Accumulate validates each batch against the member table as it
// records it, and undoes the batch's records when an update fails — a
// failed batch leaves the pipeline exactly as it was, and Process can
// never fail half way through. Pending updates keep only their net
// effect: deleting a still-pending insert cancels it, so an offer that
// arrives and expires between two cycles costs nothing, and inserting
// the very offer whose delete is pending cancels that delete.
type Pipeline struct {
	params Params
	nextID flexoffer.ID
	// groups finds a group by its packed key; groups whose keys pack
	// alike are chained through group.next.
	groups map[uint64]*group
	// byAggID finds a group by its aggregate's macro flex-offer ID.
	byAggID map[flexoffer.ID]*group

	// The member table: index finds an ID's entry in ents, and free
	// lists the entries no ID holds. Delete validation is one lookup —
	// the offer's grouping key is never re-derived from caller-supplied
	// attributes.
	index map[flexoffer.ID]int32
	ents  []entry
	free  []int32

	// Pending state, applied by Process. ins lists the entries that took
	// a pending insert this batch, each once, in arrival order; an
	// insert cancelled later stays listed. dels lists the entries whose
	// applied member got a pending delete, a delete taken back and made
	// again listed twice. leaving lists the groups whose every member
	// leaves (LeaveWhole), and leavingN counts those members. nApplied,
	// nIns and nDel count applied members, pending inserts and pending
	// deletes.
	ins                            []int32
	dels                           []int32
	leaving                        []*group
	nApplied, nIns, nDel, leavingN int

	// Scratch reused across calls, so neither a single-offer Accumulate
	// nor a Process allocates bookkeeping of its own.
	undo   []entryUndo
	deltas []delta
}

// NewPipeline returns an empty aggregation pipeline with the given
// thresholds. The BinPackerOptions argument is ignored and may be left
// out.
func NewPipeline(params Params, _ ...BinPackerOptions) *Pipeline {
	return &Pipeline{
		params:  params,
		nextID:  1,
		groups:  make(map[uint64]*group),
		byAggID: make(map[flexoffer.ID]*group),
		index:   make(map[flexoffer.ID]int32),
	}
}

// Accumulate validates and queues flex-offer updates for the next
// Process call without processing them — the intake half of the
// paper's accumulate-then-process design. The whole batch is validated
// (offer validity, duplicate inserts, deletes of unknown offers); on
// error nothing is recorded.
func (p *Pipeline) Accumulate(updates ...FlexOfferUpdate) error {
	p.undo = p.undo[:0]
	ins, dels, nIns, nDel := len(p.ins), len(p.dels), p.nIns, p.nDel
	for _, u := range updates {
		if err := p.accumulate(u); err != nil {
			for i := len(p.undo) - 1; i >= 0; i-- {
				if r := &p.undo[i]; r.created {
					p.release(r.i)
				} else {
					p.ents[r.i] = r.prev
				}
			}
			p.ins, p.dels, p.nIns, p.nDel = p.ins[:ins], p.dels[:dels], nIns, nDel
			return err
		}
	}
	return nil
}

// accumulate validates one update against the member table, records
// it, and logs how to undo it.
func (p *Pipeline) accumulate(u FlexOfferUpdate) error {
	switch u.Kind {
	case Insert:
		if err := u.Offer.Validate(); err != nil {
			return fmt.Errorf("agg: rejecting offer: %w", err)
		}
		id := u.Offer.ID
		i, ok := p.index[id]
		if !ok {
			i = p.newEntry(id)
		}
		e := &p.ents[i]
		if e.ins != nil || e.off != nil && !e.del {
			return fmt.Errorf("agg: duplicate flex-offer id %d", id)
		}
		if ok {
			p.undo = append(p.undo, entryUndo{i: i, prev: *e})
		}
		if e.off == u.Offer {
			// The very offer comes back before it left: net effect zero.
			e.del = false
			p.nDel--
			return nil
		}
		e.ins, e.insSlot = u.Offer, 0
		p.nIns++
		if !e.listed {
			e.listed = true
			p.ins = append(p.ins, i)
		}
	case Delete:
		if u.Offer == nil {
			return fmt.Errorf("agg: delete of nil flex-offer")
		}
		id := u.Offer.ID
		i, ok := p.index[id]
		if !ok {
			return fmt.Errorf("agg: delete of unknown flex-offer id %d", id)
		}
		e := &p.ents[i]
		if e.ins != nil {
			// Cancel the not-yet-processed insert: net effect zero.
			p.undo = append(p.undo, entryUndo{i: i, prev: *e})
			e.ins, e.insSlot = nil, 0
			p.nIns--
			return nil
		}
		if e.off == nil || e.del || e.g.leaving {
			return fmt.Errorf("agg: delete of unknown flex-offer id %d", id)
		}
		p.undo = append(p.undo, entryUndo{i: i, prev: *e})
		e.del = true
		p.nDel++
		p.dels = append(p.dels, i)
	default:
		return fmt.Errorf("agg: unknown update kind %v", u.Kind)
	}
	return nil
}

// newEntry gives id an empty entry, a free one if there is one, and
// logs its making.
func (p *Pipeline) newEntry(id flexoffer.ID) int32 {
	var i int32
	if n := len(p.free); n > 0 {
		i, p.free = p.free[n-1], p.free[:n-1]
	} else {
		i = int32(len(p.ents))
		p.ents = append(p.ents, entry{})
	}
	p.ents[i].id = id
	p.index[id] = i
	p.undo = append(p.undo, entryUndo{i: i, created: true})
	return i
}

// release frees entry i and forgets its ID.
func (p *Pipeline) release(i int32) {
	delete(p.index, p.ents[i].id)
	p.ents[i] = entry{}
	p.free = append(p.free, i)
}

// Process applies every accumulated update as one batch: each touched
// group's aggregate takes its joins and leaves as a single transaction
// (at worst one rebuild). It cannot fail: all validation happened in
// Accumulate. New aggregates get their macro flex-offer IDs in group
// key order, and each group's offers join in ID order, so the outcome
// does not depend on the order updates arrived in. A group whose every
// member leaves, with no pending insert landing in it, is retired whole
// instead of replaying the removals. The touched groups' aggregates are
// built and changed on every core (par.For), each group on one
// goroutine, so the floats are those of a serial run.
func (p *Pipeline) Process() {
	// Removals before additions: an offer deleted and re-inserted in one
	// batch leaves its old group before joining the new one.
	for _, grp := range p.leaving {
		for _, i := range grp.rows {
			p.release(i)
		}
		grp.leaving = false
		p.touch(grp).whole = true
	}
	p.nApplied -= p.leavingN
	clear(p.leaving)
	p.leaving, p.leavingN = p.leaving[:0], 0
	for _, i := range p.dels {
		e := &p.ents[i]
		if !e.del {
			continue // taken back, or listed again
		}
		d := p.touch(e.g)
		d.removed = append(d.removed, e.off)
		e.off, e.g, e.slot, e.del = nil, nil, 0, false
		p.nApplied--
		if !e.listed {
			p.release(i)
		}
	}
	for _, i := range p.ins {
		e := &p.ents[i]
		if !e.listed {
			continue // released with its leaving group
		}
		e.listed = false
		if e.ins == nil {
			if e.off == nil {
				p.release(i) // a cancelled insert
			}
			continue
		}
		grp := p.group(p.params.keyOf(e.ins))
		e.off, e.g, e.slot, e.ins, e.insSlot = e.ins, grp, e.insSlot, nil, 0
		p.nApplied++
		d := p.touch(grp)
		d.added = append(d.added, e.off)
	}
	p.ins, p.dels, p.nIns, p.nDel = p.ins[:0], p.dels[:0], 0, 0

	slices.SortFunc(p.deltas, func(a, b delta) int { return compareKeys(a.g.key, b.g.key) })
	building := 0
	for i := range p.deltas {
		d := &p.deltas[i]
		d.g.slot = 0
		if d.g.agg == nil {
			d.id = p.nextID
			p.nextID++
		}
		if len(d.added)+len(d.removed) > 0 {
			building++
		}
	}
	// A batch that only retires groups whole, as the commit's does, has
	// nothing to build and stays on this goroutine.
	if building > 1 {
		par.For(len(p.deltas), func(i int) { p.apply(&p.deltas[i]) })
	} else {
		for i := range p.deltas {
			p.apply(&p.deltas[i])
		}
	}
	for i := range p.deltas {
		d := &p.deltas[i]
		switch {
		case d.id != 0:
			p.byAggID[d.id] = d.g
		case !d.alive:
			p.dropGroup(d.g)
			delete(p.byAggID, d.g.agg.Offer.ID)
		}
		clear(d.added)
		clear(d.removed)
		*d = delta{added: d.added[:0], removed: d.removed[:0]}
	}
	p.deltas = p.deltas[:0]
}

// apply runs one group's share of a batch on its aggregate, building
// the aggregate of a new group, records whether the group keeps one and
// lists the rows of its members. It changes nothing but d and its
// group, and only reads the member table, so distinct groups apply
// concurrently.
func (p *Pipeline) apply(d *delta) {
	grp, a := d.g, d.g.agg
	slices.SortFunc(d.added, byOfferID)
	alive := true
	switch {
	case a == nil:
		grp.agg = buildAggregate(d.id, d.added)
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
	// Built in a local and written back once: the deltas and groups of
	// other goroutines share cache lines with these.
	rows := grp.rows[:0]
	if alive {
		rows = slices.Grow(rows, grp.agg.NumMembers())
		for _, m := range grp.agg.members {
			rows = append(rows, p.index[m.ID])
		}
	}
	d.alive, grp.rows = alive, rows
}

// touch returns grp's delta of the running Process, opening it on first
// use and reusing the room of an earlier batch's delta. The pointer is
// valid until the next touch.
func (p *Pipeline) touch(grp *group) *delta {
	if grp.slot == 0 {
		n := len(p.deltas)
		if n < cap(p.deltas) {
			p.deltas = p.deltas[:n+1]
		} else {
			p.deltas = append(p.deltas, delta{})
		}
		p.deltas[n].g = grp
		grp.slot = n + 1
	}
	return &p.deltas[grp.slot-1]
}

// group returns the group of key k, making an empty one if there is
// none: one lookup of the packed key, then the chain compared key by
// key.
func (p *Pipeline) group(k groupKey) *group {
	pk := k.pack()
	head := p.groups[pk]
	for grp := head; grp != nil; grp = grp.next {
		if grp.key == k {
			return grp
		}
	}
	grp := &group{key: k, next: head}
	p.groups[pk] = grp
	return grp
}

// dropGroup unlinks grp from its key's chain.
func (p *Pipeline) dropGroup(grp *group) {
	pk := grp.key.pack()
	head := p.groups[pk]
	if head == grp {
		if grp.next == nil {
			delete(p.groups, pk)
		} else {
			p.groups[pk] = grp.next
		}
		return
	}
	for g := head; g != nil; g = g.next {
		if g.next == grp {
			g.next = grp.next
			return
		}
	}
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

// held returns the offer entry e holds (see Offer), or nil.
func held(e *entry) *flexoffer.FlexOffer {
	switch {
	case e.ins != nil:
		return e.ins
	case e.off != nil && !e.del && !e.g.leaving:
		return e.off
	}
	return nil
}

// Offer returns the held offer with the given ID: an applied member
// that is not leaving, or a pending insert.
func (p *Pipeline) Offer(id flexoffer.ID) (*flexoffer.FlexOffer, bool) {
	i, ok := p.index[id]
	if !ok {
		return nil, false
	}
	off := held(&p.ents[i])
	return off, off != nil
}

// SetSlot sets the slot of the pending insert with the given ID, for
// a caller that learns where the offer's record lives only after
// accumulating its insert. An offer whose slot was never set holds 0.
func (p *Pipeline) SetSlot(id flexoffer.ID, slot uint64) {
	if i, ok := p.index[id]; ok && p.ents[i].ins != nil {
		p.ents[i].insSlot = slot
	}
}

// LeaveWhole queues the departure of every member of the live aggregate
// snap is a snapshot of, for the next Process, provided it is still at
// snap's Version and none of its members is already leaving: the
// members leave in one pass over the group's rows of the member table,
// with no lookup and no per-member delete. It appends each member's slot to slots, in member
// order — the order of snap's members and of the schedules
// snap.Disaggregate returns — and reports whether it queued the
// departure; when it did not, slots comes back as it was. Until
// Process, Offer no longer finds the members, and StayWhole takes the
// departure back.
func (p *Pipeline) LeaveWhole(snap *Aggregate, slots []uint64) ([]uint64, bool) {
	grp := p.byAggID[snap.Offer.ID]
	if grp == nil || grp.leaving || grp.agg.Version != snap.Version {
		return slots, false
	}
	n := len(slots)
	for _, i := range grp.rows {
		if p.ents[i].del {
			return slots[:n], false
		}
		slots = append(slots, p.ents[i].slot)
	}
	grp.leaving = true
	p.leaving = append(p.leaving, grp)
	p.leavingN += len(grp.rows)
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
	p.leavingN -= len(grp.rows)
	i := slices.Index(p.leaving, grp)
	p.leaving = slices.Delete(p.leaving, i, i+1)
}

// NumOffers returns how many offers the pipeline holds (see Offer).
func (p *Pipeline) NumOffers() int {
	return p.nApplied - p.nDel - p.leavingN + p.nIns
}

// EachOffer calls fn for every held offer (see Offer), in member table
// order. fn must not change the pipeline.
func (p *Pipeline) EachOffer(fn func(*flexoffer.FlexOffer)) {
	for i := range p.ents {
		if off := held(&p.ents[i]); off != nil {
			fn(off)
		}
	}
}

// Aggregates returns the current macro flex-offers ordered by ID.
func (p *Pipeline) Aggregates() []*Aggregate {
	out := make([]*Aggregate, 0, len(p.byAggID))
	for _, grp := range p.byAggID {
		out = append(out, grp.agg)
	}
	slices.SortFunc(out, func(a, b *Aggregate) int { return cmp.Compare(a.Offer.ID, b.Offer.ID) })
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
	for _, grp := range p.byAggID {
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
