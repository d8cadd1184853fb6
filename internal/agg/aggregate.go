package agg

import (
	"fmt"
	"slices"
	"sort"

	"mirabel/internal/flexoffer"
)

// aggResyncEvery bounds float drift on the delta paths: after this many
// delta add/remove operations the next batch rebuilds the aggregate from
// scratch, re-summing profile, totals and cost (same trick as the
// scheduler's delta evaluator).
const aggResyncEvery = 4096

// Aggregate is a macro flex-offer: the conservative combination of a set
// of member micro flex-offers. Offer carries the combined constraints in
// ordinary flex-offer form, so the scheduling component treats macro and
// micro flex-offers uniformly.
//
// Construction uses start-alignment: every member profile is placed at
// its own earliest start time relative to the aggregate's earliest start
// time, and the whole ensemble shifts together within the aggregate's
// time flexibility, which is the minimum member time flexibility. This is
// what makes disaggregation always succeed (the paper's disaggregation
// requirement): shifting the aggregate by s slots shifts member i to
// ES_i + s, and s ≤ TF_agg ≤ TF_i keeps every member inside its own
// flexibility interval.
//
// The aggregate is maintained incrementally. Four combined attributes are
// extrema over the members — earliest start (min), time flexibility
// (min), assign-before (min) and profile grid end (max) — and per-extremum
// tie counters record how many members currently sit at each boundary.
// Removing a member that does not own any boundary (counter > 1, or the
// member is strictly inside) is a pure O(member profile) delta: subtract
// its profile contribution and cost terms and decrement matching
// counters. Only removals of boundary owners fall back to a single
// from-scratch rebuild for the whole batch.
type Aggregate struct {
	Offer   *flexoffer.FlexOffer
	members []*flexoffer.FlexOffer // kept sorted by member ID

	// TotalMin and TotalMax cache the profile's summed energy bounds,
	// maintained by deltas on add/remove.
	TotalMin, TotalMax float64

	// Version counts mutations of this aggregate. Every batch of member
	// changes bumps it exactly once, so an unchanged Version across
	// cycles means a cached Snapshot is still valid.
	Version uint64

	// Incrementally maintained energy-weighted activation cost inputs.
	costSum, energySum float64

	// Boundary tie counters: how many members sit at the current
	// min-EarliestStart, min-TimeFlexibility, min-AssignBefore and
	// max-profile-end. They make "does removing m force a rebuild?" an
	// O(1) test.
	nMinES, nMinTF, nMinAB, nMaxEnd int

	// deltaOps counts delta operations since the last from-scratch
	// build; at aggResyncEvery the next batch rebuilds to kill drift.
	deltaOps int

	// snap is the copy Snapshot made last; it is handed out again while
	// its Version is the aggregate's.
	snap *Aggregate
}

// NumMembers returns the member count.
func (a *Aggregate) NumMembers() int { return len(a.members) }

// TimeFlexibilityLoss returns the total time flexibility (slot·offers)
// lost by aggregating: Σ members (TF_member − TF_aggregate).
func (a *Aggregate) TimeFlexibilityLoss() flexoffer.Time {
	var loss flexoffer.Time
	tfa := a.Offer.TimeFlexibility()
	for _, m := range a.members {
		loss += m.TimeFlexibility() - tfa
	}
	return loss
}

// Snapshot returns an independent copy of the aggregate that stays
// valid — in particular for Disaggregate — while the live pipeline
// keeps mutating. The combined offer is deep-copied and the member
// list is fixed; the member flex-offers themselves are shared, which
// is safe because accepted offers are immutable. The copy carries the
// source Version, and while that Version is unchanged Snapshot returns
// the same copy again, so an aggregate no batch touched costs no deep
// copy. A snapshot is shared that way and must be treated as
// read-only.
func (a *Aggregate) Snapshot() *Aggregate {
	if a.snap != nil && a.snap.Version == a.Version {
		return a.snap
	}
	a.snap = &Aggregate{
		Offer:     a.Offer.Clone(),
		members:   append([]*flexoffer.FlexOffer(nil), a.members...),
		TotalMin:  a.TotalMin,
		TotalMax:  a.TotalMax,
		Version:   a.Version,
		costSum:   a.costSum,
		energySum: a.energySum,
		nMinES:    a.nMinES,
		nMinTF:    a.nMinTF,
		nMinAB:    a.nMinAB,
		nMaxEnd:   a.nMaxEnd,
	}
	return a.snap
}

// gridEnd returns the slot just past the combined profile: the maximum
// member EarliestStart + NumSlices.
func (a *Aggregate) gridEnd() flexoffer.Time {
	return a.Offer.EarliestStart + flexoffer.Time(len(a.Offer.Profile))
}

// buildAggregate constructs an aggregate from scratch for the given
// members, which must be in ID order ("aggregation from scratch is also
// supported"), in one pass over them: each member's profile is merged,
// its energy and cost terms summed and its boundaries counted as it
// joins. The member slice is copied; the caller's slice is not
// retained.
func buildAggregate(id flexoffer.ID, members []*flexoffer.FlexOffer) *Aggregate {
	if len(members) == 0 {
		return nil
	}
	sorted := slices.Clone(members)
	first := sorted[0]
	a := &Aggregate{
		Offer: &flexoffer.FlexOffer{
			ID:            id,
			Prosumer:      "aggregate",
			EarliestStart: first.EarliestStart,
			LatestStart:   first.LatestStart,
			AssignBefore:  first.AssignBefore,
			Profile:       slices.Clone(first.Profile),
			CostPerKWh:    first.CostPerKWh,
		},
		members: sorted,
		Version: 1,
		nMinES:  1, nMinTF: 1, nMinAB: 1, nMaxEnd: 1,
	}
	e := absTotalMax(first)
	a.costSum += first.CostPerKWh * e
	a.energySum += e
	for _, m := range sorted[1:] {
		a.noteBoundaries(m)
		e := a.merge(m)
		a.costSum += m.CostPerKWh * e
		a.energySum += e
	}
	if a.energySum > 0 {
		a.Offer.CostPerKWh = a.costSum / a.energySum
	}
	a.refreshTotals()
	return a
}

// memberIndex binary-searches the ID-sorted member list.
func (a *Aggregate) memberIndex(id flexoffer.ID) int {
	i := sort.Search(len(a.members), func(j int) bool { return a.members[j].ID >= id })
	if i < len(a.members) && a.members[i].ID == id {
		return i
	}
	return -1
}

// ownsBoundary reports whether removing m would move one of the combined
// extrema — the O(1) "must rebuild" test.
func (a *Aggregate) ownsBoundary(m *flexoffer.FlexOffer) bool {
	if a.nMinES <= 1 && m.EarliestStart == a.Offer.EarliestStart {
		return true
	}
	if a.nMinTF <= 1 && m.TimeFlexibility() == a.Offer.TimeFlexibility() {
		return true
	}
	if a.nMinAB <= 1 && m.AssignBefore == a.Offer.AssignBefore {
		return true
	}
	if a.nMaxEnd <= 1 && m.EarliestStart+flexoffer.Time(m.NumSlices()) == a.gridEnd() {
		return true
	}
	return false
}

// noteBoundaries updates the tie counters for a joining member. Must run
// BEFORE merge mutates the combined offer, because it compares
// against the pre-merge extrema.
func (a *Aggregate) noteBoundaries(m *flexoffer.FlexOffer) {
	switch {
	case m.EarliestStart < a.Offer.EarliestStart:
		a.nMinES = 1
	case m.EarliestStart == a.Offer.EarliestStart:
		a.nMinES++
	}
	switch {
	case m.TimeFlexibility() < a.Offer.TimeFlexibility():
		a.nMinTF = 1
	case m.TimeFlexibility() == a.Offer.TimeFlexibility():
		a.nMinTF++
	}
	switch {
	case m.AssignBefore < a.Offer.AssignBefore:
		a.nMinAB = 1
	case m.AssignBefore == a.Offer.AssignBefore:
		a.nMinAB++
	}
	end := m.EarliestStart + flexoffer.Time(m.NumSlices())
	switch ge := a.gridEnd(); {
	case end > ge:
		a.nMaxEnd = 1
	case end == ge:
		a.nMaxEnd++
	}
}

// add inserts a new member incrementally ("aggregated flex-offers can be
// incrementally updated to avoid a from-scratch re-computation"). Totals
// are delta-updated: the combined profile gains exactly m's slice
// contributions, so TotalMin/TotalMax grow by m's own sums.
func (a *Aggregate) add(m *flexoffer.FlexOffer) {
	a.noteBoundaries(m)
	i := sort.Search(len(a.members), func(j int) bool { return a.members[j].ID >= m.ID })
	a.members = append(a.members, nil)
	copy(a.members[i+1:], a.members[i:])
	a.members[i] = m
	e := a.merge(m)
	for _, sl := range m.Profile {
		a.TotalMin += sl.EnergyMin
		a.TotalMax += sl.EnergyMax
	}
	a.costSum += m.CostPerKWh * e
	a.energySum += e
	if a.energySum > 0 {
		a.Offer.CostPerKWh = a.costSum / a.energySum
	}
}

// merge merges m's constraints into the combined offer without
// touching the cached totals, cost or counters, and returns m's energy
// weight absTotalMax(m), summed in the same pass over m's profile.
func (a *Aggregate) merge(m *flexoffer.FlexOffer) float64 {
	if m.EarliestStart < a.Offer.EarliestStart {
		// The profile grid starts earlier now: prepend zero slices and
		// move the latest start along so the time flexibility (min of
		// member flexibilities so far) is preserved.
		shift := int(a.Offer.EarliestStart - m.EarliestStart)
		grown := make([]flexoffer.Slice, shift+len(a.Offer.Profile))
		copy(grown[shift:], a.Offer.Profile)
		a.Offer.Profile = grown
		tfSoFar := a.Offer.TimeFlexibility()
		a.Offer.EarliestStart = m.EarliestStart
		a.Offer.LatestStart = m.EarliestStart + tfSoFar
	}
	end := int(m.EarliestStart-a.Offer.EarliestStart) + m.NumSlices()
	for len(a.Offer.Profile) < end {
		a.Offer.Profile = append(a.Offer.Profile, flexoffer.Slice{})
	}
	off := int(m.EarliestStart - a.Offer.EarliestStart)
	var emax float64
	for j, sl := range m.Profile {
		a.Offer.Profile[off+j].EnergyMin += sl.EnergyMin
		a.Offer.Profile[off+j].EnergyMax += sl.EnergyMax
		emax += sl.EnergyMax
	}
	if ls := a.Offer.EarliestStart + m.TimeFlexibility(); ls < a.Offer.LatestStart {
		a.Offer.LatestStart = ls
	}
	if m.AssignBefore < a.Offer.AssignBefore {
		a.Offer.AssignBefore = m.AssignBefore
	}
	if emax < 0 {
		return -emax
	}
	return emax
}

// removeDeltaAt removes the member at index i as a pure delta: subtract
// its profile contribution, totals and cost terms, and decrement the
// counters it ties. Only valid when ownsBoundary(member) is false — the
// combined extrema stay where they are.
func (a *Aggregate) removeDeltaAt(i int) {
	m := a.members[i]
	if m.EarliestStart == a.Offer.EarliestStart {
		a.nMinES--
	}
	if m.TimeFlexibility() == a.Offer.TimeFlexibility() {
		a.nMinTF--
	}
	if m.AssignBefore == a.Offer.AssignBefore {
		a.nMinAB--
	}
	if m.EarliestStart+flexoffer.Time(m.NumSlices()) == a.gridEnd() {
		a.nMaxEnd--
	}
	off := int(m.EarliestStart - a.Offer.EarliestStart)
	for j, sl := range m.Profile {
		a.Offer.Profile[off+j].EnergyMin -= sl.EnergyMin
		a.Offer.Profile[off+j].EnergyMax -= sl.EnergyMax
		a.TotalMin -= sl.EnergyMin
		a.TotalMax -= sl.EnergyMax
	}
	e := absTotalMax(m)
	a.costSum -= m.CostPerKWh * e
	a.energySum -= e
	if a.energySum > 0 {
		a.Offer.CostPerKWh = a.costSum / a.energySum
	}
	a.members = append(a.members[:i], a.members[i+1:]...)
}

// rebuildWith replaces the aggregate contents with a from-scratch build
// over the given members, in ID order, preserving identity (Offer.ID)
// and Version.
// Returns false when members is empty (the aggregate died).
func (a *Aggregate) rebuildWith(members []*flexoffer.FlexOffer) bool {
	if len(members) == 0 {
		a.members = a.members[:0]
		return false
	}
	nb := buildAggregate(a.Offer.ID, members)
	nb.Version = a.Version
	*a = *nb
	return true
}

// retire empties an aggregate that lost every member in one batch, the
// state applyBatch leaves it in: no members, Version bumped once.
func (a *Aggregate) retire() {
	a.Version++
	a.members = a.members[:0]
}

// applyBatch applies one batch of member additions and removals as a
// single transaction: at worst one from-scratch rebuild for the whole
// batch (when a removed member owns a boundary or the drift budget is
// spent), pure deltas otherwise. The Version is bumped exactly once per
// mutating batch. added must be in ID order. Returns false when
// the aggregate has no members left.
func (a *Aggregate) applyBatch(added, removed []*flexoffer.FlexOffer) bool {
	mutated := false
	for i, off := range removed {
		idx := a.memberIndex(off.ID)
		if idx < 0 {
			continue // not a member: nothing to remove, no rebuild
		}
		if !mutated {
			mutated = true
			a.Version++
		}
		if a.deltaOps >= aggResyncEvery || a.ownsBoundary(a.members[idx]) {
			// One rebuild covers the rest of the batch: drop every
			// still-pending removal, merge the additions, build once.
			rest := make(map[flexoffer.ID]bool, len(removed)-i)
			for _, r := range removed[i:] {
				rest[r.ID] = true
			}
			survivors := make([]*flexoffer.FlexOffer, 0, len(a.members)-1+len(added))
			for _, m := range a.members {
				if !rest[m.ID] {
					survivors = append(survivors, m)
				}
			}
			survivors = append(survivors, added...)
			slices.SortFunc(survivors, byOfferID)
			return a.rebuildWith(survivors)
		}
		a.removeDeltaAt(idx)
		a.deltaOps++
	}
	if len(added) > 0 && !mutated {
		a.Version++
	}
	if len(a.members) == 0 {
		// Emptied (can only happen defensively — the last member always
		// owns every boundary) and possibly refilled within the batch.
		return a.rebuildWith(append([]*flexoffer.FlexOffer(nil), added...))
	}
	for _, m := range added {
		a.add(m)
		a.deltaOps++
	}
	return true
}

// refreshTotals recomputes the cached energy bounds by traversing the
// whole combined profile.
func (a *Aggregate) refreshTotals() {
	var mn, mx float64
	for _, sl := range a.Offer.Profile {
		mn += sl.EnergyMin
		mx += sl.EnergyMax
	}
	a.TotalMin, a.TotalMax = mn, mx
}

func absTotalMax(m *flexoffer.FlexOffer) float64 {
	e := m.MaxTotalEnergy()
	if e < 0 {
		return -e
	}
	return e
}

// Disaggregate converts a schedule of the aggregate into one valid
// schedule per member (the paper's disaggregation requirement). The
// member schedules sum exactly to the aggregate schedule, slot by slot.
func (a *Aggregate) Disaggregate(sched *flexoffer.Schedule) ([]*flexoffer.Schedule, error) {
	if err := a.Offer.ValidateSchedule(sched); err != nil {
		return nil, fmt.Errorf("agg: aggregate schedule invalid: %w", err)
	}
	shift := sched.Start - a.Offer.EarliestStart

	// The member schedules live in one block and their energies, with
	// the fractions below, in another, so an aggregate costs the
	// collector three objects, not two per member.
	slots := 0
	for _, m := range a.members {
		slots += m.NumSlices()
	}
	block := make([]flexoffer.Schedule, len(a.members))
	energies := make([]float64, slots+len(a.Offer.Profile))
	out := make([]*flexoffer.Schedule, len(a.members))

	// Per aggregate slice, the fraction of the energy flexibility used:
	// fraction_j = (E_j − Min_j) / (Max_j − Min_j). Every member slice
	// under that aggregate slice is set to min + fraction·(max−min);
	// summing over members reproduces E_j exactly.
	fractions := energies[slots:]
	for j, sl := range a.Offer.Profile {
		if flex := sl.EnergyMax - sl.EnergyMin; flex > 0 {
			fractions[j] = (sched.Energy[j] - sl.EnergyMin) / flex
			if fractions[j] < 0 {
				fractions[j] = 0
			}
			if fractions[j] > 1 {
				fractions[j] = 1
			}
		}
	}

	for i, m := range a.members {
		off := int(m.EarliestStart - a.Offer.EarliestStart)
		n := m.NumSlices()
		energy := energies[:n:n]
		energies = energies[n:]
		for j, sl := range m.Profile {
			f := fractions[off+j]
			energy[j] = sl.EnergyMin + f*(sl.EnergyMax-sl.EnergyMin)
		}
		ms := &block[i]
		*ms = flexoffer.Schedule{OfferID: m.ID, Start: m.EarliestStart + shift, Energy: energy}
		if err := m.ValidateSchedule(ms); err != nil {
			// Cannot happen by construction; kept as an internal
			// consistency check.
			return nil, fmt.Errorf("agg: disaggregation produced invalid member schedule: %w", err)
		}
		out[i] = ms
	}
	return out, nil
}
