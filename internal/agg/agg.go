// Package agg implements the MIRABEL aggregation component (paper §4):
// it turns a very large set of micro flex-offers into a substantially
// smaller set of macro (aggregated) flex-offers that the scheduling
// component can handle, and disaggregates scheduled macro flex-offers
// back into valid schedules for every micro flex-offer.
//
// The component is the paper's pipeline without its optional stage:
//
//	flex-offer updates → group-builder → n-to-1 aggregator → aggregates
//
// The paper chains a bin-packer between the two that splits a group
// into sub-groups under bounds on members or energy per aggregate, calls
// it "an optional feature [that] can be turned off", and ran its
// experiments with it off. This reproduction leaves it out: every
// similarity group is exactly one aggregate, so one structure
// (Pipeline) holds both stages, and a group holds its aggregate. The
// paper's chain also ends in a stream of aggregate updates (created,
// changed, deleted) for a consumer downstream; here the planner reads
// the live aggregates instead, and an aggregate's Version is the change
// signal. The pipeline is the one index of the offers it holds, and
// a node asks it which offers are pending instead of keeping a copy.
//
// The component satisfies the paper's four requirements:
//
//   - Disaggregation requirement — any schedule of an aggregate can be
//     turned into schedules of its members that respect every original
//     constraint (guaranteed by conservative start-alignment; see
//     aggregate.go and the property tests).
//   - Compression requirement — grouping thresholds control how many
//     aggregates result.
//   - Flexibility requirement — the time-flexibility loss is measurable
//     (Metrics) and bounded by the thresholds.
//   - Efficiency requirement — aggregation is incremental: inserting or
//     deleting flex-offers changes only the aggregates of the groups
//     they touch, each once per batch, without recomputing the others;
//     an untouched aggregate keeps its Version and its Snapshot.
package agg

import (
	"fmt"

	"mirabel/internal/flexoffer"
)

// Params are the user-defined aggregation thresholds (paper §4: "duration
// tolerance, start after tolerance"). Two flex-offers may be aggregated
// together only if their attribute values deviate by no more than these
// tolerances. A zero tolerance demands exact equality; a negative
// DurationTolerance ignores the attribute entirely.
type Params struct {
	// StartAfterTolerance bounds the spread of earliest start times
	// (slots) inside one aggregate.
	StartAfterTolerance flexoffer.Time
	// TimeFlexTolerance bounds the spread of time flexibilities (slots)
	// inside one aggregate.
	TimeFlexTolerance flexoffer.Time
	// DurationTolerance bounds the spread of profile durations (slots);
	// negative means "do not group by duration".
	DurationTolerance int
}

// The four threshold combinations of the paper's aggregation experiment
// (§9): P0 demands equal start-after time and time flexibility; P1 allows
// small time-flexibility variation; P2 allows small start-after variation;
// P3 allows both. "Small" is two hours (8 slots), which spans the jitter
// of the workload generator's device classes.
var (
	ParamsP0 = Params{StartAfterTolerance: 0, TimeFlexTolerance: 0, DurationTolerance: -1}
	ParamsP1 = Params{StartAfterTolerance: 0, TimeFlexTolerance: 8, DurationTolerance: -1}
	ParamsP2 = Params{StartAfterTolerance: 8, TimeFlexTolerance: 0, DurationTolerance: -1}
	ParamsP3 = Params{StartAfterTolerance: 8, TimeFlexTolerance: 8, DurationTolerance: -1}
)

// groupKey identifies a set of flex-offers similar under Params.
type groupKey struct {
	es, tf int64
	dur    int
}

// keyOf quantizes the grouping attributes by the tolerances.
func (p Params) keyOf(f *flexoffer.FlexOffer) groupKey {
	k := groupKey{es: int64(f.EarliestStart), tf: int64(f.TimeFlexibility())}
	if p.StartAfterTolerance > 0 {
		k.es = int64(f.EarliestStart) / int64(p.StartAfterTolerance)
	}
	if p.TimeFlexTolerance > 0 {
		k.tf = int64(f.TimeFlexibility()) / int64(p.TimeFlexTolerance)
	}
	switch {
	case p.DurationTolerance < 0:
		k.dur = 0
	case p.DurationTolerance == 0:
		k.dur = f.NumSlices()
	default:
		k.dur = f.NumSlices() / (p.DurationTolerance + 1)
	}
	return k
}

// UpdateKind discriminates flex-offer updates flowing into the pipeline.
type UpdateKind int

const (
	// Insert adds a flex-offer (a newly accepted offer).
	Insert UpdateKind = iota
	// Delete removes a flex-offer (expired or withdrawn).
	Delete
)

// String implements fmt.Stringer.
func (k UpdateKind) String() string {
	switch k {
	case Insert:
		return "insert"
	case Delete:
		return "delete"
	default:
		return fmt.Sprintf("UpdateKind(%d)", int(k))
	}
}

// FlexOfferUpdate is one element of the update stream the aggregation
// component accepts ("information about accepted or expiring
// flex-offers").
type FlexOfferUpdate struct {
	Kind  UpdateKind
	Offer *flexoffer.FlexOffer
}
