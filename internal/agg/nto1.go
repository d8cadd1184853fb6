package agg

import (
	"fmt"
	"sort"

	"mirabel/internal/flexoffer"
)

// NTo1 is the n-to-1 aggregator: it maintains exactly one aggregated
// flex-offer per similarity group and emits created/deleted/changed
// aggregate updates. It also performs disaggregation.
type NTo1 struct {
	nextID     flexoffer.ID
	aggregates map[groupKey]*Aggregate
	byAggID    map[flexoffer.ID]*Aggregate
}

// NewNTo1 returns an empty n-to-1 aggregator.
func NewNTo1() *NTo1 {
	return &NTo1{
		nextID:     1,
		aggregates: make(map[groupKey]*Aggregate),
		byAggID:    make(map[flexoffer.ID]*Aggregate),
	}
}

// process applies group deltas, each as one batched transaction on the
// one aggregate its group maps to. The deltas arrive in key order
// (GroupBuilder.Process), so new macro flex-offer IDs are assigned in a
// deterministic order.
func (n *NTo1) process(updates []groupUpdate) []AggregateUpdate {
	if len(updates) == 0 {
		return nil
	}
	out := make([]AggregateUpdate, 0, len(updates))
	for _, u := range updates {
		a, exists := n.aggregates[u.key]
		if !exists {
			if len(u.added) == 0 {
				continue // removals for an already-gone aggregate
			}
			a = buildAggregate(n.nextID, u.added)
			n.nextID++
			n.aggregates[u.key] = a
			n.byAggID[a.Offer.ID] = a
			out = append(out, AggregateUpdate{Kind: Created, Aggregate: a})
			continue
		}
		alive := false
		if u.retired {
			a.retire()
		} else {
			alive = a.applyBatch(u.added, u.removed)
		}
		if alive {
			out = append(out, AggregateUpdate{Kind: Changed, Aggregate: a})
			continue
		}
		delete(n.aggregates, u.key)
		delete(n.byAggID, a.Offer.ID)
		out = append(out, AggregateUpdate{Kind: Deleted, Aggregate: a})
	}
	return out
}

// Aggregates returns all live aggregates ordered by macro flex-offer ID.
func (n *NTo1) Aggregates() []*Aggregate {
	out := make([]*Aggregate, 0, len(n.aggregates))
	for _, a := range n.aggregates {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Offer.ID < out[j].Offer.ID })
	return out
}

// Lookup returns the aggregate with the given macro flex-offer ID.
func (n *NTo1) Lookup(id flexoffer.ID) (*Aggregate, bool) {
	a, ok := n.byAggID[id]
	return a, ok
}

// Pipeline chains group-builder and n-to-1 aggregator as in the paper
// ("these sub-components are chained so that provided flex-offer
// updates traverse them sequentially"), without the paper's optional
// bin-packer: groups map to aggregates one-to-one. Intake accumulates;
// Process runs the whole chain once per batch.
type Pipeline struct {
	GroupBuilder *GroupBuilder
	Aggregator   *NTo1
}

// NewPipeline assembles an aggregation pipeline. The BinPackerOptions
// argument is ignored and may be left out.
func NewPipeline(params Params, _ ...BinPackerOptions) *Pipeline {
	return &Pipeline{GroupBuilder: NewGroupBuilder(params), Aggregator: NewNTo1()}
}

// Accumulate validates and queues flex-offer updates without processing
// them — the intake half of the paper's accumulate-then-process design.
// On error nothing is queued.
func (p *Pipeline) Accumulate(updates ...FlexOfferUpdate) error {
	return p.GroupBuilder.Accumulate(updates...)
}

// Process pushes every accumulated update through the pipeline as one
// batch and returns the resulting aggregate updates. It cannot fail:
// all validation happened in Accumulate.
func (p *Pipeline) Process() []AggregateUpdate {
	return p.Aggregator.process(p.GroupBuilder.Process())
}

// Apply is Accumulate followed immediately by Process — the one-call
// form for tests, tools and synchronous callers.
func (p *Pipeline) Apply(updates ...FlexOfferUpdate) ([]AggregateUpdate, error) {
	if err := p.GroupBuilder.Accumulate(updates...); err != nil {
		return nil, err
	}
	return p.Process(), nil
}

// Aggregates returns the current macro flex-offers.
func (p *Pipeline) Aggregates() []*Aggregate { return p.Aggregator.Aggregates() }

// Disaggregate converts schedules of macro flex-offers into schedules of
// all their member micro flex-offers.
func (p *Pipeline) Disaggregate(scheds []*flexoffer.Schedule) ([]*flexoffer.Schedule, error) {
	var out []*flexoffer.Schedule
	for _, s := range scheds {
		a, ok := p.Aggregator.Lookup(s.OfferID)
		if !ok {
			return nil, fmt.Errorf("agg: no aggregate with id %d", s.OfferID)
		}
		ms, err := a.Disaggregate(s)
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
	for _, a := range p.Aggregator.aggregates {
		m.Aggregates++
		m.FlexOffers += a.NumMembers()
		m.TotalTimeFlexLoss += a.TimeFlexibilityLoss()
	}
	if m.Aggregates > 0 {
		m.CompressionRatio = float64(m.FlexOffers) / float64(m.Aggregates)
	}
	if m.FlexOffers > 0 {
		m.LossPerOffer = float64(m.TotalTimeFlexLoss) / float64(m.FlexOffers)
	}
	return m
}
