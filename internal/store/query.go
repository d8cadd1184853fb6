package store

import (
	"cmp"
	"slices"

	"mirabel/internal/flexoffer"
)

// MeasurementFilter selects measurement facts. Zero fields match
// everything; FromSlot/ToSlot bound the half-open slot range [From, To).
type MeasurementFilter struct {
	Actor      string
	EnergyType string
	FromSlot   flexoffer.Time
	ToSlot     flexoffer.Time // 0 = unbounded
}

// Measurements returns matching facts ordered by slot (then actor).
// The dimension filters select whole series off the measurement index
// and the slot window is a binary search per series, so the cost scales
// with the result set, not the fact table.
func (s *Store) Measurements(f MeasurementFilter) []Measurement {
	series := s.meas.match(f.Actor, f.EnergyType)
	var out []Measurement
	for _, ss := range series {
		ss.mu.RLock()
		lo, hi := ss.rangeLocked(f.FromSlot, f.ToSlot)
		for i := lo; i < hi; i++ {
			out = append(out, Measurement{
				Actor: ss.key.Actor, EnergyType: ss.key.EnergyType, Slot: ss.slots[i], KWh: ss.kwh[i],
			})
		}
		ss.mu.RUnlock()
	}
	if len(series) > 1 {
		slices.SortFunc(out, func(a, b Measurement) int {
			if c := cmp.Compare(a.Slot, b.Slot); c != 0 {
				return c
			}
			return cmp.Compare(a.Actor, b.Actor)
		})
	}
	return out
}

// OfferFilter selects flex-offer records.
type OfferFilter struct {
	Owner string
	State OfferState
}

// Offers returns matching flex-offer records in ID order. A state
// filter resolves through the by-state secondary index and fetches only
// that state's records; an owner filter is checked on each record the
// state (or, without one, the whole table) yields. Either way the ids
// are sorted before the records are fetched, so the records come out in
// ID order without being moved.
func (s *Store) Offers(f OfferFilter) []OfferRecord {
	var ids []flexoffer.ID
	if f.State != "" {
		ids = s.offerIdx.idsByState(f.State)
	} else {
		s.offers.scan(func(id flexoffer.ID, r OfferRecord) {
			if f.Owner == "" || r.Owner == f.Owner {
				ids = append(ids, id)
			}
		})
	}
	slices.Sort(ids)
	return s.fetchOffers(ids, f)
}

// fetchOffers resolves index hits to records, re-checking the filter:
// a record may have transitioned between the index read and the fetch.
func (s *Store) fetchOffers(ids []flexoffer.ID, f OfferFilter) []OfferRecord {
	out := make([]OfferRecord, 0, len(ids))
	for _, id := range ids {
		r, ok := s.offers.get(id)
		if !ok {
			continue
		}
		if f.Owner != "" && r.Owner != f.Owner {
			continue
		}
		if f.State != "" && r.State != f.State {
			continue
		}
		out = append(out, r)
	}
	return out
}

// CountOffersByState groups the offer facts by lifecycle state —
// straight off the secondary index, O(states).
func (s *Store) CountOffersByState() map[OfferState]int {
	return s.offerIdx.countByState()
}

// Stats summarizes table cardinalities (the UI component's overview).
type Stats struct {
	Measurements, Offers int
}

// Stats returns current table sizes.
func (s *Store) Stats() Stats {
	return Stats{Measurements: s.meas.count(), Offers: s.offers.length()}
}
