package devices

import (
	"math/rand"
	"sync/atomic"

	"mirabel/internal/flexoffer"
)

// Household bundles a set of appliances behind one prosumer meter.
type Household struct {
	Name       string
	appliances []Appliance
	rng        *rand.Rand
}

// HouseholdConfig selects a household's equipment.
type HouseholdConfig struct {
	Name string
	// HasEV, HasDishwasher, HasWasher, HasSolar toggle the flexible
	// devices; base load is always present.
	HasEV, HasDishwasher, HasWasher, HasSolar bool
	// Seed drives the household's random source.
	Seed int64
}

// idCounter hands out flex-offer IDs base+1, base+2, ...
type idCounter struct {
	base uint64
	n    atomic.Uint64
}

func (c *idCounter) next() flexoffer.ID { return flexoffer.ID(c.base + c.n.Add(1)) }

// householdIDBits sizes the ID block NewFleet reserves per household.
const householdIDBits = 16

// NewHousehold assembles a household. ids provides its flex-offer IDs,
// which must be unique across the fleet.
func NewHousehold(cfg HouseholdConfig, ids *idCounter) *Household {
	h := &Household{
		Name: cfg.Name,
		rng:  rand.New(rand.NewSource(cfg.Seed)),
	}
	h.appliances = append(h.appliances, &BaseLoad{})
	if cfg.HasEV {
		h.appliances = append(h.appliances, &EVCharger{nextID: ids.next})
	}
	if cfg.HasDishwasher {
		h.appliances = append(h.appliances, &WetAppliance{
			Class: "dishwasher", PreferHour: 20, UseProb: 0.7,
			ProgramSlots: 6, KWhPerSlot: 0.3, FlexHours: 8,
			nextID: ids.next,
		})
	}
	if cfg.HasWasher {
		h.appliances = append(h.appliances, &WetAppliance{
			Class: "washing-machine", PreferHour: 9, UseProb: 0.5,
			ProgramSlots: 5, KWhPerSlot: 0.4, FlexHours: 6,
			nextID: ids.next,
		})
	}
	if cfg.HasSolar {
		h.appliances = append(h.appliances, &SolarPanel{nextID: ids.next})
	}
	return h
}

// Tick advances all appliances one slot, tagging issued offers with the
// household name.
func (h *Household) Tick(slot flexoffer.Time) (offers []*flexoffer.FlexOffer, nonFlexKWh float64) {
	for _, a := range h.appliances {
		ev := a.Tick(slot, h.rng)
		nonFlexKWh += ev.NonFlexKWh
		if ev.Offer != nil {
			ev.Offer.Prosumer = h.Name
			offers = append(offers, ev.Offer)
		}
	}
	return offers, nonFlexKWh
}

// Fleet is a population of households.
type Fleet struct {
	Households []*Household
}

// NewFleet builds n households with a realistic equipment mix: 40% EVs,
// 70% dishwashers, 80% washers, 25% solar. Each household draws its
// flex-offer IDs from a block of its own, so an offer's ID depends on
// that household's history alone — not on how a driver that ticks
// households from several goroutines happens to interleave them.
func NewFleet(n int, seed int64) *Fleet {
	f := &Fleet{}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		cfg := HouseholdConfig{
			Name:          fleetName(i),
			HasEV:         rng.Float64() < 0.40,
			HasDishwasher: rng.Float64() < 0.70,
			HasWasher:     rng.Float64() < 0.80,
			HasSolar:      rng.Float64() < 0.25,
			Seed:          rng.Int63(),
		}
		f.Households = append(f.Households, NewHousehold(cfg, &idCounter{base: uint64(i+1) << householdIDBits}))
	}
	return f
}

func fleetName(i int) string {
	const digits = "0123456789"
	buf := []byte("household-00000")
	for p := len(buf) - 1; i > 0 && p >= len("household-"); p-- {
		buf[p] = digits[i%10]
		i /= 10
	}
	return string(buf)
}
