package devices

import (
	"math/rand"
	"testing"
	"testing/quick"

	"mirabel/internal/flexoffer"
)

func TestEVChargerIssuesValidOvernightOffers(t *testing.T) {
	ids := &idCounter{}
	ev := &EVCharger{nextID: ids.next}
	rng := rand.New(rand.NewSource(1))
	sessions := 0
	for slot := flexoffer.Time(0); slot < 14*flexoffer.SlotsPerDay; slot++ {
		e := ev.Tick(slot, rng)
		if e.Offer == nil {
			continue
		}
		sessions++
		if err := e.Offer.Validate(); err != nil {
			t.Fatalf("slot %d: %v", slot, err)
		}
		// Issued in the evening window.
		if h := hourOf(e.Offer.EarliestStart); h < 17 || h > 23 {
			t.Errorf("offer earliest start at hour %d", h)
		}
		// Finishes by the deadline when started as late as possible.
		endHour := hourOf(e.Offer.LatestEnd())
		if endHour > 7 && endHour < 17 {
			t.Errorf("latest end at hour %d, must be by 7am", endHour)
		}
		if e.Offer.MaxTotalEnergy() != 50 {
			t.Errorf("energy = %g", e.Offer.MaxTotalEnergy())
		}
	}
	if sessions < 5 {
		t.Errorf("only %d charging sessions in 2 weeks", sessions)
	}
}

func TestEVChargerNoDoublePlug(t *testing.T) {
	ids := &idCounter{}
	ev := &EVCharger{nextID: ids.next}
	rng := rand.New(rand.NewSource(2))
	var lastOffer flexoffer.Time = -1
	for slot := flexoffer.Time(0); slot < 30*flexoffer.SlotsPerDay; slot++ {
		if e := ev.Tick(slot, rng); e.Offer != nil {
			if lastOffer >= 0 && slot-lastOffer < 8 {
				t.Fatalf("second offer %d slots after the first — car was still plugged", slot-lastOffer)
			}
			lastOffer = slot
		}
	}
}

func TestWetApplianceOncePerDay(t *testing.T) {
	ids := &idCounter{}
	w := &WetAppliance{
		Class: "dishwasher", PreferHour: 20, UseProb: 0.9,
		ProgramSlots: 6, KWhPerSlot: 0.3, FlexHours: 8,
		nextID: ids.next,
	}
	rng := rand.New(rand.NewSource(3))
	perDay := map[int]int{}
	for slot := flexoffer.Time(0); slot < 30*flexoffer.SlotsPerDay; slot++ {
		if e := w.Tick(slot, rng); e.Offer != nil {
			if err := e.Offer.Validate(); err != nil {
				t.Fatal(err)
			}
			perDay[dayOf(slot)]++
			if tf := e.Offer.TimeFlexibility(); tf != 8*flexoffer.SlotsPerHour {
				t.Errorf("time flexibility = %d slots", tf)
			}
		}
	}
	for day, n := range perDay {
		if n > 1 {
			t.Errorf("day %d: %d dishwasher runs", day, n)
		}
	}
	if len(perDay) < 15 {
		t.Errorf("only %d usage days of 30 at 90%% probability", len(perDay))
	}
}

func TestSolarPanelProducesAndOffersCurtailment(t *testing.T) {
	ids := &idCounter{}
	s := &SolarPanel{nextID: ids.next}
	rng := rand.New(rand.NewSource(4))
	var production float64
	offers := 0
	for slot := flexoffer.Time(0); slot < 7*flexoffer.SlotsPerDay; slot++ {
		e := s.Tick(slot, rng)
		if e.NonFlexKWh > 0 {
			t.Fatalf("solar panel consumed energy at slot %d", slot)
		}
		production += -e.NonFlexKWh
		if e.Offer != nil {
			offers++
			if err := e.Offer.Validate(); err != nil {
				t.Fatal(err)
			}
			if e.Offer.MinTotalEnergy() >= 0 {
				t.Error("curtailment offer is not production (negative)")
			}
		}
	}
	if production <= 0 {
		t.Error("no solar production in a week")
	}
	if offers != 7 {
		t.Errorf("curtailment offers = %d, want one per day", offers)
	}
}

func TestBaseLoadShape(t *testing.T) {
	b := &BaseLoad{}
	rng := rand.New(rand.NewSource(5))
	var night, evening float64
	for d := 0; d < 20; d++ {
		day := flexoffer.Time(d * flexoffer.SlotsPerDay)
		night += b.Tick(day+4*flexoffer.SlotsPerHour, rng).NonFlexKWh
		evening += b.Tick(day+19*flexoffer.SlotsPerHour, rng).NonFlexKWh
	}
	if night >= evening {
		t.Errorf("night load %g >= evening load %g", night, evening)
	}
}

// tickFleet ticks every household of f through [0, slots), slot by
// slot as mirabel-sim does, and returns the offers in issue order and
// the fleet's non-flexible consumption per slot.
func tickFleet(f *Fleet, slots int) (offers []*flexoffer.FlexOffer, nonFlexKWh []float64) {
	nonFlexKWh = make([]float64, slots)
	for s := range nonFlexKWh {
		for _, h := range f.Households {
			o, kwh := h.Tick(flexoffer.Time(s))
			offers = append(offers, o...)
			nonFlexKWh[s] += kwh
		}
	}
	return offers, nonFlexKWh
}

func TestFleetSimulation(t *testing.T) {
	f := NewFleet(50, 6)
	if len(f.Households) != 50 {
		t.Fatalf("households = %d", len(f.Households))
	}
	offers, _ := tickFleet(f, 2*flexoffer.SlotsPerDay)
	if len(offers) == 0 {
		t.Fatal("no offers from a 50-household fleet over 2 days")
	}
	ids := map[flexoffer.ID]bool{}
	for _, off := range offers {
		if err := off.Validate(); err != nil {
			t.Fatalf("invalid offer: %v", err)
		}
		if ids[off.ID] {
			t.Fatalf("duplicate offer id %d across the fleet", off.ID)
		}
		ids[off.ID] = true
		if off.Prosumer == "" {
			t.Error("offer without prosumer tag")
		}
	}
}

func TestFleetDeterministic(t *testing.T) {
	aOffers, aKWh := tickFleet(NewFleet(10, 7), flexoffer.SlotsPerDay)
	bOffers, bKWh := tickFleet(NewFleet(10, 7), flexoffer.SlotsPerDay)
	if len(aOffers) != len(bOffers) {
		t.Fatalf("offer counts differ: %d vs %d", len(aOffers), len(bOffers))
	}
	for i := range aKWh {
		if aKWh[i] != bKWh[i] {
			t.Fatal("baseline differs for identical seeds")
		}
	}
}

func TestFleetNames(t *testing.T) {
	if got := fleetName(0); got != "household-00000" {
		t.Errorf("fleetName(0) = %q", got)
	}
	if got := fleetName(123); got != "household-00123" {
		t.Errorf("fleetName(123) = %q", got)
	}
}

// Property: every offer any fleet produces over a random day window is
// valid and slot-consistent (assignment deadline before earliest start).
func TestPropertyFleetOffersValid(t *testing.T) {
	f := func(seed int64, nHouseholds uint8) bool {
		n := int(nHouseholds)%20 + 1
		offers, _ := tickFleet(NewFleet(n, seed), flexoffer.SlotsPerDay)
		for _, off := range offers {
			if off.Validate() != nil {
				return false
			}
			if off.AssignBefore > off.EarliestStart {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}
