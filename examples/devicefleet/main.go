// Device fleet: a day in the life of a balance group, driven by
// simulated household appliances instead of a pre-generated dataset.
//
// 200 households with EV chargers, dishwashers, washing machines and
// rooftop PV run through 24 hours: their appliances issue flex-offers as
// cars arrive and dinners finish; the non-flexible base load is metered
// slot by slot. The BRP accepts offers for tomorrow, then schedules them
// onto tomorrow's expected net load.
//
//	go run ./examples/devicefleet
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"mirabel/internal/agg"
	"mirabel/internal/core"
	"mirabel/internal/devices"
	"mirabel/internal/flexoffer"
	"mirabel/internal/sched"
	"mirabel/internal/store"
)

func main() {
	fleet := devices.NewFleet(200, 11)

	// Day 0: appliances run, offers accumulate for the next day.
	sim := fleet.Simulate(0, flexoffer.SlotsPerDay)
	fmt.Printf("simulated %d households for one day: %d flex-offers, %.0f kWh non-flexible net load\n",
		len(fleet.Households), len(sim.Offers), sum(sim.NonFlexKWh))

	consumption, production := 0, 0
	for _, f := range sim.Offers {
		if f.MinTotalEnergy() < 0 {
			production++
		} else {
			consumption++
		}
	}
	fmt.Printf("  %d consumption offers (EVs, wet appliances), %d production offers (PV curtailment)\n",
		consumption, production)

	// The BRP plans the window covering the offers (they reach into the
	// early morning of day 2).
	brp, err := core.NewNode(core.Config{
		Name: "brp-fleet", Role: store.RoleBRP,
		AggParams:    agg.ParamsP3,
		SchedOpts:    sched.Options{TimeBudget: time.Second, Seed: 1},
		HorizonSlots: 2 * flexoffer.SlotsPerDay,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer brp.Close()
	accepted := 0
	for _, f := range sim.Offers {
		if d := brp.AcceptOffer(f, f.Prosumer); d.Accept {
			accepted++
		}
	}
	fmt.Printf("negotiation accepted %d of %d offers\n", accepted, len(sim.Offers))

	// Tomorrow's baseline: the fleet's own base-load shape (persistence
	// forecast) minus a windy night.
	baseline := make([]float64, 2*flexoffer.SlotsPerDay)
	for t := range baseline {
		baseline[t] = sim.NonFlexKWh[t%flexoffer.SlotsPerDay]
		if hour := t / flexoffer.SlotsPerHour % 24; hour < 6 {
			baseline[t] -= 60 // night wind surplus to soak up
		}
	}
	rep, err := brp.RunSchedulingCycle(context.Background(), 0, core.StaticForecast(baseline), nil, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("cycle: %d offers → %d aggregates → cost %.0f EUR (default %.0f EUR, %.0f%% saved)\n",
		rep.Offers, rep.Aggregates, rep.ScheduleCost, rep.BaselineCost,
		100*(1-rep.ScheduleCost/rep.BaselineCost))
	fmt.Printf("%d micro schedules returned to the households\n", rep.MicroSchedules)
}

func sum(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s
}
