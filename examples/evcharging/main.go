// EV charging: the paper's §2 use scenario, step by step, over the
// in-process transport.
//
// Step 1. A consumer arrives home at 10pm and plugs in the electric car;
// charging must finish by 7am.
// Step 2. The prosumer node issues a flex-offer: 2h profile, earliest
// start 10pm, latest start 5am.
// Step 3. The trader (BRP) node schedules the flex-offer onto the night
// wind surplus and notifies the prosumer.
// Step 4. The consumer's node starts charging at the scheduled time; had
// no schedule arrived by the deadline, it would fall back to charging
// immediately (the open contract).
//
//	go run ./examples/evcharging
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"mirabel/internal/agg"
	"mirabel/internal/comm"
	"mirabel/internal/core"
	"mirabel/internal/flexoffer"
	"mirabel/internal/sched"
	"mirabel/internal/store"
)

func slotClock(slot flexoffer.Time) string {
	minutes := int(slot) * flexoffer.SlotMinutes
	return fmt.Sprintf("%02d:%02d (day %d)", minutes/60%24, minutes%60, minutes/60/24)
}

func main() {
	ctx := context.Background()
	bus := comm.NewBus()

	brp, err := core.NewNode(core.Config{
		Name: "trader", Role: store.RoleBRP, Transport: bus,
		AggParams: agg.ParamsP3,
		SchedOpts: sched.Options{TimeBudget: 200 * time.Millisecond, Seed: 1},
		// Planning horizon: two days, covering tonight and tomorrow
		// morning.
		HorizonSlots: 2 * flexoffer.SlotsPerDay,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer brp.Close()
	bus.Register("trader", brp.Handler())

	household, err := core.NewNode(core.Config{
		Name: "household-17", Role: store.RoleProsumer, Parent: "trader", Transport: bus,
	})
	if err != nil {
		log.Fatal(err)
	}
	bus.Register("household-17", household.Handler())

	// Step 0: before issuing anything, the household's typed client
	// checks that the trader is alive.
	rpc := comm.NewClient("household-17", bus, comm.WithRequestTimeout(time.Second))
	if err := rpc.Ping(ctx, "trader"); err != nil {
		log.Fatalf("trader unreachable: %v", err)
	}
	fmt.Println("step 0: trader responds to ping — fabric is up")

	// Step 1+2: the EV needs 8 slots (2 h) × 6.25 kWh = 50 kWh, earliest
	// start 22:00 (slot 88), latest start 05:00 next day (slot 116), so
	// it finishes by 07:00.
	profile := make([]flexoffer.Slice, 8)
	for i := range profile {
		profile[i] = flexoffer.Slice{EnergyMin: 0, EnergyMax: 6.25}
	}
	evOffer := &flexoffer.FlexOffer{
		ID:            1,
		Prosumer:      "household-17",
		EarliestStart: 88,
		LatestStart:   96 + 20,
		AssignBefore:  86, // the BRP must answer before 21:30
		Profile:       profile,
	}
	fmt.Printf("step 2: flex-offer issued — window %s … %s, %g kWh max\n",
		slotClock(evOffer.EarliestStart), slotClock(evOffer.LatestStart), evOffer.MaxTotalEnergy())

	decision, err := household.SubmitOfferTo(ctx, evOffer)
	if err != nil {
		log.Fatal(err)
	}
	if !decision.Accept {
		log.Fatalf("BRP rejected the offer: %s", decision.Reason)
	}
	fmt.Printf("        trader accepted, flexibility premium %.3f EUR/kWh\n", decision.PremiumEUR)

	// Step 3: the trader's weather service forecasts strong night wind
	// between 02:00 and 05:00 (slots 104..116 = day 1): RES surplus.
	baseline := make([]float64, 2*flexoffer.SlotsPerDay)
	for t := range baseline {
		baseline[t] = 2 // mild non-flexible deficit all day
		if t >= 104 && t < 116 {
			baseline[t] = -9 // night wind surplus
		}
	}
	rep, err := brp.RunSchedulingCycle(ctx, 80, core.StaticForecast(baseline[80:]), nil, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("step 3: trader scheduled %d offer(s); cost %.1f EUR (unscheduled: %.1f EUR)\n",
		rep.MicroSchedules, rep.ScheduleCost, rep.BaselineCost)

	// Step 4: the household receives the schedule (or falls back).
	var schedule *flexoffer.Schedule
	for deadline := time.Now().Add(2 * time.Second); time.Now().Before(deadline); {
		if schedule = household.ScheduleFor(evOffer, 85); schedule != nil {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if schedule == nil {
		// The graceful path: deadline passed without an answer.
		schedule = household.ScheduleFor(evOffer, evOffer.AssignBefore)
		fmt.Println("step 4: no schedule arrived — falling back to immediate charging")
	}
	if err := evOffer.ValidateSchedule(schedule); err != nil {
		log.Fatalf("invalid schedule: %v", err)
	}
	fmt.Printf("step 4: charging starts at %s, ends by %s, %0.f kWh delivered\n",
		slotClock(schedule.Start), slotClock(schedule.Start+flexoffer.Time(len(schedule.Energy))), schedule.TotalEnergy())
	if schedule.Start >= 104 && schedule.Start < 116 {
		fmt.Println("        → the EV charges on the night wind surplus, as in the paper's Figure 3")
	}
}
