// Quickstart: the MIRABEL pipeline in one file.
//
// A BRP receives 5 000 micro flex-offers, aggregates them into macro
// flex-offers (group-builder → n-to-1 aggregator), schedules the macro
// flex-offers against a renewable surplus, disaggregates the schedule
// back into one valid schedule per micro flex-offer, and verifies every
// constraint.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"math"
	"time"

	"mirabel/internal/agg"
	"mirabel/internal/flexoffer"
	"mirabel/internal/sched"
	"mirabel/internal/workload"
)

func main() {
	// 1. A day of micro flex-offers from household devices.
	offers := workload.GenerateFlexOffers(workload.FlexOfferConfig{
		Count:       5000,
		HorizonDays: 1,
		Seed:        42,
	})
	fmt.Printf("generated %d micro flex-offers\n", len(offers))

	// 2. Aggregate with the P3 thresholds (2h start-after and
	// time-flexibility tolerance).
	pipeline := agg.NewPipeline(agg.ParamsP3)
	updates := make([]agg.FlexOfferUpdate, len(offers))
	for i, f := range offers {
		updates[i] = agg.FlexOfferUpdate{Kind: agg.Insert, Offer: f}
	}
	t0 := time.Now()
	if err := pipeline.Apply(updates...); err != nil {
		log.Fatal(err)
	}
	m := pipeline.CurrentMetrics()
	fmt.Printf("aggregated to %d macro flex-offers in %v (compression %.1fx, flexibility loss %.2f slots/offer)\n",
		m.Aggregates, time.Since(t0).Round(time.Millisecond), m.CompressionRatio, m.LossPerOffer)

	// 3. Schedule the macro flex-offers against a baseline with a
	// renewable surplus at night and midday.
	aggregates := pipeline.Aggregates()
	macro := make([]*flexoffer.FlexOffer, 0, len(aggregates))
	horizon := 2 * flexoffer.SlotsPerDay // offers may run into the next morning
	var maxEnd flexoffer.Time
	for _, a := range aggregates {
		if a.Offer.LatestEnd() > maxEnd {
			maxEnd = a.Offer.LatestEnd()
		}
		macro = append(macro, a.Offer)
	}
	if int(maxEnd) > horizon {
		horizon = int(maxEnd)
	}

	baseline := make([]float64, horizon)
	prices := make([]float64, horizon)
	for t := range baseline {
		hour := float64(t%flexoffer.SlotsPerDay) / flexoffer.SlotsPerHour
		// Wind at night, sun at midday: surplus to soak up.
		switch {
		case hour < 6:
			baseline[t] = -220
		case hour > 11 && hour < 15:
			baseline[t] = -180
		default:
			baseline[t] = 40
		}
		prices[t] = 0.10
		if hour >= 17 && hour <= 20 {
			prices[t] = 0.25 // evening peak mismatches hurt
		}
	}

	problem := &sched.Problem{
		Start:          0,
		Slots:          horizon,
		Baseline:       baseline,
		ImbalancePrice: prices,
		Offers:         macro,
	}
	fmt.Printf("scheduling %d macro flex-offers (search space: %.3g start combinations)\n",
		len(macro), problem.CountSolutions())

	greedy := &sched.RandomizedGreedy{}
	res, err := greedy.Schedule(context.Background(), problem, sched.Options{TimeBudget: 2 * time.Second, Seed: 7})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("schedule cost %.0f EUR vs %.0f EUR unscheduled (%.0f%% saved) after %d greedy restarts\n",
		res.Cost, problem.BaselineCost(), 100*(1-res.Cost/problem.BaselineCost()), res.Iterations)

	// 4. Disaggregate and verify the disaggregation requirement: every
	// micro flex-offer gets exactly one valid schedule, and the micro
	// schedules sum to the macro schedules slot by slot.
	macroScheds := problem.Schedules(res.Solution)
	micro, err := pipeline.Disaggregate(macroScheds)
	if err != nil {
		log.Fatal(err)
	}
	byID := make(map[flexoffer.ID]*flexoffer.FlexOffer, len(offers))
	for _, f := range offers {
		byID[f.ID] = f
	}
	for _, s := range micro {
		f, ok := byID[s.OfferID]
		if !ok {
			log.Fatalf("disaggregation produced a schedule for offer %d, which is unknown or already scheduled", s.OfferID)
		}
		delete(byID, s.OfferID)
		if err := f.ValidateSchedule(s); err != nil {
			log.Fatalf("disaggregation violated a constraint: %v", err)
		}
	}
	if len(byID) > 0 {
		log.Fatalf("disaggregation left %d of %d offers unscheduled", len(byID), len(offers))
	}
	const tolKWh = 1e-6
	perSlot := make(map[flexoffer.Time]float64)
	for _, s := range macroScheds {
		for j, e := range s.Energy {
			perSlot[s.Start+flexoffer.Time(j)] += e
		}
	}
	for _, s := range micro {
		for j, e := range s.Energy {
			perSlot[s.Start+flexoffer.Time(j)] -= e
		}
	}
	var worst float64
	for t, d := range perSlot {
		if math.Abs(d) > tolKWh {
			log.Fatalf("slot %d: micro schedules differ from the macro schedule by %g kWh", t, d)
		}
		worst = math.Max(worst, math.Abs(d))
	}
	fmt.Printf("disaggregated into %d micro schedules — one per offer, every flex-offer constraint satisfied\n", len(micro))
	fmt.Printf("micro schedules sum to the macro schedule in every slot (worst slot off by %.1g kWh)\n", worst)
}
