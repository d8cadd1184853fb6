// BRP intra-day balancing: the full LEDMS loop of a trader node.
//
// A balance responsible party forecasts its balance group's demand (HWT
// fitted with Random-Restart Nelder-Mead) and its wind production,
// collects flex-offers from hundreds of prosumers over the in-process
// transport, negotiates prices, aggregates, schedules against the
// forecast with market trading enabled, disaggregates, and reports the
// cost structure plus a profit-sharing settlement.
//
//	go run ./examples/brpbalancing
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
	"mirabel/internal/forecast"
	"mirabel/internal/market"
	"mirabel/internal/negotiate"
	"mirabel/internal/optimize"
	"mirabel/internal/sched"
	"mirabel/internal/store"
	"mirabel/internal/workload"
)

func main() {
	const (
		days      = 28
		prosumers = 300
	)

	// --- Forecasting -----------------------------------------------------
	// 28 days of history; fit on the first 27, plan day 28.
	demand := workload.DemandSeries(workload.DemandConfig{Days: days, Seed: 3, BaseMW: 400})
	wind := workload.WindSeries(workload.WindConfig{Days: days, Seed: 3, CapacityMW: 260})
	histSlots := (days - 1) * 48

	fitCfg := forecast.FitConfig{
		Estimator: &optimize.RandomRestartNelderMead{},
		Options:   optimize.Options{MaxEvaluations: 400, Seed: 1},
	}
	t0 := time.Now()
	demandModel, demandFit, err := forecast.FitHWT(demand.Values()[:histSlots], []int{48, 336}, fitCfg)
	if err != nil {
		log.Fatal(err)
	}
	windModel, windFit, err := forecast.FitHWT(wind.Values()[:histSlots], []int{48, 336}, fitCfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("forecast models fitted in %v (demand SMAPE %.4f, wind SMAPE %.4f)\n",
		time.Since(t0).Round(time.Millisecond), demandFit.Value, windFit.Value)

	// The series are half-hourly; the flex-offer grid is 15-minute. Split
	// each half-hour forecast value across its two slots.
	demandFc := expandToSlots(demandModel.Forecast(48))
	windFc := expandToSlots(windModel.Forecast(48))

	// --- Market ----------------------------------------------------------
	prices := workload.PriceSeries(workload.PriceConfig{Days: days + 1, Seed: 2})
	dayAhead, err := market.NewDayAhead(market.Config{Prices: prices, CapacityKWh: 3000})
	if err != nil {
		log.Fatal(err)
	}

	// --- Nodes -----------------------------------------------------------
	ctx := context.Background()
	bus := comm.NewBus()
	valuator := negotiate.NewValuator()
	brp, err := core.NewNode(core.Config{
		Name: "brp-north", Role: store.RoleBRP, Transport: bus,
		AggParams: agg.ParamsP3,
		Valuator:  valuator,
		Scheduler: &sched.RandomizedGreedy{},
		SchedOpts: sched.Options{TimeBudget: 2 * time.Second, Seed: 11},
		Market:    dayAhead,
		// Plan day 28 (slots are counted from the epoch).
		HorizonSlots: flexoffer.SlotsPerDay,
		// Serve MsgForecastRequest queries from the fitted demand model.
		Forecast: core.StaticForecast(demandFc),
	})
	if err != nil {
		log.Fatal(err)
	}
	defer brp.Close()
	bus.Register("brp-north", brp.Handler())

	// Prosumer offers for day 28.
	day28 := flexoffer.Time((days - 1) * flexoffer.SlotsPerDay)
	offers := workload.GenerateFlexOffers(workload.FlexOfferConfig{
		Count: prosumers, HorizonDays: 1, Seed: 5,
	})
	accepted, rejected := 0, 0
	for i, f := range offers {
		name := fmt.Sprintf("prosumer-%03d", i)
		p, err := core.NewNode(core.Config{Name: name, Role: store.RoleProsumer, Parent: "brp-north", Transport: bus})
		if err != nil {
			log.Fatal(err)
		}
		bus.Register(name, p.Handler())
		// Move the offer into day 28 and keep it inside the horizon.
		shift := day28 - flexoffer.Time(int(f.EarliestStart)/flexoffer.SlotsPerDay*flexoffer.SlotsPerDay)
		f.EarliestStart += shift
		f.LatestStart += shift
		f.AssignBefore += shift
		if f.LatestEnd() > day28+flexoffer.SlotsPerDay {
			f.LatestStart = day28 + flexoffer.SlotsPerDay - flexoffer.Time(f.NumSlices())
			if f.LatestStart < f.EarliestStart {
				continue // does not fit the day at all
			}
		}
		d, err := p.SubmitOfferTo(ctx, f)
		if err != nil {
			log.Fatal(err)
		}
		if d.Accept {
			accepted++
		} else {
			rejected++
		}
	}
	fmt.Printf("negotiation: %d offers accepted, %d rejected\n", accepted, rejected)

	// Any node can query the BRP's forecast through the typed client —
	// the paper's explicit forecast exchange between nodes.
	rpc := comm.NewClient("analyst", bus, comm.WithRequestTimeout(time.Second))
	fcReply, err := rpc.QueryForecast(ctx, "brp-north", "demand", 8)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("forecast query: brp-north expects %.1f MW demand over the next %d slots\n",
		fcReply.Values[0], len(fcReply.Values))

	// --- Scheduling cycle --------------------------------------------------
	imbPrices := make([]float64, flexoffer.SlotsPerDay)
	for t := range imbPrices {
		q := dayAhead.Quote(day28 + flexoffer.Time(t))
		imbPrices[t] = 2.5 * q.BuyEUR // imbalances cost a multiple of spot
	}
	baseline := make([]float64, flexoffer.SlotsPerDay)
	for t := range baseline {
		// MW over 15 min → kWh/4; demand minus wind production.
		baseline[t] = (demandFc[t] - windFc[t]) * 1000 / 4 / 1000 // scale to the group (≈ MWh→kWh/1000 group share)
	}
	rep, err := brp.RunSchedulingCycle(ctx, day28, core.StaticForecast(baseline), nil, imbPrices)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("cycle: %d micro offers → %d aggregates, %d expired before scheduling (aggregation %v)\n",
		rep.Offers, rep.Aggregates, rep.Expired, rep.AggregationTime.Round(time.Millisecond))
	fmt.Printf("schedule cost %.1f EUR vs %.1f EUR without flexibility (%.1f%% saved, scheduling %v)\n",
		rep.ScheduleCost, rep.BaselineCost, 100*(1-rep.ScheduleCost/rep.BaselineCost),
		rep.SchedulingTime.Round(time.Millisecond))
	fmt.Printf("%d micro schedules disaggregated and delivered (%d unreachable)\n",
		rep.MicroSchedules, rep.NotifyFailures)

	// --- Settlement ---------------------------------------------------------
	share, err := negotiate.ShareRealizedProfit(rep.BaselineCost, rep.ScheduleCost, 0.3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("profit sharing: %.1f EUR distributed to prosumers (30%% of realized savings)\n", share)
}

// expandToSlots splits half-hourly values into two 15-minute slots each.
func expandToSlots(halfHourly []float64) []float64 {
	out := make([]float64, 2*len(halfHourly))
	for i, v := range halfHourly {
		out[2*i] = v
		out[2*i+1] = v
	}
	return out
}
