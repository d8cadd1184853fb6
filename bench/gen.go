package main

import (
	"fmt"
	"math"

	"mirabel/internal/comm"
	"mirabel/internal/flexoffer"
	"mirabel/internal/workload"
)

// Timeline of the generated load. A round is one day-ahead planning
// cycle: round r plans at slot firstPlanSlot + r*slotsPerRound over the
// node's default one-day horizon. The one-day step keeps every offer's
// assignment deadline at least a day-ahead gate (8 h) past the node's
// planning time at submission, so the default valuator's assignment
// potential alone clears its acceptance threshold and no offer is
// refused.
const (
	firstPlanSlot = flexoffer.Time(flexoffer.SlotsPerDay)
	slotsPerRound = flexoffer.Time(flexoffer.SlotsPerDay)
	horizonSlots  = flexoffer.SlotsPerDay

	// assignLead is workload.GenerateFlexOffers' fixed distance between
	// an offer's assignment deadline and its earliest start.
	assignLead = 2 * flexoffer.SlotsPerHour

	offerPoolSize = 20000 // base offers drawn once per seed, cycled with fresh IDs
	households    = 320   // prosumer names; each is also one measurement series
	factsPerBatch = 16    // consecutive slots of one series per measurement batch
	energyType    = "demand"
)

// planSlot is the planning time of round r.
func planSlot(r int) flexoffer.Time { return firstPlanSlot + flexoffer.Time(r)*slotsPerRound }

// generator derives every benchmark input from one seed. It is
// stateless after construction: offer k and measurement batch q are
// pure functions of (seed, k) and (seed, q), so client goroutines draw
// from it without coordination and a time-bounded run that gets further
// simply reads a longer prefix of the same sequence.
type generator struct {
	seed  int64
	pool  []*flexoffer.FlexOffer
	names [households]string
}

func newGenerator(seed int64) *generator {
	g := &generator{
		seed: seed,
		pool: workload.GenerateFlexOffers(workload.FlexOfferConfig{Count: offerPoolSize, Seed: seed}),
	}
	for i := range g.names {
		g.names[i] = fmt.Sprintf("h%04d", i)
	}
	return g
}

// offer returns the k-th offer of the run (k from 0, ID k+1), re-based
// onto the planning time planAt of the round it is submitted for.
//
// The base offer keeps its device profile, time flexibility and price
// (0.01–0.03 EUR/kWh, under the valuator's 0.04 premium ceiling); only
// its position in time changes. Its time of day is compressed into the
// part of the planning horizon where it still fits — earliest start in
// [planAt+assignLead, planAt+horizon-timeflex-duration] — so the
// offer is schedulable at planAt unless it lands on the very first
// position, where its assignment deadline equals planAt and the cycle
// expires it (see expiresAt): the generated share of offers that
// arrive too late to plan, ~2 %.
func (g *generator) offer(k int, planAt flexoffer.Time) *flexoffer.FlexOffer {
	f := *g.pool[k%len(g.pool)] // shares the read-only Profile slice
	tf := f.TimeFlexibility()
	room := horizonSlots - assignLead - int(tf) - f.NumSlices() // ≥ 32 for the default device mix
	timeOfDay := int(f.EarliestStart % flexoffer.SlotsPerDay)
	offset := timeOfDay * (room + 1) / flexoffer.SlotsPerDay
	f.ID = flexoffer.ID(k + 1)
	f.Prosumer = g.names[k%households]
	f.EarliestStart = planAt + assignLead + flexoffer.Time(offset)
	f.LatestStart = f.EarliestStart + tf
	f.AssignBefore = f.EarliestStart - assignLead
	return &f
}

// expiresAt mirrors the node's expiry rule (core.offerExpiredAt) for a
// cycle planning at now over the default horizon. The harness uses it
// only to predict counts; the node's own answer is what gets checked.
func expiresAt(f *flexoffer.FlexOffer, now flexoffer.Time) bool {
	return now >= f.AssignBefore || f.LatestStart < now || f.LatestEnd() > now+horizonSlots
}

// batch returns the q-th measurement batch of the run: factsPerBatch
// consecutive slots of one household's demand series. Batches rotate
// over the households, so every series receives its facts in slot
// order, the way a meter stream arrives.
func (g *generator) batch(q int) []comm.MeasurementReport {
	series := q % households
	first := (q / households) * factsPerBatch
	out := make([]comm.MeasurementReport, factsPerBatch)
	for i := range out {
		slot := first + i
		hour := float64(slot%flexoffer.SlotsPerDay) / flexoffer.SlotsPerHour
		shape := 0.6 + 0.4*math.Exp(-(hour-18)*(hour-18)/18) // evening household peak
		out[i] = comm.MeasurementReport{
			Actor:      g.names[series],
			EnergyType: energyType,
			Slot:       flexoffer.Time(slot),
			KWh:        0.5 * shape * (0.9 + 0.2*unit(uint64(g.seed), uint64(series), uint64(slot))),
		}
	}
	return out
}

// unit hashes its arguments to a float in [0,1) (splitmix64 finalizer),
// giving measurement noise that needs no generator state.
func unit(a, b, c uint64) float64 {
	x := a*0x9e3779b97f4a7c15 ^ b*0xbf58476d1ce4e5b9 ^ c*0x94d049bb133111eb
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return float64(x>>11) / (1 << 53)
}

// baseline is the non-flexible net position the cycles plan against: a
// midday surplus (negative = excess production) sized like the
// flexible demand of one round, so placing offers matters to the cost.
func baseline() []float64 {
	out := make([]float64, horizonSlots)
	for i := range out {
		s := math.Sin(math.Pi * float64(i) / float64(horizonSlots))
		out[i] = 200 - 1400*s*s
	}
	return out
}
