package sched

import (
	"fmt"
	"math"
	"math/rand"

	"mirabel/internal/flexoffer"
	"mirabel/internal/market"
)

// ScenarioConfig describes an intra-day scheduling scenario like the
// paper's Figure 6 experiments ("four different intra-day scheduling
// scenarios with 10, 100, 1000 and 10000 aggregated flex-offers").
type ScenarioConfig struct {
	// Offers is the number of aggregated flex-offers.
	Offers int
	// Slots is the horizon (default one day, 96 slots).
	Slots int
	// Seed drives the generator.
	Seed int64
	// MeanEnergyKWh is the mean max energy per offer slice (default 50 —
	// macro flex-offers bundle many households).
	MeanEnergyKWh float64
	// RESFraction scales the renewable surplus the flexible demand
	// should soak up (default 0.6 of total flexible energy).
	RESFraction float64
	// Market optionally attaches a market.
	Market *market.DayAhead
}

// maxScenarioTF caps a scenario offer's time flexibility: 24 slots = 6 h.
const maxScenarioTF = 24

// BuildScenario generates a self-contained scheduling problem: a
// baseline with RES surplus humps and deficit ridges, peak-weighted
// imbalance prices and a population of aggregated flex-offers whose
// placement matters.
func BuildScenario(cfg ScenarioConfig) (*Problem, error) {
	if cfg.Offers <= 0 {
		return nil, fmt.Errorf("sched: scenario needs offers, got %d", cfg.Offers)
	}
	if cfg.Slots <= 0 {
		cfg.Slots = flexoffer.SlotsPerDay
	}
	if cfg.MeanEnergyKWh == 0 {
		cfg.MeanEnergyKWh = 50
	}
	if cfg.RESFraction == 0 {
		cfg.RESFraction = 0.6
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	offers := make([]*flexoffer.FlexOffer, cfg.Offers)
	var totalFlexEnergy float64
	for i := range offers {
		slices := 2 + rng.Intn(6)
		maxStart := cfg.Slots - slices
		es := rng.Intn(maxStart + 1)
		tf := rng.Intn(maxStart - es + 1)
		tf = min(tf, maxScenarioTF)
		profile := make([]flexoffer.Slice, slices)
		for j := range profile {
			e := cfg.MeanEnergyKWh * (0.5 + rng.Float64())
			profile[j] = flexoffer.Slice{EnergyMin: 0.3 * e, EnergyMax: e}
			totalFlexEnergy += e
		}
		offers[i] = &flexoffer.FlexOffer{
			ID:            flexoffer.ID(i + 1),
			EarliestStart: flexoffer.Time(es),
			LatestStart:   flexoffer.Time(es + tf),
			Profile:       profile,
			CostPerKWh:    0.005 + 0.01*rng.Float64(),
		}
	}

	// Baseline: the RES forecast exceeds non-flexible demand in a few
	// windows (negative baseline = surplus to soak up) and falls short
	// elsewhere.
	baseline := make([]float64, cfg.Slots)
	surplusPerSlot := cfg.RESFraction * totalFlexEnergy / float64(cfg.Slots)
	for t := range baseline {
		phase := float64(t) / float64(cfg.Slots)
		// Two RES humps (night wind, midday sun) against a demand ridge.
		res := 1.8 * surplusPerSlot * (gaussShape(phase, 0.15, 0.08) + gaussShape(phase, 0.55, 0.10))
		dem := 1.2 * surplusPerSlot * gaussShape(phase, 0.75, 0.07)
		baseline[t] = dem - res + surplusPerSlot*0.2*rng.NormFloat64()
	}

	// Peak-weighted imbalance prices: evening slots are expensive.
	prices := make([]float64, cfg.Slots)
	for t := range prices {
		phase := float64(t) / float64(cfg.Slots)
		prices[t] = 0.10 + 0.15*gaussShape(phase, 0.75, 0.10)
	}

	p := &Problem{
		Start:          0,
		Slots:          cfg.Slots,
		Baseline:       baseline,
		ImbalancePrice: prices,
		Offers:         offers,
		Market:         cfg.Market,
	}
	return p, p.Validate()
}

func gaussShape(x, mu, sigma float64) float64 {
	d := (x - mu) / sigma
	if d < 0 {
		d = -d
	}
	if d > 4 {
		return 0
	}
	return math.Exp(-0.5 * d * d)
}
