// Package market simulates the energy market a BRP trades on: a
// day-ahead market with hourly trading periods, peak/off-peak prices, a
// bid/ask spread and a static per-slot liquidity bound. The scheduling
// component uses it to price "energy sold to (and bought from) the
// market" (paper §6).
package market

import (
	"fmt"
	"math"
	"time"

	"mirabel/internal/flexoffer"
	"mirabel/internal/timeseries"
)

// Quote is the market's view of one time slot.
type Quote struct {
	// BuyEUR is the price the BRP pays per kWh bought.
	BuyEUR float64
	// SellEUR is the price the BRP receives per kWh sold.
	SellEUR float64
	// CapacityKWh bounds the energy tradable in the slot in each
	// direction (liquidity).
	CapacityKWh float64
}

// DayAhead is a day-ahead market simulation over hourly trading periods.
type DayAhead struct {
	prices      []float64 // EUR/MWh per hour, hour 0 = slot 0 of the epoch
	spreadFrac  float64   // (buy − sell) / |mid|
	capacityKWh float64   // per-slot liquidity
}

// Config parameterizes a day-ahead market.
type Config struct {
	// Prices is the hourly price series in EUR/MWh (e.g.
	// workload.PriceSeries). Slot 0 of the flex-offer time axis must
	// coincide with the series origin.
	Prices *timeseries.Series
	// SpreadFrac is the relative bid/ask spread around the mid price
	// (default 0.05).
	SpreadFrac float64
	// CapacityKWh is the per-slot liquidity bound (default 1e6, i.e.
	// effectively unbounded for household-scale scenarios).
	CapacityKWh float64
}

// NewDayAhead builds a day-ahead market from an hourly price series.
func NewDayAhead(cfg Config) (*DayAhead, error) {
	if cfg.Prices == nil || cfg.Prices.Len() == 0 {
		return nil, fmt.Errorf("market: price series required")
	}
	if cfg.Prices.Resolution() != time.Hour {
		return nil, fmt.Errorf("market: prices must be hourly, got %v", cfg.Prices.Resolution())
	}
	if cfg.SpreadFrac < 0 || cfg.SpreadFrac >= 1 {
		return nil, fmt.Errorf("market: spread fraction %g outside [0,1)", cfg.SpreadFrac)
	}
	if cfg.SpreadFrac == 0 {
		cfg.SpreadFrac = 0.05
	}
	if cfg.CapacityKWh == 0 {
		cfg.CapacityKWh = 1e6
	}
	return &DayAhead{
		prices:      cfg.Prices.Values(),
		spreadFrac:  cfg.SpreadFrac,
		capacityKWh: cfg.CapacityKWh,
	}, nil
}

// Quote returns buy/sell prices (EUR/kWh) and liquidity for a slot.
// Slots beyond the price horizon reuse the last known hour (price
// persistence).
func (m *DayAhead) Quote(slot flexoffer.Time) Quote {
	midPerKWh := m.mid(slot)
	// The half-spread is a cost on both sides of the book, so it hangs
	// off the mid's magnitude: with a negative mid (renewable surplus
	// hours) the BRP still buys above and sells below mid — otherwise
	// the book would invert and quote free arbitrage.
	half := math.Abs(midPerKWh) * m.spreadFrac / 2
	return Quote{
		BuyEUR:      midPerKWh + half,
		SellEUR:     midPerKWh - half,
		CapacityKWh: m.capacityKWh,
	}
}

// mid returns the mid price (EUR/kWh) for a slot; slots beyond the
// price horizon reuse the last known hour.
func (m *DayAhead) mid(slot flexoffer.Time) float64 {
	hour := int(slot) / flexoffer.SlotsPerHour
	if hour < 0 {
		hour = 0
	}
	if hour >= len(m.prices) {
		hour = len(m.prices) - 1
	}
	return m.prices[hour] / 1000
}
