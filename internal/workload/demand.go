// Package workload generates the synthetic workloads that stand in for
// the paper's datasets (DESIGN.md §3):
//
//   - a UK-NationalGrid-like half-hourly electricity demand series
//     (multi-seasonal: daily, weekly, annual — the structure HWT is built
//     to exploit);
//   - an NREL-like wind supply series (weakly seasonal, strongly
//     stochastic — hard to forecast at long horizons);
//   - a day-ahead price series;
//   - artificial flex-offer datasets with the attribute spreads that the
//     paper's aggregation experiments (Figure 5) rely on.
//
// All generators are deterministic given a seed.
package workload

import (
	"math"
	"math/rand"
	"time"

	"mirabel/internal/timeseries"
)

// DefaultOrigin is the epoch used by all generated series: slot 0 of the
// flex-offer time axis is the same instant, so series and offers align.
var DefaultOrigin = time.Date(2010, 1, 1, 0, 0, 0, 0, time.UTC)

// DemandConfig parameterizes the synthetic demand series.
type DemandConfig struct {
	Days       int           // length of the series in days
	Resolution time.Duration // slot length (default 30 min, like the UK data)
	BaseMW     float64       // mean demand level (default 35000, UK-like)
	NoiseFrac  float64       // AR(1) noise std as a fraction of base (default 0.01)
	Seed       int64
}

func (c DemandConfig) withDefaults() DemandConfig {
	if c.Resolution == 0 {
		c.Resolution = timeseries.ResolutionHalfHour
	}
	if c.BaseMW == 0 {
		c.BaseMW = 35000
	}
	if c.NoiseFrac == 0 {
		c.NoiseFrac = 0.01
	}
	return c
}

// dailyShape returns the intra-day demand multiplier for an hour-of-day in
// [0, 24): a night trough around 4am (≈ 60% of the evening peak), a
// morning ramp and an evening peak around 17:30 — the familiar shape of
// the UK metered demand curve.
func dailyShape(hour float64) float64 {
	const trough = 0.62
	morning := 0.28 * gauss(hour, 9.0, 3.0)
	evening := 0.38 * gauss(hour, 17.5, 2.6)
	lateDip := -0.05 * gauss(hour, 23.5, 1.5)
	return trough + morning + evening + lateDip
}

func gauss(x, mu, sigma float64) float64 {
	d := (x - mu) / sigma
	return math.Exp(-0.5 * d * d)
}

// weeklyShape returns the day-of-week multiplier (Saturday/Sunday lower).
func weeklyShape(weekday time.Weekday) float64 {
	switch weekday {
	case time.Saturday:
		return 0.92
	case time.Sunday:
		return 0.88
	default:
		return 1.0
	}
}

// annualShape returns the day-of-year multiplier (winter heating peak).
func annualShape(dayOfYear int) float64 {
	// Peak in early January, trough in late July.
	return 1 + 0.15*math.Cos(2*math.Pi*float64(dayOfYear-5)/365.25)
}

// DemandSeries generates the UK-like demand series. Its slot 0 is
// DefaultOrigin.
func DemandSeries(cfg DemandConfig) *timeseries.Series {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	slotsPerDay := int(24 * time.Hour / cfg.Resolution)
	n := cfg.Days * slotsPerDay
	values := make([]float64, n)

	// AR(1) noise keeps consecutive slots correlated like real demand.
	const ar = 0.85
	noise := 0.0
	sigma := cfg.NoiseFrac * cfg.BaseMW

	for i := 0; i < n; i++ {
		t := DefaultOrigin.Add(time.Duration(i) * cfg.Resolution)
		hour := float64(t.Hour()) + float64(t.Minute())/60
		base := cfg.BaseMW * dailyShape(hour) * weeklyShape(t.Weekday()) * annualShape(t.YearDay())
		noise = ar*noise + math.Sqrt(1-ar*ar)*rng.NormFloat64()*sigma
		values[i] = base + noise
	}
	return timeseries.New(cfg.Resolution, values)
}

// WindConfig parameterizes the synthetic wind supply series.
type WindConfig struct {
	Days       int
	Resolution time.Duration // default 30 min
	CapacityMW float64       // installed capacity (default 3000)
	Seed       int64
}

func (c WindConfig) withDefaults() WindConfig {
	if c.Resolution == 0 {
		c.Resolution = timeseries.ResolutionHalfHour
	}
	if c.CapacityMW == 0 {
		c.CapacityMW = 3000
	}
	return c
}

// powerCurve maps wind speed (m/s) to the power fraction of capacity:
// zero below the cut-in speed, cubic up to the rated speed, then flat.
func powerCurve(speed float64) float64 {
	const cutIn, rated = 3.0, 12.0
	switch {
	case speed < cutIn:
		return 0
	case speed < rated:
		f := (speed - cutIn) / (rated - cutIn)
		return f * f * f
	default:
		return 1
	}
}

// WindSeries generates an NREL-like aggregated wind production series: a
// mean-reverting wind speed process pushed through a cubic power curve,
// with only a faint diurnal component — deliberately much less seasonal
// than demand, which is what makes it hard to forecast (paper Fig. 4b).
func WindSeries(cfg WindConfig) *timeseries.Series {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	slotsPerDay := int(24 * time.Hour / cfg.Resolution)
	n := cfg.Days * slotsPerDay
	values := make([]float64, n)

	// Ornstein-Uhlenbeck-style wind speed around 8 m/s — mid power
	// curve, so output is rarely pinned at zero or capacity.
	const meanSpeed, reversion, vol = 8.0, 0.01, 0.16
	speed := meanSpeed
	for i := 0; i < n; i++ {
		t := DefaultOrigin.Add(time.Duration(i) * cfg.Resolution)
		hour := float64(t.Hour()) + float64(t.Minute())/60
		// Faint diurnal modulation (slightly windier in the afternoon).
		diurnal := 0.4 * math.Sin(2*math.Pi*(hour-3)/24)
		speed += reversion*(meanSpeed-speed) + vol*rng.NormFloat64()
		if speed < 0 {
			speed = 0
		}
		values[i] = cfg.CapacityMW * powerCurve(speed+diurnal)
	}
	return timeseries.New(cfg.Resolution, values)
}

// PriceConfig parameterizes the synthetic day-ahead price series.
type PriceConfig struct {
	Days     int
	BaseEUR  float64 // mean price per MWh (default 45)
	PeakAdd  float64 // additional peak-hour price (default 25)
	NoiseEUR float64 // per-hour noise std (default 3)
	Seed     int64
}

// PriceSeries generates an hourly day-ahead price series whose peak
// structure follows the demand shape — peak-period imbalances cost the
// BRP more (paper §6: "mismatches at peak periods cost the BRP more").
func PriceSeries(cfg PriceConfig) *timeseries.Series {
	if cfg.BaseEUR == 0 {
		cfg.BaseEUR = 45
	}
	if cfg.PeakAdd == 0 {
		cfg.PeakAdd = 25
	}
	if cfg.NoiseEUR == 0 {
		cfg.NoiseEUR = 3
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	n := cfg.Days * 24
	values := make([]float64, n)
	for i := 0; i < n; i++ {
		hour := float64(i % 24)
		shape := (dailyShape(hour) - 0.62) / 0.38 // 0 at trough, ~1 at peak
		values[i] = cfg.BaseEUR + cfg.PeakAdd*shape + rng.NormFloat64()*cfg.NoiseEUR
	}
	return timeseries.New(time.Hour, values)
}
