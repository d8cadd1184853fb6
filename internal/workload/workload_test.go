package workload

import (
	"math"
	"testing"
	"time"

	"mirabel/internal/flexoffer"
)

func TestDemandSeriesShape(t *testing.T) {
	s := DemandSeries(DemandConfig{Days: 14, Seed: 1})
	if s.Len() != 14*48 {
		t.Fatalf("Len = %d, want %d", s.Len(), 14*48)
	}
	st := summarize(s.Values())
	if st.Min <= 0 {
		t.Errorf("demand dips to %g, must stay positive", st.Min)
	}
	// Night trough must be well below the evening peak on every day.
	for day := 0; day < 14; day++ {
		night := s.Values()[day*48+8]    // 4am
		evening := s.Values()[day*48+35] // 17:30
		if night >= evening {
			t.Errorf("day %d: night %g >= evening %g", day, night, evening)
		}
		ratio := night / evening
		if ratio < 0.4 || ratio > 0.85 {
			t.Errorf("day %d: trough/peak ratio %g outside UK-like range", day, ratio)
		}
	}
}

func TestDemandWeekendLower(t *testing.T) {
	s := DemandSeries(DemandConfig{Days: 28, Seed: 2, NoiseFrac: 0.001})
	var weekday, weekend, nwd, nwe float64
	for i := 0; i < s.Len(); i++ {
		switch DefaultOrigin.Add(time.Duration(i) * s.Resolution()).Weekday() {
		case time.Saturday, time.Sunday:
			weekend += s.Values()[i]
			nwe++
		default:
			weekday += s.Values()[i]
			nwd++
		}
	}
	if weekend/nwe >= weekday/nwd {
		t.Errorf("weekend mean %g >= weekday mean %g", weekend/nwe, weekday/nwd)
	}
}

func TestDemandDeterministic(t *testing.T) {
	a := DemandSeries(DemandConfig{Days: 2, Seed: 7})
	b := DemandSeries(DemandConfig{Days: 2, Seed: 7})
	for i := 0; i < a.Len(); i++ {
		if a.Values()[i] != b.Values()[i] {
			t.Fatalf("same seed diverges at slot %d", i)
		}
	}
	c := DemandSeries(DemandConfig{Days: 2, Seed: 8})
	same := true
	for i := 0; i < a.Len(); i++ {
		if a.Values()[i] != c.Values()[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produce identical series")
	}
}

func TestDemandDailyAutocorrelation(t *testing.T) {
	// Demand must be strongly correlated at a 1-day lag — that is the
	// seasonality forecasting exploits.
	s := DemandSeries(DemandConfig{Days: 28, Seed: 3})
	// Weekday/weekend transitions dilute the 1-day lag slightly, so the
	// bound is 0.85 rather than the pure within-week value.
	if c := autocorr(s.Values(), 48); c < 0.85 {
		t.Errorf("daily autocorrelation = %g, want > 0.85", c)
	}
}

func TestWindSeriesProperties(t *testing.T) {
	s := WindSeries(WindConfig{Days: 28, Seed: 4})
	if s.Len() != 28*48 {
		t.Fatalf("Len = %d", s.Len())
	}
	st := summarize(s.Values())
	if st.Min < 0 {
		t.Errorf("negative wind power %g", st.Min)
	}
	if st.Max > 3000 {
		t.Errorf("wind power %g exceeds capacity", st.Max)
	}
	if st.Std == 0 {
		t.Error("wind series is constant")
	}
	// Wind must be much less daily-seasonal than demand.
	wind := autocorr(s.Values(), 48)
	demand := autocorr(DemandSeries(DemandConfig{Days: 28, Seed: 4}).Values(), 48)
	if wind >= demand {
		t.Errorf("wind daily autocorr %g >= demand %g — wind should be less seasonal", wind, demand)
	}
}

func TestPriceSeriesPeakStructure(t *testing.T) {
	s := PriceSeries(PriceConfig{Days: 30, Seed: 6})
	if s.Len() != 30*24 {
		t.Fatalf("Len = %d", s.Len())
	}
	if s.Resolution() != time.Hour {
		t.Errorf("resolution = %v", s.Resolution())
	}
	var night, evening float64
	for d := 0; d < 30; d++ {
		night += s.Values()[d*24+4]
		evening += s.Values()[d*24+17]
	}
	if night >= evening {
		t.Errorf("mean night price %g >= evening price %g", night/30, evening/30)
	}
}

func TestGenerateFlexOffersValid(t *testing.T) {
	offers := GenerateFlexOffers(FlexOfferConfig{Count: 5000, Seed: 1})
	if len(offers) != 5000 {
		t.Fatalf("count = %d", len(offers))
	}
	ids := map[flexoffer.ID]bool{}
	for _, f := range offers {
		if err := f.Validate(); err != nil {
			t.Fatalf("invalid offer: %v", err)
		}
		if ids[f.ID] {
			t.Fatalf("duplicate id %d", f.ID)
		}
		ids[f.ID] = true
	}
}

func TestGenerateFlexOffersMix(t *testing.T) {
	offers := GenerateFlexOffers(FlexOfferConfig{Count: 20000, Seed: 2})
	classes := map[string]int{}
	production := 0
	for _, f := range offers {
		classes[f.Prosumer]++
		if f.MinTotalEnergy() < 0 {
			production++
		}
	}
	if len(classes) != 5 {
		t.Errorf("expected 5 device classes, got %v", classes)
	}
	// ~10% production offers (solar).
	frac := float64(production) / float64(len(offers))
	if frac < 0.05 || frac > 0.2 {
		t.Errorf("production fraction = %g, want ~0.1", frac)
	}
}

func TestFlexOfferAttributeSpread(t *testing.T) {
	// The aggregation experiments depend on earliest-start having much
	// higher cardinality than time-flexibility.
	offers := GenerateFlexOffers(FlexOfferConfig{Count: 50000, Seed: 3})
	es := map[flexoffer.Time]bool{}
	tf := map[flexoffer.Time]bool{}
	for _, f := range offers {
		es[f.EarliestStart] = true
		tf[f.TimeFlexibility()] = true
	}
	if len(es) < 10*len(tf) {
		t.Errorf("ES cardinality %d not ≫ TF cardinality %d", len(es), len(tf))
	}
}

func TestFlexOfferHorizon(t *testing.T) {
	offers := GenerateFlexOffers(FlexOfferConfig{Count: 1000, HorizonDays: 7, Seed: 4})
	limit := flexoffer.Time(7 * flexoffer.SlotsPerDay)
	for _, f := range offers {
		if f.EarliestStart < 0 || f.EarliestStart >= limit {
			t.Fatalf("earliest start %d outside 7-day horizon", f.EarliestStart)
		}
	}
}

// seriesStats are a series' extremes and population standard deviation.
type seriesStats struct{ Min, Max, Std float64 }

func summarize(v []float64) seriesStats {
	st := seriesStats{Min: math.Inf(1), Max: math.Inf(-1)}
	m := mean(v)
	for _, x := range v {
		st.Min, st.Max = math.Min(st.Min, x), math.Max(st.Max, x)
		st.Std += (x - m) * (x - m)
	}
	st.Std = math.Sqrt(st.Std / float64(len(v)))
	return st
}

func autocorr(v []float64, lag int) float64 {
	m := mean(v)
	var num, den float64
	for i := lag; i < len(v); i++ {
		num += (v[i] - m) * (v[i-lag] - m)
	}
	for _, x := range v {
		den += (x - m) * (x - m)
	}
	if den == 0 {
		return 0
	}
	return num / den
}

func mean(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

func TestPowerCurve(t *testing.T) {
	if powerCurve(2) != 0 {
		t.Error("below cut-in should be 0")
	}
	if powerCurve(13) != 1 {
		t.Error("above rated should be 1")
	}
	mid := powerCurve(7.5)
	if mid <= 0 || mid >= 1 {
		t.Errorf("mid-range power %g outside (0,1)", mid)
	}
	// Monotone non-decreasing.
	prev := -1.0
	for v := 0.0; v < 15; v += 0.25 {
		p := powerCurve(v)
		if p < prev {
			t.Fatalf("power curve decreases at %g", v)
		}
		prev = p
	}
}
