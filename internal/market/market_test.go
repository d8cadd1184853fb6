package market

import (
	"math"
	"testing"
	"time"

	"mirabel/internal/flexoffer"
	"mirabel/internal/timeseries"
)

func hourly(prices ...float64) *timeseries.Series {
	return timeseries.New(time.Hour, prices)
}

func TestNewDayAheadValidation(t *testing.T) {
	if _, err := NewDayAhead(Config{}); err == nil {
		t.Error("missing prices accepted")
	}
	bad := timeseries.New(time.Minute, []float64{1})
	if _, err := NewDayAhead(Config{Prices: bad}); err == nil {
		t.Error("non-hourly prices accepted")
	}
	if _, err := NewDayAhead(Config{Prices: hourly(50), SpreadFrac: 1.5}); err == nil {
		t.Error("spread ≥ 1 accepted")
	}
}

func TestQuoteSpreadAroundMid(t *testing.T) {
	m, err := NewDayAhead(Config{Prices: hourly(100), SpreadFrac: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	q := m.Quote(0)
	if math.Abs(q.BuyEUR-0.105) > 1e-12 || math.Abs(q.SellEUR-0.095) > 1e-12 {
		t.Errorf("quote = %+v", q)
	}
	if q.BuyEUR <= q.SellEUR {
		t.Error("buy price not above sell price")
	}
}

func TestQuoteHourMapping(t *testing.T) {
	m, err := NewDayAhead(Config{Prices: hourly(10, 20, 30)})
	if err != nil {
		t.Fatal(err)
	}
	// Slot 4..7 is hour 1.
	q0 := m.Quote(0)
	q1 := m.Quote(flexoffer.SlotsPerHour)
	q2 := m.Quote(2*flexoffer.SlotsPerHour + 3)
	if !(q0.BuyEUR < q1.BuyEUR && q1.BuyEUR < q2.BuyEUR) {
		t.Errorf("hour mapping wrong: %v %v %v", q0.BuyEUR, q1.BuyEUR, q2.BuyEUR)
	}
}

func TestQuotePersistenceBeyondHorizon(t *testing.T) {
	m, err := NewDayAhead(Config{Prices: hourly(10, 20)})
	if err != nil {
		t.Fatal(err)
	}
	far := m.Quote(1000 * flexoffer.SlotsPerHour)
	last := m.Quote(1 * flexoffer.SlotsPerHour)
	if far != last {
		t.Error("far future quote does not persist the last hour")
	}
	neg := m.Quote(-5)
	first := m.Quote(0)
	if neg != first {
		t.Error("negative slot does not clamp to the first hour")
	}
}

func TestDefaultCapacity(t *testing.T) {
	m, err := NewDayAhead(Config{Prices: hourly(50)})
	if err != nil {
		t.Fatal(err)
	}
	if m.Quote(0).CapacityKWh <= 0 {
		t.Error("default capacity not positive")
	}
}

func TestQuoteNegativePriceKeepsSpreadOrder(t *testing.T) {
	// Regression: with a negative mid (renewable surplus), the half-
	// spread must come from |mid| or the book inverts into free
	// arbitrage (buy below sell).
	m, err := NewDayAhead(Config{Prices: hourly(-40), SpreadFrac: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	q := m.Quote(0)
	if q.BuyEUR <= q.SellEUR {
		t.Fatalf("inverted book at negative mid: %+v", q)
	}
	if math.Abs(q.BuyEUR-(-0.038)) > 1e-12 || math.Abs(q.SellEUR-(-0.042)) > 1e-12 {
		t.Errorf("quote = %+v, want buy −0.038 / sell −0.042", q)
	}
}
