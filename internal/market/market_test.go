package market

import (
	"math"
	"testing"
	"time"

	"mirabel/internal/flexoffer"
	"mirabel/internal/timeseries"
	"mirabel/internal/workload"
)

func hourly(prices ...float64) *timeseries.Series {
	return timeseries.New(workload.DefaultOrigin, time.Hour, prices)
}

func TestNewDayAheadValidation(t *testing.T) {
	if _, err := NewDayAhead(Config{}); err == nil {
		t.Error("missing prices accepted")
	}
	bad := timeseries.New(workload.DefaultOrigin, time.Minute, []float64{1})
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

func TestGateClosureAndTradingPeriods(t *testing.T) {
	m, err := NewDayAhead(Config{Prices: hourly(50), GateClosureLead: 4})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.NextGateClosure(100); got != 96 {
		t.Errorf("NextGateClosure = %d, want 96", got)
	}
	if got := m.NextTradingPeriod(0); got != 4 {
		t.Errorf("NextTradingPeriod(0) = %d, want 4", got)
	}
	if got := m.NextTradingPeriod(5); got != 8 {
		t.Errorf("NextTradingPeriod(5) = %d, want 8", got)
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

func TestGateClosureClampsAtEpoch(t *testing.T) {
	m, err := NewDayAhead(Config{Prices: hourly(50), GateClosureLead: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ delivery, want flexoffer.Time }{
		{0, 0}, {3, 0}, {4, 0}, {5, 1},
	} {
		if got := m.NextGateClosure(tc.delivery); got != tc.want {
			t.Errorf("NextGateClosure(%d) = %d, want %d", tc.delivery, got, tc.want)
		}
	}
}

func TestTradeDepletesLiquidity(t *testing.T) {
	m, err := NewDayAhead(Config{Prices: hourly(100), SpreadFrac: 0.1, CapacityKWh: 50})
	if err != nil {
		t.Fatal(err)
	}
	if m.Quote(0).CapacityKWh != 50 {
		t.Fatalf("initial capacity = %g", m.Quote(0).CapacityKWh)
	}
	res, err := m.Trade(0, 30)
	if err != nil {
		t.Fatal(err)
	}
	if res.WithinKWh != 30 || res.ExcessKWh != 0 {
		t.Errorf("trade = %+v", res)
	}
	if math.Abs(res.CostEUR-30*0.105) > 1e-12 {
		t.Errorf("cost = %g, want %g", res.CostEUR, 30*0.105)
	}
	if got := m.Quote(0).CapacityKWh; got != 20 {
		t.Errorf("capacity after trade = %g, want 20", got)
	}
	// Other slots keep their liquidity.
	if got := m.Quote(flexoffer.SlotsPerHour).CapacityKWh; got != 50 {
		t.Errorf("untouched slot capacity = %g, want 50", got)
	}
	// Selling depletes the same book.
	if _, err := m.Trade(0, -20); err != nil {
		t.Fatal(err)
	}
	if got := m.Quote(0).CapacityKWh; got != 0 {
		t.Errorf("capacity after sell = %g, want 0", got)
	}
}

func TestTradeMarginalImpactBeyondCapacity(t *testing.T) {
	m, err := NewDayAhead(Config{
		Prices: hourly(100), SpreadFrac: 0.1, CapacityKWh: 10, ImpactEURPerKWh: 0.001,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Buy 30 into 10 of capacity: 10 at the quote, 20 on the ramp at
	// quote + impact·20/2.
	res, err := m.Trade(0, 30)
	if err != nil {
		t.Fatal(err)
	}
	if res.WithinKWh != 10 || res.ExcessKWh != 20 {
		t.Fatalf("trade = %+v", res)
	}
	want := 10*0.105 + 20*(0.105+0.001*20/2)
	if math.Abs(res.CostEUR-want) > 1e-12 {
		t.Errorf("cost = %g, want %g", res.CostEUR, want)
	}
	if res.AvgPriceEUR <= 0.105 {
		t.Errorf("avg price %g did not move against the buyer", res.AvgPriceEUR)
	}
	// Selling beyond capacity earns less than the quote.
	m2, _ := NewDayAhead(Config{Prices: hourly(100), SpreadFrac: 0.1, CapacityKWh: 10, ImpactEURPerKWh: 0.001})
	sres, err := m2.Trade(0, -30)
	if err != nil {
		t.Fatal(err)
	}
	if sres.CostEUR >= 0 {
		t.Errorf("sell cost = %g, want negative (revenue)", sres.CostEUR)
	}
	if -sres.CostEUR >= 30*0.095 {
		t.Errorf("sell revenue %g did not move against the seller", -sres.CostEUR)
	}
	if _, err := m2.Trade(0, math.NaN()); err == nil {
		t.Error("NaN volume accepted")
	}
}

func TestImbalancePriceDerivedFromCurve(t *testing.T) {
	m, err := NewDayAhead(Config{Prices: hourly(100, -40), ImbalanceMult: 1.5, ImbalanceMinEUR: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.ImbalancePrice(0); math.Abs(got-0.15) > 1e-12 {
		t.Errorf("imbalance(0) = %g, want 0.15", got)
	}
	// Negative hour: priced off |mid| (1.5·0.04 = 0.06 > floor).
	if got := m.ImbalancePrice(flexoffer.SlotsPerHour); math.Abs(got-0.06) > 1e-12 {
		t.Errorf("imbalance(hour 1) = %g, want 0.06", got)
	}
	series := m.ImbalanceSeries(8)
	if len(series) != 8 || series[0] != m.ImbalancePrice(0) || series[7] != m.ImbalancePrice(7) {
		t.Errorf("imbalance series = %v", series)
	}
	for _, p := range series {
		if p < 0.05 {
			t.Errorf("imbalance price %g below floor", p)
		}
	}
}
