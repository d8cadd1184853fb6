package forecast

import (
	"math"
	"testing"
)

func TestForecastIntervalWidensWithHorizon(t *testing.T) {
	history := synthSeasonal(336 * 2)
	for i := range history {
		history[i] += pseudoNoise(i) * 4
	}
	m, _ := NewHWT(48)
	if err := m.Init(history); err != nil {
		t.Fatal(err)
	}
	iv := m.ForecastInterval(48, 1.96)
	if len(iv) != 48 {
		t.Fatalf("len = %d", len(iv))
	}
	prevWidth := -1.0
	for k, x := range iv {
		if x.Lower > x.Point || x.Upper < x.Point {
			t.Fatalf("interval %d does not bracket the point: %+v", k, x)
		}
		w := x.Upper - x.Lower
		if w < prevWidth {
			t.Fatalf("interval width shrinks at horizon %d", k)
		}
		prevWidth = w
	}
	if m.ResidualStd() <= 0 {
		t.Error("residual std not positive on noisy data")
	}
}

func TestForecastIntervalCoverage(t *testing.T) {
	// On noisy seasonal data, a 95% one-step interval must cover most
	// actual values (loose bound: ≥ 80%).
	n := 336 * 3
	series := make([]float64, n)
	for i := range series {
		series[i] = 100 + 10*math.Sin(2*math.Pi*float64(i%48)/48) + pseudoNoise(i)*6
	}
	m, _ := NewHWT(48)
	if err := m.Init(series[:336*2]); err != nil {
		t.Fatal(err)
	}
	covered, total := 0, 0
	for _, y := range series[336*2:] {
		iv := m.ForecastInterval(1, 1.96)[0]
		if y >= iv.Lower && y <= iv.Upper {
			covered++
		}
		total++
		m.Update(y)
	}
	if frac := float64(covered) / float64(total); frac < 0.8 {
		t.Errorf("interval coverage = %.2f, want ≥ 0.8", frac)
	}
}
