package forecast

import "math"

// Interval is a forecast with uncertainty bounds — the paper's future
// direction of "capture of uncertainty levels in the result of queries"
// (§10).
type Interval struct {
	Point, Lower, Upper float64
}

// ForecastInterval returns point forecasts with symmetric prediction
// intervals at roughly the given confidence (z = 1.64 ≈ 90%, 1.96 ≈
// 95%). The interval width is the model's one-step residual standard
// deviation scaled by √k for k-step horizons — the standard random-walk
// widening for exponential smoothing models.
func (m *HWT) ForecastInterval(h int, z float64) []Interval {
	points := m.Forecast(h)
	sigma := math.Sqrt(m.resVar)
	out := make([]Interval, h)
	for k, p := range points {
		w := z * sigma * math.Sqrt(float64(k+1))
		out[k] = Interval{Point: p, Lower: p - w, Upper: p + w}
	}
	return out
}

// ResidualStd returns the model's smoothed one-step residual standard
// deviation.
func (m *HWT) ResidualStd() float64 { return math.Sqrt(m.resVar) }
