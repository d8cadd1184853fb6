package core

// StaticForecast adapts a fixed per-slot series to the node's forecaster
// seam: Forecast(h) returns the first h values (padded with the last
// value). The simulator, the benchmark and the tests inject known
// baselines with it; the node's own forecast registry does not feed the
// cycle yet (ROADMAP O).
type StaticForecast []float64

// Forecast implements the forecaster seam.
func (s StaticForecast) Forecast(h int) []float64 {
	out := make([]float64, h)
	for i := range out {
		switch {
		case i < len(s):
			out[i] = s[i]
		case len(s) > 0:
			out[i] = s[len(s)-1]
		}
	}
	return out
}

// ShiftedForecast offsets a StaticForecast by a slot index, so a series
// indexed from slot 0 can serve a cycle planning [start, start+h).
type ShiftedForecast struct {
	Series []float64
	Start  int
}

// Forecast implements the forecaster seam.
func (s ShiftedForecast) Forecast(h int) []float64 {
	out := make([]float64, h)
	for i := range out {
		idx := s.Start + i
		switch {
		case idx < len(s.Series):
			out[i] = s.Series[idx]
		case len(s.Series) > 0:
			out[i] = s.Series[len(s.Series)-1]
		}
	}
	return out
}
