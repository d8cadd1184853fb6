// Package timeseries provides the time-series substrate used across the
// MIRABEL EDMS: equidistant series with a fixed resolution and SMAPE,
// the forecast error metric of the paper's evaluation.
//
// Time is modeled as discrete slots. A slot is Resolution long; slot 0
// starts at the series Origin. All MIRABEL components (flex-offers,
// forecasting, scheduling) exchange slot indexes rather than wall-clock
// timestamps so that the whole system is deterministic and testable.
package timeseries

import (
	"errors"
	"fmt"
	"math"
	"time"
)

// Common resolutions of the European electricity market.
const (
	ResolutionQuarterHour = 15 * time.Minute
	ResolutionHalfHour    = 30 * time.Minute
	ResolutionHour        = time.Hour
)

// Series is an equidistant time series. The zero value is not usable;
// construct with New.
type Series struct {
	origin     time.Time
	resolution time.Duration
	values     []float64
}

// New returns a series over the given values. origin is the start time of
// slot 0 and resolution the slot length.
func New(origin time.Time, resolution time.Duration, values []float64) *Series {
	if resolution <= 0 {
		panic("timeseries: non-positive resolution")
	}
	return &Series{origin: origin, resolution: resolution, values: values}
}

// Origin returns the start time of slot 0.
func (s *Series) Origin() time.Time { return s.origin }

// Resolution returns the slot length.
func (s *Series) Resolution() time.Duration { return s.resolution }

// Len returns the number of observations.
func (s *Series) Len() int { return len(s.values) }

// At returns the observation of slot i.
func (s *Series) At(i int) float64 { return s.values[i] }

// Append adds observations at the end of the series.
func (s *Series) Append(v ...float64) { s.values = append(s.values, v...) }

// Values returns the underlying observation slice. The slice is shared;
// callers must not modify it unless they own the series.
func (s *Series) Values() []float64 { return s.values }

// Clone returns a deep copy of the series.
func (s *Series) Clone() *Series {
	cp := make([]float64, len(s.values))
	copy(cp, s.values)
	return New(s.origin, s.resolution, cp)
}

// Slice returns a view of slots [from, to).
func (s *Series) Slice(from, to int) *Series {
	return &Series{
		origin:     s.TimeOf(from),
		resolution: s.resolution,
		values:     s.values[from:to],
	}
}

// TimeOf returns the wall-clock start time of slot i.
func (s *Series) TimeOf(i int) time.Time {
	return s.origin.Add(time.Duration(i) * s.resolution)
}

// SlotsPerDay returns the number of slots in 24 hours, or an error if the
// resolution does not evenly divide a day.
func (s *Series) SlotsPerDay() (int, error) {
	day := 24 * time.Hour
	if day%s.resolution != 0 {
		return 0, fmt.Errorf("timeseries: resolution %v does not divide a day", s.resolution)
	}
	return int(day / s.resolution), nil
}

// String implements fmt.Stringer with a short summary.
func (s *Series) String() string {
	return fmt.Sprintf("Series{n=%d res=%v origin=%s}", len(s.values), s.resolution, s.origin.Format(time.RFC3339))
}

// Stats holds simple summary statistics of a series.
type Stats struct {
	Min, Max, Mean, Std float64
}

// Summary computes summary statistics. An empty series yields zeros.
func (s *Series) Summary() Stats {
	if len(s.values) == 0 {
		return Stats{}
	}
	st := Stats{Min: math.Inf(1), Max: math.Inf(-1)}
	for _, v := range s.values {
		st.Mean += v
		if v < st.Min {
			st.Min = v
		}
		if v > st.Max {
			st.Max = v
		}
	}
	st.Mean /= float64(len(s.values))
	for _, v := range s.values {
		d := v - st.Mean
		st.Std += d * d
	}
	st.Std = math.Sqrt(st.Std / float64(len(s.values)))
	return st
}

// ErrLengthMismatch is returned by SMAPE when the actual and forecast
// slices differ in length.
var ErrLengthMismatch = errors.New("timeseries: actual and forecast lengths differ")

// SMAPE returns the symmetric mean absolute percentage error between
// actual and forecast, as used in the paper's forecasting experiments
// (Figure 4). The result is in [0, 1]; slots where both values are zero
// contribute zero error.
func SMAPE(actual, forecast []float64) (float64, error) {
	if len(actual) != len(forecast) {
		return 0, ErrLengthMismatch
	}
	if len(actual) == 0 {
		return 0, nil
	}
	var sum float64
	for i := range actual {
		denom := math.Abs(actual[i]) + math.Abs(forecast[i])
		if denom == 0 {
			continue
		}
		sum += math.Abs(actual[i]-forecast[i]) / denom
	}
	return sum / float64(len(actual)), nil
}

// Aggregate sums k consecutive slots into one, producing a coarser series
// (e.g. 15-minute → hourly with k=4). Trailing slots that do not fill a
// complete group are dropped.
func (s *Series) Aggregate(k int) *Series {
	if k <= 0 {
		panic("timeseries: non-positive aggregation factor")
	}
	n := len(s.values) / k
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		var sum float64
		for j := 0; j < k; j++ {
			sum += s.values[i*k+j]
		}
		out[i] = sum
	}
	return New(s.origin, s.resolution*time.Duration(k), out)
}
