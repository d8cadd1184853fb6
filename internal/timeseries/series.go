// Package timeseries provides the time-series substrate used across the
// MIRABEL EDMS: equidistant series with a fixed resolution.
//
// Time is modeled as discrete slots. A slot is Resolution long; slot 0
// starts at the series Origin. All MIRABEL components (flex-offers,
// forecasting, scheduling) exchange slot indexes rather than wall-clock
// timestamps so that the whole system is deterministic and testable.
package timeseries

import (
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

// Values returns the underlying observation slice. The slice is shared;
// callers must not modify it unless they own the series.
func (s *Series) Values() []float64 { return s.values }

// TimeOf returns the wall-clock start time of slot i.
func (s *Series) TimeOf(i int) time.Time {
	return s.origin.Add(time.Duration(i) * s.resolution)
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
