// Package timeseries provides the time-series substrate used across the
// MIRABEL EDMS: equidistant series with a fixed resolution.
//
// Time is modeled as discrete slots. A slot is Resolution long; slot 0
// is the system epoch the caller keeps (workload.DefaultOrigin). All
// MIRABEL components (flex-offers, forecasting, scheduling) exchange slot
// indexes rather than wall-clock timestamps so that the whole system is
// deterministic and testable.
package timeseries

import "time"

// Common resolutions of the European electricity market.
const (
	ResolutionQuarterHour = 15 * time.Minute
	ResolutionHalfHour    = 30 * time.Minute
	ResolutionHour        = time.Hour
)

// Series is an equidistant time series. The zero value is not usable;
// construct with New.
type Series struct {
	resolution time.Duration
	values     []float64
}

// New returns a series over the given values; resolution is the slot
// length.
func New(resolution time.Duration, values []float64) *Series {
	if resolution <= 0 {
		panic("timeseries: non-positive resolution")
	}
	return &Series{resolution: resolution, values: values}
}

// Resolution returns the slot length.
func (s *Series) Resolution() time.Duration { return s.resolution }

// Len returns the number of observations.
func (s *Series) Len() int { return len(s.values) }

// Values returns the underlying observation slice. The slice is shared;
// callers must not modify it unless they own the series.
func (s *Series) Values() []float64 { return s.values }
