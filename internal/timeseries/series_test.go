package timeseries

import (
	"math"
	"testing"
	"time"
)

var origin = time.Date(2010, 1, 1, 0, 0, 0, 0, time.UTC)

func TestSummary(t *testing.T) {
	s := New(origin, ResolutionHour, []float64{1, 2, 3, 4})
	st := s.Summary()
	if st.Min != 1 || st.Max != 4 || st.Mean != 2.5 {
		t.Errorf("Summary = %+v", st)
	}
	wantStd := math.Sqrt((2.25 + 0.25 + 0.25 + 2.25) / 4)
	if math.Abs(st.Std-wantStd) > 1e-12 {
		t.Errorf("Std = %g, want %g", st.Std, wantStd)
	}
}

func TestSummaryEmpty(t *testing.T) {
	if st := New(origin, ResolutionHour, nil).Summary(); st != (Stats{}) {
		t.Errorf("empty Summary = %+v, want zero", st)
	}
}
