package timeseries

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

var origin = time.Date(2010, 1, 1, 0, 0, 0, 0, time.UTC)

func TestSlotsPerDay(t *testing.T) {
	for _, tc := range []struct {
		res  time.Duration
		want int
	}{
		{ResolutionQuarterHour, 96},
		{ResolutionHalfHour, 48},
		{ResolutionHour, 24},
	} {
		s := New(origin, tc.res, nil)
		got, err := s.SlotsPerDay()
		if err != nil || got != tc.want {
			t.Errorf("SlotsPerDay(%v) = %d, %v; want %d", tc.res, got, err, tc.want)
		}
	}
	s := New(origin, 7*time.Minute, nil)
	if _, err := s.SlotsPerDay(); err == nil {
		t.Error("SlotsPerDay(7m) should error")
	}
}

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

func TestSMAPE(t *testing.T) {
	got, err := SMAPE([]float64{100, 100}, []float64{100, 50})
	if err != nil {
		t.Fatal(err)
	}
	// slot 0: 0; slot 1: 50/150 = 1/3; mean = 1/6
	if math.Abs(got-1.0/6.0) > 1e-12 {
		t.Errorf("SMAPE = %g, want %g", got, 1.0/6.0)
	}
}

func TestSMAPEPerfect(t *testing.T) {
	got, err := SMAPE([]float64{1, 2, 3}, []float64{1, 2, 3})
	if err != nil || got != 0 {
		t.Errorf("perfect SMAPE = %g, %v", got, err)
	}
}

func TestSMAPEZeros(t *testing.T) {
	got, err := SMAPE([]float64{0, 0}, []float64{0, 0})
	if err != nil || got != 0 {
		t.Errorf("all-zero SMAPE = %g, %v", got, err)
	}
}

func TestMetricsLengthMismatch(t *testing.T) {
	if _, err := SMAPE([]float64{1}, nil); err != ErrLengthMismatch {
		t.Errorf("SMAPE mismatch err = %v", err)
	}
}

func TestAggregate(t *testing.T) {
	s := New(origin, ResolutionQuarterHour, []float64{1, 2, 3, 4, 5, 6, 7, 8, 9})
	h := s.Aggregate(4)
	if h.Len() != 2 {
		t.Fatalf("Len = %d, want 2 (trailing slot dropped)", h.Len())
	}
	if h.At(0) != 10 || h.At(1) != 26 {
		t.Errorf("values = %v", h.Values())
	}
	if h.Resolution() != time.Hour {
		t.Errorf("resolution = %v", h.Resolution())
	}
}

func TestSliceView(t *testing.T) {
	s := New(origin, ResolutionHour, []float64{0, 1, 2, 3, 4})
	v := s.Slice(2, 4)
	if v.Len() != 2 || v.At(0) != 2 || v.At(1) != 3 {
		t.Errorf("Slice = %v", v.Values())
	}
	if !v.Origin().Equal(origin.Add(2 * time.Hour)) {
		t.Errorf("Slice origin = %v", v.Origin())
	}
}

func TestCloneIndependent(t *testing.T) {
	s := New(origin, ResolutionHour, []float64{1, 2})
	c := s.Clone()
	c.Values()[0] = 99
	if s.At(0) != 1 {
		t.Error("Clone shares storage with original")
	}
}

// finiteModest reports whether v is finite and small enough that sums of
// a handful of such values cannot overflow or lose all precision.
func finiteModest(v float64) bool {
	return !math.IsNaN(v) && !math.IsInf(v, 0) && math.Abs(v) < 1e150
}

// Property: SMAPE is symmetric in its arguments and bounded by [0, 1].
func TestSMAPEPropertySymmetricBounded(t *testing.T) {
	f := func(a, b []float64) bool {
		n := len(a)
		if len(b) < n {
			n = len(b)
		}
		a, b = a[:n], b[:n]
		for i := range a {
			// Skip inputs where |a|+|b| would overflow or is not finite.
			if !finiteModest(a[i]) || !finiteModest(b[i]) {
				return true
			}
		}
		ab, err1 := SMAPE(a, b)
		ba, err2 := SMAPE(b, a)
		if err1 != nil || err2 != nil {
			return false
		}
		return math.Abs(ab-ba) < 1e-12 && ab >= 0 && ab <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: aggregating preserves the total sum over complete groups.
func TestAggregatePropertySumPreserved(t *testing.T) {
	f := func(vals []float64, k8 uint8) bool {
		k := int(k8)%6 + 1
		for _, v := range vals {
			if !finiteModest(v) {
				return true
			}
		}
		s := New(origin, ResolutionQuarterHour, vals)
		agg := s.Aggregate(k)
		var want, got, maxAbs float64
		for i := 0; i < agg.Len()*k; i++ {
			want += vals[i]
			if a := math.Abs(vals[i]); a > maxAbs {
				maxAbs = a
			}
		}
		for i := 0; i < agg.Len(); i++ {
			got += agg.At(i)
		}
		// Tolerance scales with the value magnitude: different summation
		// orders legitimately differ by rounding.
		return math.Abs(want-got) <= 1e-9*(1+maxAbs*float64(len(vals)))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
