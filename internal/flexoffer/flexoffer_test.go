package flexoffer

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// evOffer models the paper's §2 example: EV plugged in at 10pm (slot 88 of
// day 0), charging takes 2h (8 slots), must finish by 7am, so the latest
// start is 5am (slot 116 of the next day = 96+20).
func evOffer() *FlexOffer {
	profile := make([]Slice, 8)
	for i := range profile {
		profile[i] = Slice{EnergyMin: 0, EnergyMax: 6.25} // 50 kWh max total
	}
	return &FlexOffer{
		ID:            1,
		Prosumer:      "household-17",
		EarliestStart: 88,
		LatestStart:   96 + 20,
		AssignBefore:  88,
		Profile:       profile,
	}
}

func TestEVOfferProperties(t *testing.T) {
	f := evOffer()
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := f.TimeFlexibility(); got != 28 {
		t.Errorf("TimeFlexibility = %d, want 28 slots (7h)", got)
	}
	if got := f.MaxTotalEnergy(); got != 50 {
		t.Errorf("MaxTotalEnergy = %g, want 50", got)
	}
	if got := f.MinTotalEnergy(); got != 0 {
		t.Errorf("MinTotalEnergy = %g, want 0", got)
	}
	if got := f.EnergyFlexibility(); got != 50 {
		t.Errorf("EnergyFlexibility = %g, want 50", got)
	}
	if got := f.LatestEnd(); got != 124 {
		t.Errorf("LatestEnd = %d, want 124 (7am)", got)
	}
	if f.NumSlices() != 8 {
		t.Errorf("NumSlices = %d", f.NumSlices())
	}
}

func TestValidateRejectsBadOffers(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*FlexOffer)
	}{
		{"empty profile", func(f *FlexOffer) { f.Profile = nil }},
		{"latest before earliest", func(f *FlexOffer) { f.LatestStart = f.EarliestStart - 1 }},
		{"assignment after earliest start", func(f *FlexOffer) { f.AssignBefore = f.EarliestStart + 1 }},
		{"slice min > max", func(f *FlexOffer) { f.Profile[0] = Slice{EnergyMin: 5, EnergyMax: 1} }},
		// The binary codec carries float bits verbatim; JSON could not
		// carry any of these.
		{"NaN slice min", func(f *FlexOffer) { f.Profile[3].EnergyMin = math.NaN() }},
		{"NaN slice max", func(f *FlexOffer) { f.Profile[3].EnergyMax = math.NaN() }},
		{"-Inf slice min", func(f *FlexOffer) { f.Profile[0].EnergyMin = math.Inf(-1) }},
		{"+Inf slice max", func(f *FlexOffer) { f.Profile[7].EnergyMax = math.Inf(1) }},
		{"NaN price", func(f *FlexOffer) { f.CostPerKWh = math.NaN() }},
		{"+Inf price", func(f *FlexOffer) { f.CostPerKWh = math.Inf(1) }},
		{"-Inf price", func(f *FlexOffer) { f.CostPerKWh = math.Inf(-1) }},
		// The codec carries int64 times verbatim too.
		{"time flexibility overflows", func(f *FlexOffer) {
			f.AssignBefore, f.EarliestStart, f.LatestStart = math.MinInt64+1, math.MinInt64+1, math.MaxInt64
		}},
		{"latest end overflows", func(f *FlexOffer) {
			f.AssignBefore, f.EarliestStart, f.LatestStart = math.MaxInt64, math.MaxInt64, math.MaxInt64
		}},
	}
	for _, tc := range cases {
		f := evOffer()
		tc.mutate(f)
		if err := f.Validate(); err == nil {
			t.Errorf("%s: Validate accepted invalid offer", tc.name)
		}
	}
}

// FuzzValidate: an offer Validate accepts has time arithmetic that does
// not wrap, whatever int64 times and profile length a peer sent.
func FuzzValidate(f *testing.F) {
	f.Add(int64(80), int64(100), int64(96), uint8(8), 0.0, 6.25, 0.03)
	f.Add(int64(math.MinInt64), int64(-1), int64(math.MaxInt64-1), uint8(1), -2.0, 0.0, 0.0)
	f.Add(int64(0), int64(0), int64(math.MaxInt64-8), uint8(8), -1.0, 1.0, 0.0)
	f.Fuzz(func(t *testing.T, ab, es, ls int64, n uint8, emin, emax, cost float64) {
		o := &FlexOffer{ID: 1, AssignBefore: Time(ab), EarliestStart: Time(es), LatestStart: Time(ls), CostPerKWh: cost}
		for i := 0; i < int(n); i++ {
			o.Profile = append(o.Profile, Slice{EnergyMin: emin, EnergyMax: emax})
		}
		if o.Validate() != nil {
			return
		}
		if o.TimeFlexibility() < 0 {
			t.Fatalf("%v: time flexibility %d wrapped", o, o.TimeFlexibility())
		}
		if o.LatestEnd() <= o.LatestStart {
			t.Fatalf("%v: latest end %d wrapped", o, o.LatestEnd())
		}
	})
}

func TestScheduleCheckFinite(t *testing.T) {
	if err := (&Schedule{OfferID: 1, Start: 100, Energy: []float64{6, -6, 0}}).CheckFinite(); err != nil {
		t.Errorf("finite schedule rejected: %v", err)
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if err := (&Schedule{OfferID: 1, Start: 100, Energy: []float64{6, bad, 6}}).CheckFinite(); err == nil {
			t.Errorf("schedule with energy %g accepted", bad)
		}
	}
}

func TestValidateScheduleAccepts(t *testing.T) {
	f := evOffer()
	s := &Schedule{OfferID: 1, Start: 100, Energy: []float64{6, 6, 6, 6, 6, 6, 6, 6}}
	if err := f.ValidateSchedule(s); err != nil {
		t.Errorf("valid schedule rejected: %v", err)
	}
}

func TestValidateScheduleRejections(t *testing.T) {
	f := evOffer()
	full := []float64{6, 6, 6, 6, 6, 6, 6, 6}
	cases := []struct {
		name  string
		sched *Schedule
		want  error
	}{
		{"wrong offer", &Schedule{OfferID: 2, Start: 100, Energy: full}, ErrWrongOffer},
		{"too early", &Schedule{OfferID: 1, Start: 87, Energy: full}, ErrStartTooEarly},
		{"too late", &Schedule{OfferID: 1, Start: 117, Energy: full}, ErrStartTooLate},
		{"slice count", &Schedule{OfferID: 1, Start: 100, Energy: full[:4]}, ErrSliceCount},
		{"energy above max", &Schedule{OfferID: 1, Start: 100, Energy: []float64{7, 6, 6, 6, 6, 6, 6, 6}}, ErrEnergyOutOfBox},
		{"energy below min", &Schedule{OfferID: 1, Start: 100, Energy: []float64{-1, 6, 6, 6, 6, 6, 6, 6}}, ErrEnergyOutOfBox},
		{"NaN energy", &Schedule{OfferID: 1, Start: 100, Energy: []float64{6, 6, math.NaN(), 6, 6, 6, 6, 6}}, ErrEnergyOutOfBox},
		{"+Inf energy", &Schedule{OfferID: 1, Start: 100, Energy: []float64{6, 6, 6, 6, 6, 6, 6, math.Inf(1)}}, ErrEnergyOutOfBox},
		{"-Inf energy", &Schedule{OfferID: 1, Start: 100, Energy: []float64{math.Inf(-1), 6, 6, 6, 6, 6, 6, 6}}, ErrEnergyOutOfBox},
	}
	for _, tc := range cases {
		if err := f.ValidateSchedule(tc.sched); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
}

func TestScheduleBoundaryStarts(t *testing.T) {
	f := evOffer()
	full := []float64{0, 0, 0, 0, 0, 0, 0, 0}
	for _, start := range []Time{f.EarliestStart, f.LatestStart} {
		s := &Schedule{OfferID: 1, Start: start, Energy: full}
		if err := f.ValidateSchedule(s); err != nil {
			t.Errorf("boundary start %d rejected: %v", start, err)
		}
	}
}

func TestDefaultSchedule(t *testing.T) {
	f := evOffer()
	s := f.DefaultSchedule()
	if err := f.ValidateSchedule(s); err != nil {
		t.Fatalf("default schedule invalid: %v", err)
	}
	if s.Start != f.EarliestStart {
		t.Errorf("default start = %d, want earliest %d", s.Start, f.EarliestStart)
	}
	if s.TotalEnergy() != f.MaxTotalEnergy() {
		t.Errorf("default energy = %g, want max %g", s.TotalEnergy(), f.MaxTotalEnergy())
	}
}

func TestCloneIndependence(t *testing.T) {
	f := evOffer()
	c := f.Clone()
	c.Profile[0].EnergyMax = 999
	c.LatestStart = 1
	if f.Profile[0].EnergyMax == 999 || f.LatestStart == 1 {
		t.Error("Clone shares state with original")
	}
}

func TestProductionOffer(t *testing.T) {
	// A PV producer issues a flex-offer with negative energies; the model
	// must treat it like consumption (paper: "treated equivalently").
	f := &FlexOffer{
		ID:            7,
		EarliestStart: 40,
		LatestStart:   44,
		AssignBefore:  40,
		Profile:       []Slice{{EnergyMin: -3, EnergyMax: -1}, {EnergyMin: -3, EnergyMax: 0}},
	}
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
	if f.MinTotalEnergy() != -6 || f.MaxTotalEnergy() != -1 {
		t.Errorf("production energies = [%g, %g]", f.MinTotalEnergy(), f.MaxTotalEnergy())
	}
	s := &Schedule{OfferID: 7, Start: 42, Energy: []float64{-2, -1.5}}
	if err := f.ValidateSchedule(s); err != nil {
		t.Errorf("production schedule rejected: %v", err)
	}
}

// RandomOffer builds a random valid flex-offer; shared with other
// packages' tests via this exported test helper pattern.
func RandomOffer(rng *rand.Rand, id ID) *FlexOffer {
	n := 1 + rng.Intn(10)
	profile := make([]Slice, n)
	for i := range profile {
		lo := rng.Float64()*4 - 1
		profile[i] = Slice{EnergyMin: lo, EnergyMax: lo + rng.Float64()*3}
	}
	es := Time(rng.Intn(1000))
	return &FlexOffer{
		ID:            id,
		EarliestStart: es,
		LatestStart:   es + Time(rng.Intn(100)),
		AssignBefore:  es - Time(rng.Intn(50)),
		Profile:       profile,
	}
}

// Property: DefaultSchedule is always valid for random valid offers.
func TestPropertyDefaultScheduleValid(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		off := RandomOffer(rng, ID(seed))
		if off.Validate() != nil {
			return false
		}
		return off.ValidateSchedule(off.DefaultSchedule()) == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: energy flexibility equals max total − min total energy.
func TestPropertyEnergyFlexibilityConsistent(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		off := RandomOffer(rng, 1)
		diff := off.MaxTotalEnergy() - off.MinTotalEnergy()
		return abs(off.EnergyFlexibility()-diff) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
