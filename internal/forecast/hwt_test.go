package forecast

import (
	"math"
	"testing"
	"testing/quick"

	"mirabel/internal/optimize"
)

// synthSeasonal builds a noise-free series with daily (period 48) and
// weekly (period 336) additive structure.
func synthSeasonal(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		daily := 10 * math.Sin(2*math.Pi*float64(i%48)/48)
		weekly := 3 * math.Cos(2*math.Pi*float64(i%336)/336)
		out[i] = 100 + daily + weekly
	}
	return out
}

func TestNewHWTValidation(t *testing.T) {
	if _, err := NewHWT(); err == nil {
		t.Error("no periods should error")
	}
	if _, err := NewHWT(1); err == nil {
		t.Error("period 1 should error")
	}
	if _, err := NewHWT(48, 336); err != nil {
		t.Errorf("valid periods errored: %v", err)
	}
}

func TestHWTParamsRoundtrip(t *testing.T) {
	m, _ := NewHWT(48, 336)
	if m.NumParams() != 4 {
		t.Fatalf("NumParams = %d", m.NumParams())
	}
	want := []float64{0.2, 0.4, 0.1, 0.05}
	if err := m.SetParams(want); err != nil {
		t.Fatal(err)
	}
	got := m.Params()
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("param %d = %g, want %g", i, got[i], want[i])
		}
	}
}

func TestHWTSetParamsValidation(t *testing.T) {
	m, _ := NewHWT(48)
	if err := m.SetParams([]float64{0.1}); err == nil {
		t.Error("short vector should error")
	}
	if err := m.SetParams([]float64{0.1, -0.2, 0.3}); err == nil {
		t.Error("negative param should error")
	}
	if err := m.SetParams([]float64{0.1, 1.2, 0.3}); err == nil {
		t.Error("param > 1 should error")
	}
}

func TestHWTInitTooShort(t *testing.T) {
	m, _ := NewHWT(48, 336)
	if err := m.Init(make([]float64, 100)); err == nil {
		t.Error("init shorter than longest period should error")
	}
}

func TestHWTLearnsPureSeasonal(t *testing.T) {
	history := synthSeasonal(336 * 3)
	m, _ := NewHWT(48, 336)
	if err := m.SetParams([]float64{0.1, 0.0, 0.2, 0.2}); err != nil {
		t.Fatal(err)
	}
	if err := m.Init(history); err != nil {
		t.Fatal(err)
	}
	// Forecast a full day; compare with ground truth continuation.
	truth := synthSeasonal(336*3 + 48)[336*3:]
	fc := m.Forecast(48)
	smape := 0.0
	for i := range fc {
		smape += math.Abs(truth[i]-fc[i]) / (math.Abs(truth[i]) + math.Abs(fc[i]))
	}
	smape /= 48
	if smape > 0.01 {
		t.Errorf("SMAPE on pure seasonal = %g, want < 1%%", smape)
	}
}

func TestHWTForecastLengthAndDeterminism(t *testing.T) {
	m, _ := NewHWT(48)
	if err := m.Init(synthSeasonal(96)); err != nil {
		t.Fatal(err)
	}
	a := m.Forecast(10)
	b := m.Forecast(10)
	if len(a) != 10 {
		t.Fatalf("len = %d", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Error("Forecast mutated model state")
			break
		}
	}
}

func TestHWTUpdateWithoutInit(t *testing.T) {
	m, _ := NewHWT(4)
	m.Update(10)
	m.Update(12)
	fc := m.Forecast(2)
	if math.IsNaN(fc[0]) || math.IsNaN(fc[1]) {
		t.Error("forecast after cold-start updates is NaN")
	}
}

func TestHWTCloneIndependent(t *testing.T) {
	m, _ := NewHWT(4)
	if err := m.Init([]float64{1, 2, 3, 4, 1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	c := m.clone()
	c.Update(100)
	c.Update(100)
	if m.Forecast(1)[0] == c.Forecast(1)[0] {
		t.Error("clone shares state")
	}
}

func TestFitHWTRecoversAccuracy(t *testing.T) {
	history := synthSeasonal(336 * 2)
	// Add mild noise so the objective is non-degenerate.
	for i := range history {
		history[i] += math.Sin(float64(i) * 0.7) // deterministic pseudo-noise
	}
	m, res, err := FitHWT(history, []int{48, 336}, FitConfig{
		Options: optimize.Options{MaxEvaluations: 400, Seed: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Value > 0.02 {
		t.Errorf("fitted SMAPE = %g, want < 2%%", res.Value)
	}
	fc := m.Forecast(48)
	if len(fc) != 48 {
		t.Fatalf("forecast len = %d", len(fc))
	}
}

func TestFitHWTTooShort(t *testing.T) {
	if _, _, err := FitHWT(make([]float64, 100), []int{336}, FitConfig{}); err == nil {
		t.Error("short history should error")
	}
}

func TestHorizonSMAPEGrowsWithHorizon(t *testing.T) {
	// On a noisy series, far horizons must not be more accurate than
	// near ones (on average) — the paper's Fig 4b shape.
	n := 336 * 4
	history := make([]float64, n)
	state := 0.0
	for i := range history {
		state = 0.9*state + pseudoNoise(i)*5
		history[i] = 100 + 10*math.Sin(2*math.Pi*float64(i%48)/48) + state
	}
	split := n - 336
	m, _ := NewHWT(48)
	if err := m.Init(history[:split]); err != nil {
		t.Fatal(err)
	}
	short, err := HorizonSMAPE(m, history[split:], 1)
	if err != nil {
		t.Fatal(err)
	}
	long, err := HorizonSMAPE(m, history[split:], 96)
	if err != nil {
		t.Fatal(err)
	}
	if long < short {
		t.Errorf("96-step SMAPE %g < 1-step SMAPE %g", long, short)
	}
}

func TestHorizonSMAPEValidation(t *testing.T) {
	m, _ := NewHWT(4)
	if err := m.Init([]float64{1, 2, 3, 4, 1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	if _, err := HorizonSMAPE(m, []float64{1, 2}, 0); err == nil {
		t.Error("zero horizon should error")
	}
	if _, err := HorizonSMAPE(m, []float64{1, 2}, 5); err == nil {
		t.Error("window shorter than horizon should error")
	}
	// A window exactly h long scores one point.
	if _, err := HorizonSMAPE(m, []float64{1, 2}, 2); err != nil {
		t.Errorf("window of length h rejected: %v", err)
	}
	// Scoring leaves the caller's model where it was.
	before := m.Forecast(1)[0]
	if _, err := HorizonSMAPE(m, []float64{50, 60, 70}, 1); err != nil {
		t.Fatal(err)
	}
	if after := m.Forecast(1)[0]; after != before {
		t.Errorf("HorizonSMAPE advanced the caller's model: Forecast(1) %g -> %g", before, after)
	}
}

func pseudoNoise(i int) float64 {
	x := math.Sin(float64(i)*12.9898) * 43758.5453
	return x - math.Floor(x) - 0.5
}

// Property: HWT forecasts stay finite for any parameter vector in [0,1]
// and bounded inputs.
func TestPropertyHWTForecastFinite(t *testing.T) {
	f := func(a, p, g uint8) bool {
		m, _ := NewHWT(8)
		params := []float64{float64(a) / 255, float64(p) / 255, float64(g) / 255}
		if err := m.SetParams(params); err != nil {
			return false
		}
		hist := make([]float64, 32)
		for i := range hist {
			hist[i] = 50 + 10*math.Sin(float64(i))
		}
		if err := m.Init(hist); err != nil {
			return false
		}
		for _, v := range m.Forecast(24) {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
