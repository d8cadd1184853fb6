package forecast

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"mirabel/internal/optimize"
)

// refHWT is the HWT kernel as it stood before the estimation kernel was
// made allocation-free: Init recomputes the seeding on every call,
// Update and OneStep index every seasonal ring with t % period (t, the
// observations consumed, is a field the ring positions replaced), and the
// objective clones a prototype and forecasts through Forecast(1)[0]. The
// bodies below are that code verbatim (receiver type renamed); the tests
// in this file require the production kernel to produce the same floats,
// compared with ==.
type refHWT struct {
	periods    []int
	alpha, phi float64
	gammas     []float64
	level      float64
	seasonal   [][]float64
	t          int
	lastErr    float64
	resVar     float64
	ready      bool
}

func newRefHWT(periods ...int) *refHWT {
	m := &refHWT{
		periods: append([]int(nil), periods...),
		alpha:   0.1,
		phi:     0.3,
		gammas:  make([]float64, len(periods)),
	}
	for i := range m.gammas {
		m.gammas[i] = 0.05
	}
	m.seasonal = make([][]float64, len(periods))
	for i, p := range periods {
		m.seasonal[i] = make([]float64, p)
	}
	return m
}

func (m *refHWT) SetParams(p []float64) error {
	if len(p) != 2+len(m.periods) {
		return fmt.Errorf("forecast: HWT wants %d parameters, got %d", 2+len(m.periods), len(p))
	}
	for i, v := range p {
		if v < 0 || v > 1 || math.IsNaN(v) {
			return fmt.Errorf("forecast: HWT parameter %d = %g outside [0,1]", i, v)
		}
	}
	m.alpha = p[0]
	m.phi = p[1]
	copy(m.gammas, p[2:])
	return nil
}

func (m *refHWT) Init(history []float64) error {
	longest := m.periods[len(m.periods)-1]
	if len(history) < longest {
		return fmt.Errorf("forecast: HWT init needs ≥ %d observations, got %d", longest, len(history))
	}
	var mean float64
	for _, y := range history {
		mean += y
	}
	mean /= float64(len(history))
	m.level = mean

	// Seed each seasonal component with the average deviation from the
	// mean at that season position. Components for shorter periods are
	// seeded first; longer periods absorb the residual structure.
	residual := make([]float64, len(history))
	for i, y := range history {
		residual[i] = y - mean
	}
	for i, p := range m.periods {
		sums := make([]float64, p)
		counts := make([]int, p)
		for j, r := range residual {
			sums[j%p] += r
			counts[j%p]++
		}
		for k := 0; k < p; k++ {
			if counts[k] > 0 {
				m.seasonal[i][k] = sums[k] / float64(counts[k])
			}
		}
		// Remove this component from the residual before seeding the
		// next, so components do not double-count structure.
		for j := range residual {
			residual[j] -= m.seasonal[i][j%p]
		}
	}

	m.t = 0
	m.lastErr = 0
	m.ready = true
	for _, y := range history {
		m.Update(y)
	}
	return nil
}

func (m *refHWT) seasonalAt(i, k int) float64 {
	p := m.periods[i]
	return m.seasonal[i][(m.t+k)%p]
}

func (m *refHWT) OneStep() float64 {
	v := m.level
	for i := range m.periods {
		v += m.seasonalAt(i, 0)
	}
	return v + m.phi*m.lastErr
}

func (m *refHWT) Update(y float64) {
	if !m.ready {
		// Without Init, bootstrap level from the first observation.
		m.level = y
		m.ready = true
	}
	// One-step-ahead prediction before state update, for the AR term.
	pred := m.OneStep()

	var seasonalSum float64
	for i := range m.periods {
		seasonalSum += m.seasonalAt(i, 0)
	}
	newLevel := m.alpha*(y-seasonalSum) + (1-m.alpha)*m.level

	for i := range m.periods {
		others := seasonalSum - m.seasonalAt(i, 0)
		p := m.periods[i]
		idx := m.t % p
		m.seasonal[i][idx] = m.gammas[i]*(y-newLevel-others) + (1-m.gammas[i])*m.seasonal[i][idx]
	}
	m.level = newLevel
	m.lastErr = y - pred
	// Smoothed residual variance feeds the prediction intervals.
	const varAlpha = 0.02
	m.resVar += varAlpha * (m.lastErr*m.lastErr - m.resVar)
	m.t++
}

func (m *refHWT) Forecast(h int) []float64 {
	out := make([]float64, h)
	for k := 0; k < h; k++ {
		v := m.level
		for i := range m.periods {
			v += m.seasonalAt(i, k)
		}
		v += math.Pow(m.phi, float64(k+1)) * m.lastErr
		out[k] = v
	}
	return out
}

func (m *refHWT) clone() *refHWT {
	c := *m
	c.gammas = append([]float64(nil), m.gammas...)
	c.seasonal = make([][]float64, len(m.seasonal))
	for i, s := range m.seasonal {
		c.seasonal[i] = append([]float64(nil), s...)
	}
	return &c
}

func refHWTObjective(proto *refHWT, history []float64, split int, p []float64) float64 {
	m := proto.clone()
	if err := m.SetParams(p); err != nil {
		return 1 // worst SMAPE
	}
	if err := m.Init(history[:split]); err != nil {
		return 1
	}
	var smape float64
	n := 0
	for _, y := range history[split:] {
		pred := m.Forecast(1)[0]
		if denom := abs(y) + abs(pred); denom > 0 {
			smape += abs(y-pred) / denom
		}
		m.Update(y)
		n++
	}
	if n == 0 {
		return 1
	}
	return smape / float64(n)
}

// requireSameState compares every state field of the production model
// with the reference, with ==.
func requireSameState(t *testing.T, when string, m *HWT, ref *refHWT) {
	t.Helper()
	if m.alpha != ref.alpha || m.phi != ref.phi || m.level != ref.level ||
		m.lastErr != ref.lastErr || m.ready != ref.ready {
		t.Fatalf("%s: scalar state differs:\n got α=%v φ=%v level=%v lastErr=%v ready=%v\nwant α=%v φ=%v level=%v lastErr=%v ready=%v",
			when, m.alpha, m.phi, m.level, m.lastErr, m.ready,
			ref.alpha, ref.phi, ref.level, ref.lastErr, ref.ready)
	}
	for i, p := range m.periods {
		if m.gammas[i] != ref.gammas[i] {
			t.Fatalf("%s: γ_%d = %v, want %v", when, i, m.gammas[i], ref.gammas[i])
		}
		if m.pos[i] != ref.t%p {
			t.Fatalf("%s: ring position %d = %d, want t %% %d = %d", when, i, m.pos[i], p, ref.t%p)
		}
		for k := range m.seasonal[i] {
			if m.seasonal[i][k] != ref.seasonal[i][k] {
				t.Fatalf("%s: seasonal[%d][%d] = %v, want %v", when, i, k, m.seasonal[i][k], ref.seasonal[i][k])
			}
		}
	}
	if got, want := m.Forecast(1)[0], ref.OneStep(); got != want {
		t.Fatalf("%s: Forecast(1)[0] = %v, want reference OneStep = %v", when, got, want)
	}
	if got, want := m.Forecast(1)[0], ref.Forecast(1)[0]; got != want {
		t.Fatalf("%s: Forecast(1)[0] = %v, want reference Forecast(1)[0] = %v", when, got, want)
	}
}

var kernelShapes = [][]int{{48}, {7}, {8, 24}, {24, 8}, {4, 12, 36}, {5, 7, 11}}

// TestKernelStateSameFloats drives the production model and the
// reference through the same random interleaving of Init, Update and
// clone (cold-start updates included) and compares every state field
// after every operation.
func TestKernelStateSameFloats(t *testing.T) {
	for _, periods := range kernelShapes {
		rng := rand.New(rand.NewSource(int64(len(periods)*100 + periods[0])))
		m, err := NewHWT(periods...)
		if err != nil {
			t.Fatal(err)
		}
		ref := newRefHWT(periods...)
		longest := longestPeriod(periods)
		for op := 0; op < 400; op++ {
			when := fmt.Sprintf("periods %v op %d", periods, op)
			switch r := rng.Intn(20); {
			case r == 0: // re-initialise on a fresh window, new parameters
				params := make([]float64, m.NumParams())
				for i := range params {
					params[i] = rng.Float64()
				}
				hist := noisySeasonal(rng.Int63(), longest+rng.Intn(3*longest), periods...)
				if err := m.SetParams(params); err != nil {
					t.Fatal(err)
				}
				if err := ref.SetParams(params); err != nil {
					t.Fatal(err)
				}
				if err := m.Init(hist); err != nil {
					t.Fatal(err)
				}
				if err := ref.Init(hist); err != nil {
					t.Fatal(err)
				}
				when += " (Init)"
			case r == 1: // continue on deep copies
				m, ref = m.clone(), ref.clone()
				when += " (clone)"
			default:
				y := 10 + 4*rng.NormFloat64()
				m.Update(y)
				ref.Update(y)
			}
			requireSameState(t, when, m, ref)
		}
	}
}

// TestObjectiveSameFloats evaluates the estimation objective at random
// parameter vectors (corners and an out-of-range vector included) on 1-,
// 2- and 3-period models and requires the reference's value, bit for
// bit. One objective value serves many evaluations, as inside FitHWT, so
// state left behind by one evaluation would show in the next.
func TestObjectiveSameFloats(t *testing.T) {
	for _, periods := range kernelShapes {
		longest := longestPeriod(periods)
		history := noisySeasonal(int64(longest), 4*longest, periods...)
		split := 3 * longest
		obj, err := newHWTObjective(periods, history, split)
		if err != nil {
			t.Fatal(err)
		}
		proto := newRefHWT(periods...)
		rng := rand.New(rand.NewSource(int64(periods[0])))
		dim := 2 + len(periods)
		for trial := 0; trial < 300; trial++ {
			p := make([]float64, dim)
			for i := range p {
				switch rng.Intn(8) {
				case 0:
					p[i] = 0
				case 1:
					p[i] = 1
				default:
					p[i] = rng.Float64()
				}
			}
			if trial == 17 {
				p[0] = 1.5 // SetParams rejects it: worst SMAPE in both
			}
			if got, want := obj.eval(p), refHWTObjective(proto, history, split, p); got != want {
				t.Fatalf("periods %v trial %d p=%v: objective = %v, want %v", periods, trial, p, got, want)
			}
		}
	}
}

// TestFitHWTGoldens pins FitHWT's result on seeded histories to the
// values the pre-kernel code produced (commit 5531b2a): same best point,
// same objective value, same number of evaluations — the estimators
// visit exactly the points they visited before.
func TestFitHWTGoldens(t *testing.T) {
	for _, tc := range []struct {
		name    string
		history []float64
		periods []int
		cfg     FitConfig
		x       []float64
		value   float64
		evals   int
		oneStep float64
	}{
		{
			name: "period 48, default budget", history: noisySeasonal(1, 192, 48), periods: []int{48},
			cfg: FitConfig{Options: optimize.Options{Seed: 1}},
			x:   []float64{0, 0.18701405954289974, 0.009090156864042392}, value: 0.029352391919276435, evals: 6001,
			oneStep: 10.151322247327725,
		},
		{
			name: "period 48, warm start", history: noisySeasonal(1, 192, 48), periods: []int{48},
			cfg: FitConfig{Options: optimize.Options{Seed: 1}, Start: []float64{0.1, 0.3, 0.05}},
			x:   []float64{0, 0.18701405954289974, 0.009090156864042392}, value: 0.029352391919276435, evals: 6000,
			oneStep: 10.151322247327725,
		},
		{
			name: "period 48, local descent", history: noisySeasonal(2, 192, 48), periods: []int{48},
			cfg: FitConfig{Estimator: &optimize.NelderMead{}, Start: []float64{0.1, 0.3, 0.05}},
			x:   []float64{3.823756731028217e-17, 0, 0.29066170551567827}, value: 0.028730839230664895, evals: 107,
			oneStep: 10.376868961869478,
		},
		{
			name: "periods 8 and 24", history: noisySeasonal(3, 96, 8, 24), periods: []int{8, 24},
			cfg:   FitConfig{Options: optimize.Options{Seed: 5, MaxEvaluations: 1500}},
			x:     []float64{0.023996499026348914, 3.050214233387975e-07, 0.05444405443955474, 0.011925229918579434},
			value: 0.02112944486743143, evals: 1500, oneStep: 9.420126124765009,
		},
		{
			name: "periods 4, 12 and 36", history: noisySeasonal(4, 144, 4, 12, 36), periods: []int{4, 12, 36},
			cfg:   FitConfig{Options: optimize.Options{Seed: 9, MaxEvaluations: 1200}},
			x:     []float64{0.003927427938235953, 0.0024327364491417264, 0.4306729677370079, 0.07113910612764568, 0.17617358319277895},
			value: 0.02576100863396135, evals: 1201, oneStep: 10.29718519024918,
		},
	} {
		m, res, err := FitHWT(tc.history, tc.periods, tc.cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if len(res.X) != len(tc.x) {
			t.Fatalf("%s: X = %v, want %v", tc.name, res.X, tc.x)
		}
		for i := range tc.x {
			if res.X[i] != tc.x[i] {
				t.Errorf("%s: X[%d] = %v, want %v", tc.name, i, res.X[i], tc.x[i])
			}
		}
		if res.Value != tc.value {
			t.Errorf("%s: Value = %v, want %v", tc.name, res.Value, tc.value)
		}
		if res.Evaluations != tc.evals {
			t.Errorf("%s: Evaluations = %d, want %d", tc.name, res.Evaluations, tc.evals)
		}
		if got := m.Forecast(1)[0]; got != tc.oneStep {
			t.Errorf("%s: fitted model Forecast(1)[0] = %v, want %v", tc.name, got, tc.oneStep)
		}
	}
}
