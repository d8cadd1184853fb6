// Package forecast implements the MIRABEL forecasting component (paper
// §5): the energy-domain Triple Seasonality Holt-Winters model HWT
// [Taylor 2009], transparent model creation with global parameter
// estimation, continuous model maintenance with a time-based evaluation
// strategy, and context-aware model adaptation (a case-based parameter
// repository). The paper's second model type, EGRV, is not implemented:
// the registry has no temperature feed for it (README "Forecasting").
package forecast

import (
	"errors"
	"fmt"
	"math"
)

// HWT is the exponential smoothing model tailor-made for the energy
// domain: Taylor's multi-seasonal Holt-Winters with additive seasonal
// components and a first-order autoregressive residual correction. The
// classic "triple seasonality" instance uses intra-day, intra-week and
// intra-year periods; any non-empty subset works. An HWT is not safe for
// concurrent use; the registry wraps each series' model in a Maintainer
// for concurrent producers and consumers.
//
// State equations (additive form, no trend — energy series are
// trend-stationary at these horizons):
//
//	level_t = α·(y_t − Σ s_i) + (1−α)·level_{t−1}
//	s_i,t   = γ_i·(y_t − level_t − Σ_{j≠i} s_j) + (1−γ_i)·s_i,t−m_i
//	ŷ_t+k   = level_t + Σ s_i,t−m_i+k + φ^k·e_t
//
// where e_t is the last one-step-ahead error.
type HWT struct {
	periods []int // seasonal cycle lengths, e.g. {48, 336} for half-hourly

	// Smoothing parameters: level α, AR coefficient φ, one γ per period.
	alpha, phi float64
	gammas     []float64

	level    float64
	seasonal [][]float64 // ring buffer per period
	pos      []int       // ring slot of the next observation: observations consumed mod period
	lastErr  float64     // one-step-ahead residual
	ready    bool
}

// NewHWT creates an HWT model with the given seasonal periods (longest
// common use: 48 and 336 for half-hourly data with daily and weekly
// cycles). Parameters start at robust defaults; use SetParams or FitHWT
// for estimation.
func NewHWT(periods ...int) (*HWT, error) {
	if len(periods) == 0 {
		return nil, errors.New("forecast: HWT needs at least one seasonal period")
	}
	for _, p := range periods {
		if p < 2 {
			return nil, fmt.Errorf("forecast: invalid seasonal period %d", p)
		}
	}
	born := defaultParams(len(periods))
	m := &HWT{
		periods: append([]int(nil), periods...),
		alpha:   born[0],
		phi:     born[1],
		gammas:  born[2:],
	}
	m.seasonal = make([][]float64, len(periods))
	for i, p := range periods {
		m.seasonal[i] = make([]float64, p)
	}
	m.pos = make([]int, len(periods))
	return m, nil
}

// defaultParams is the parameter vector [α, φ, γ_1..γ_n] a model with n
// seasonal periods is born with.
func defaultParams(n int) []float64 {
	p := make([]float64, 2+n)
	p[0], p[1] = 0.1, 0.3
	for i := 2; i < len(p); i++ {
		p[i] = 0.05
	}
	return p
}

// longestPeriod returns the longest seasonal cycle — the unit every
// minimum-history rule is stated in. Periods need not be sorted.
func longestPeriod(periods []int) int {
	longest := 0
	for _, p := range periods {
		if p > longest {
			longest = p
		}
	}
	return longest
}

// NumParams returns the length of the parameter vector:
// [α, φ, γ_1..γ_n].
func (m *HWT) NumParams() int { return 2 + len(m.periods) }

// Params returns the current parameter vector [α, φ, γ_1..γ_n].
func (m *HWT) Params() []float64 {
	out := make([]float64, 0, m.NumParams())
	out = append(out, m.alpha, m.phi)
	return append(out, m.gammas...)
}

// SetParams installs a parameter vector as returned by Params. All
// values must lie in [0, 1].
func (m *HWT) SetParams(p []float64) error {
	if len(p) != m.NumParams() {
		return fmt.Errorf("forecast: HWT wants %d parameters, got %d", m.NumParams(), len(p))
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

// Init seeds level and seasonal components from a history window and
// replays the window through Update so the smoothing state is warm. The
// history should cover at least two of the longest seasonal cycles.
func (m *HWT) Init(history []float64) error {
	if err := m.seed(history); err != nil {
		return err
	}
	m.replay(history)
	return nil
}

// seed is the parameter-independent half of Init: the level starts at
// the history mean and each seasonal component at the average deviation
// from it per season position. Nothing here reads α, φ or γ, so one
// estimation seeds once and every objective evaluation starts from a
// copy (copySeed) instead of recomputing it.
func (m *HWT) seed(history []float64) error {
	longest := longestPeriod(m.periods)
	if len(history) < longest {
		return fmt.Errorf("forecast: HWT init needs ≥ %d observations, got %d", longest, len(history))
	}
	var mean float64
	for _, y := range history {
		mean += y
	}
	mean /= float64(len(history))
	m.level = mean

	// Components for shorter periods are seeded first; longer periods
	// absorb the residual structure.
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
	return nil
}

// copySeed overwrites m's level and seasonal components with those of a
// seeded model of the same periods, allocation-free.
func (m *HWT) copySeed(seeded *HWT) {
	m.level = seeded.level
	for i, s := range seeded.seasonal {
		copy(m.seasonal[i], s)
	}
}

// replay is the parameter-dependent half of Init: it rewinds the clock
// and the AR residual, then smooths the seeded state over the history
// with the current α, φ and γ.
func (m *HWT) replay(history []float64) {
	for i := range m.pos {
		m.pos[i] = 0
	}
	m.lastErr = 0
	m.ready = true
	for _, y := range history {
		m.step(y)
	}
}

// seasonalAt returns component i's value k steps ahead of the current
// time (k = 0 means the value that applies to the next observation).
func (m *HWT) seasonalAt(i, k int) float64 {
	return m.seasonal[i][(m.pos[i]+k)%m.periods[i]]
}

// Update consumes the next observation of the series.
func (m *HWT) Update(y float64) { m.step(y) }

// step consumes observation y and returns the one-step-ahead prediction
// the model made for it — Forecast(1)[0] then Update(y) in one pass over
// the components, which is what the estimation objective needs per
// observation; the maintenance path runs it too. Every component is
// read and written at its ring position pos[i], advanced with a compare
// instead of the t % period division per component per step.
func (m *HWT) step(y float64) float64 {
	if !m.ready {
		// Without Init, bootstrap level from the first observation.
		m.level = y
		m.ready = true
	}
	// One-step-ahead prediction before state update, for the AR term.
	pred := m.level
	var seasonalSum float64
	for i, s := range m.seasonal {
		cur := s[m.pos[i]]
		pred += cur
		seasonalSum += cur
	}
	pred += m.phi * m.lastErr
	newLevel := m.alpha*(y-seasonalSum) + (1-m.alpha)*m.level

	for i, s := range m.seasonal {
		idx, gamma := m.pos[i], m.gammas[i]
		cur := s[idx]
		others := seasonalSum - cur
		s[idx] = gamma*(y-newLevel-others) + (1-gamma)*cur
		if idx++; idx == len(s) {
			idx = 0
		}
		m.pos[i] = idx
	}
	m.level = newLevel
	m.lastErr = y - pred
	return pred
}

// Forecast predicts the next h values after the last observation.
func (m *HWT) Forecast(h int) []float64 {
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

// clone returns a deep copy sharing no state with m.
func (m *HWT) clone() *HWT {
	c := *m
	c.gammas = append([]float64(nil), m.gammas...)
	c.pos = append([]int(nil), m.pos...)
	c.seasonal = make([][]float64, len(m.seasonal))
	for i, s := range m.seasonal {
		c.seasonal[i] = append([]float64(nil), s...)
	}
	return &c
}
