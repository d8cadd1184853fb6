package forecast

import (
	"sync"
)

// Context describes the background situation a forecast model was
// estimated under (paper §5, Context-Aware Model Adaptation: "storing
// previous models in conjunction to their corresponding context
// information within a repository to reuse them whenever a similar
// context reoccurs" — a case-based-reasoning approach).
type Context struct {
	// EnergyType discriminates demand, wind supply, solar supply, ...
	EnergyType string
	// Season is the meteorological season (0 winter … 3 autumn).
	Season int
	// DayType discriminates workday (0), Saturday (1), Sun/holiday (2).
	DayType int
}

// contextCase is one stored case: a parameter vector and the training
// error it achieved.
type contextCase struct {
	params []float64
	err    float64
}

// ContextRepository is a thread-safe case base of previously estimated
// parameters keyed by context. Lookup prefers the exact context and falls
// back to the nearest stored case of the same energy type; a case of
// another energy type is never knowledge (demand parameters do not
// describe a PV series).
type ContextRepository struct {
	mu    sync.RWMutex
	cases map[Context]contextCase
}

// NewContextRepository returns an empty repository.
func NewContextRepository() *ContextRepository {
	return &ContextRepository{cases: make(map[Context]contextCase)}
}

// Store records the parameters estimated under ctx. A stored case is
// replaced only by a case with a lower training error, so the repository
// converges toward the best-known parameters per context.
func (r *ContextRepository) Store(ctx Context, params []float64, err float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if old, ok := r.cases[ctx]; ok && old.err <= err {
		return
	}
	r.cases[ctx] = contextCase{params: append([]float64(nil), params...), err: err}
}

// Lookup retrieves parameters for ctx: an exact hit, else the
// lowest-error case with the same energy type. The boolean reports
// whether anything was found; an energy type with no stored case finds
// nothing.
func (r *ContextRepository) Lookup(ctx Context) ([]float64, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if c, ok := r.cases[ctx]; ok {
		return append([]float64(nil), c.params...), true
	}
	var best *contextCase
	for k, c := range r.cases {
		if k.EnergyType != ctx.EnergyType {
			continue
		}
		if best == nil || c.err < best.err {
			cc := c
			best = &cc
		}
	}
	if best == nil {
		return nil, false
	}
	return append([]float64(nil), best.params...), true
}

// Len returns the number of stored cases.
func (r *ContextRepository) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.cases)
}
