package forecast

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"mirabel/internal/store"
)

// SeriesKey identifies one maintained series: the per-(actor, energy
// type) granularity the store already shards measurements by.
type SeriesKey struct {
	Actor      string
	EnergyType string
}

// RegistryConfig assembles a Registry.
type RegistryConfig struct {
	// Shards is the stripe count of the series tables (rounded up to a
	// power of two, default 32 — mirroring internal/store's layout).
	Shards int
	// Periods are the seasonal cycle lengths of every maintained HWT
	// model (default {48}: daily seasonality at half-hourly resolution).
	Periods []int
	// MinObservations is the warm-up length before a model is created
	// for a new series (clamped to the FitHWT minimum, 1.5 longest
	// periods).
	MinObservations int
	// MaxHistory bounds each series' retained history window (default 4
	// longest periods).
	MaxHistory int
	// FitCfg is the estimation budget for re-estimations.
	FitCfg FitConfig
	// Workers sizes the background re-estimation pool (default 1).
	Workers int
	// QueueDepth bounds the refit request queue (default 1024). A full
	// queue never blocks updates: the request is dropped, counted as an
	// overflow, and the series' next observation re-triggers it.
	QueueDepth int
}

// RegistryStats is a point-in-time snapshot of the registry.
type RegistryStats struct {
	Series       int    // keys seen (warming + modelled)
	Models       int    // series past warm-up with a live model
	Observations uint64 // measurements consumed

	RefitsEnqueued uint64
	RefitsDone     uint64
	RefitsFailed   uint64
	QueueOverflows uint64
	QueueDepth     int // requests currently queued
	QueueCap       int
	Workers        int

	// RefitP50/P95/P99 are refit latencies since NewRegistry,
	// bucketed: each reads high by at most 1/8.
	RefitP50, RefitP95, RefitP99 time.Duration

	// Staleness: observations since the last installed re-estimation,
	// aggregated over all modelled series.
	MaxStaleness  int64
	MeanStaleness float64
}

// Registry is the fleet-scale forecast service: per-(actor,energy)
// maintained models in stripe-locked tables, lazy model creation on
// first measurements, allocation-free batched updates, and asynchronous
// parameter re-estimation on a bounded worker pool. It is safe for
// concurrent use and sized for 10⁵–10⁶ resident series.
type Registry struct {
	cfg    RegistryConfig
	mask   uint64
	shards []registryShard
	sweep  *sweeper
	repo   *ContextRepository // shared by every maintainer (see maybeCreateLocked)
	// refitEvery is every series' re-estimation interval in
	// observations: 2 longest periods (0: never).
	refitEvery int

	nSeries      atomic.Int64
	nModels      atomic.Int64
	observations atomic.Uint64
}

type registryShard struct {
	mu sync.RWMutex
	m  map[SeriesKey]*Series
}

// Series is one maintained (actor, energy type) stream. Before the
// model exists, observations accumulate in a warm-up buffer; at
// MinObservations the model is created transparently (paper §5:
// "transparent model creation") and the warm-up data seeds its state.
type Series struct {
	Key SeriesKey
	reg *Registry

	mu   sync.Mutex // guards the warm-up phase only
	warm []float64

	mt atomic.Pointer[Maintainer] // non-nil once the model exists
}

// NewRegistry validates the configuration, applies defaults and starts
// the background re-estimation pool.
func NewRegistry(cfg RegistryConfig) (*Registry, error) {
	if len(cfg.Periods) == 0 {
		cfg.Periods = []int{48}
	}
	if _, err := NewHWT(cfg.Periods...); err != nil {
		return nil, err
	}
	longest := longestPeriod(cfg.Periods)
	if minFit := longest + longest/2; cfg.MinObservations < minFit {
		cfg.MinObservations = minFit
	}
	if cfg.MaxHistory <= 0 {
		cfg.MaxHistory = 4 * longest
	}
	if cfg.MaxHistory < cfg.MinObservations {
		cfg.MaxHistory = cfg.MinObservations
	}
	if cfg.Shards <= 0 {
		cfg.Shards = 32
	}
	n := 1
	for n < cfg.Shards {
		n <<= 1
	}
	if cfg.Workers <= 0 {
		// Re-estimation is CPU-bound and arrives in bursts (a fleet's
		// series cross their refit thresholds together), and a pool as
		// wide as the machine starves intake, planning and settlement
		// for the length of every burst. One worker is the width
		// measured (2-core host, bench workload lifecycle, 320 series):
		// model creation costs it one global search per energy type and
		// a descent from the stored case for every other series, ~60 ms
		// for the fleet, and all re-estimation keeps it busy ~0.8 s of
		// a 10 s window; wider pools are for hosts where someone has
		// measured them.
		cfg.Workers = 1
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 1024
	}
	r := &Registry{
		cfg:        cfg,
		mask:       uint64(n - 1),
		shards:     make([]registryShard, n),
		repo:       NewContextRepository(),
		refitEvery: 2 * longest,
	}
	for i := range r.shards {
		r.shards[i].m = make(map[SeriesKey]*Series)
	}
	r.sweep = newSweeper(cfg.Workers, cfg.QueueDepth)
	return r, nil
}

// hashSeriesKey is FNV-1a over actor then energy type, with a splitmix
// finalizer — the same stripe-selection recipe internal/store uses.
func hashSeriesKey(actor, energy string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(actor); i++ {
		h ^= uint64(actor[i])
		h *= prime64
	}
	h ^= 0xff // separator so ("ab","c") and ("a","bc") differ
	h *= prime64
	for i := 0; i < len(energy); i++ {
		h ^= uint64(energy[i])
		h *= prime64
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h
}

// Series returns the maintained series for the key, creating the
// (model-less) entry on first sight.
func (r *Registry) Series(actor, energy string) *Series {
	sh := &r.shards[hashSeriesKey(actor, energy)&r.mask]
	key := SeriesKey{Actor: actor, EnergyType: energy}
	sh.mu.RLock()
	s := sh.m[key]
	sh.mu.RUnlock()
	if s != nil {
		return s
	}
	sh.mu.Lock()
	if s = sh.m[key]; s == nil {
		s = &Series{Key: key, reg: r}
		sh.m[key] = s
		r.nSeries.Add(1)
	}
	sh.mu.Unlock()
	return s
}

// Lookup returns the series for the key without creating it.
func (r *Registry) Lookup(actor, energy string) (*Series, bool) {
	sh := &r.shards[hashSeriesKey(actor, energy)&r.mask]
	sh.mu.RLock()
	s, ok := sh.m[SeriesKey{Actor: actor, EnergyType: energy}]
	sh.mu.RUnlock()
	return s, ok
}

// UpdateMeasurements feeds a measurement batch into the fleet. The
// batch is split into consecutive runs of equal keys (the order batches
// naturally arrive in), and each run updates its series under a single
// lock acquisition — the registry hot path, allocation-free per
// observation once a series' model exists.
func (r *Registry) UpdateMeasurements(ms []store.Measurement) {
	for i := 0; i < len(ms); {
		j := i + 1
		for j < len(ms) && ms[j].Actor == ms[i].Actor && ms[j].EnergyType == ms[i].EnergyType {
			j++
		}
		r.Series(ms[i].Actor, ms[i].EnergyType).consumeRun(ms[i:j])
		i = j
	}
	r.observations.Add(uint64(len(ms)))
}

// Forecast serves the next h values of a series. ok is false while the
// series is unknown or still warming up.
func (r *Registry) Forecast(actor, energy string, h int) (values []float64, ok bool) {
	s, found := r.Lookup(actor, energy)
	if !found {
		return nil, false
	}
	mt := s.mt.Load()
	if mt == nil {
		return nil, false
	}
	return mt.Forecast(h), true
}

// consumeRun applies a run of same-key measurements.
func (s *Series) consumeRun(ms []store.Measurement) {
	if mt := s.mt.Load(); mt != nil {
		updateRun(mt, ms)
		return
	}
	s.mu.Lock()
	if mt := s.mt.Load(); mt != nil {
		// Model appeared while we waited for the warm-up lock.
		s.mu.Unlock()
		updateRun(mt, ms)
		return
	}
	for i := range ms {
		s.warm = append(s.warm, ms[i].KWh)
	}
	s.maybeCreateLocked()
	s.mu.Unlock()
}

// updateRun pushes a measurement run through the maintainer under one
// lock acquisition (same-package access to the locked update loop, so
// no intermediate value slice is materialized).
func updateRun(mt *Maintainer, ms []store.Measurement) {
	mt.mu.Lock()
	for i := range ms {
		mt.updateLocked(ms[i].KWh)
	}
	mt.mu.Unlock()
}

// maybeCreateLocked creates the model once the warm-up buffer is long
// enough: an HWT seeded from the buffer with default parameters serves
// immediately, and the first real parameter estimation is queued to the
// background pool — transparent model creation without stalling the
// update path. That estimation is the global search only for the first
// series of its energy type; every later one adapts from the case the
// registry's repository holds (see Maintainer.refitConfigLocked).
// Caller holds s.mu.
func (s *Series) maybeCreateLocked() {
	cfg := &s.reg.cfg
	if len(s.warm) < cfg.MinObservations {
		return
	}
	model, err := NewHWT(cfg.Periods...)
	if err != nil {
		return // unreachable: periods validated in NewRegistry
	}
	if err := model.Init(s.warm); err != nil {
		return
	}
	mt := newMaintainer(model, s.warm, MaintainerConfig{
		FitCfg:     cfg.FitCfg,
		Repo:       s.reg.repo,
		Ctx:        Context{EnergyType: s.Key.EnergyType},
		MaxHistory: cfg.MaxHistory,
	}, s.reg.refitEvery, func() bool { return s.reg.sweep.enqueue(s) })
	s.warm = nil
	s.mt.Store(mt)
	s.reg.nModels.Add(1)
	// Replace the default parameters with properly estimated ones as
	// soon as a worker gets to it.
	if mt.refitPending.CompareAndSwap(false, true) {
		if !s.reg.sweep.enqueue(s) {
			mt.refitPending.Store(false)
		}
	}
}

// Stats snapshots registry counters, refit queue state and latency
// percentiles, and scans the shards for staleness aggregates.
func (r *Registry) Stats() RegistryStats {
	st := RegistryStats{
		Series:       int(r.nSeries.Load()),
		Models:       int(r.nModels.Load()),
		Observations: r.observations.Load(),
	}
	r.sweep.fill(&st)
	var sum int64
	var n int64
	for i := range r.shards {
		sh := &r.shards[i]
		sh.mu.RLock()
		for _, s := range sh.m {
			mt := s.mt.Load()
			if mt == nil {
				continue
			}
			stale := mt.Staleness()
			if stale > st.MaxStaleness {
				st.MaxStaleness = stale
			}
			sum += stale
			n++
		}
		sh.mu.RUnlock()
	}
	if n > 0 {
		st.MeanStaleness = float64(sum) / float64(n)
	}
	return st
}

// Quiesce blocks until the refit queue is empty and no refit is in
// flight, or the timeout elapses. Intended for tests and benchmarks.
func (r *Registry) Quiesce(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		if r.sweep.idle() {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("forecast: registry did not quiesce within %v", timeout)
		}
		time.Sleep(time.Millisecond)
	}
}

// Close stops the background workers (in-flight refits finish; queued
// requests are dropped).
func (r *Registry) Close() {
	r.sweep.close()
}
