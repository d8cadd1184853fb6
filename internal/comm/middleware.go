package comm

import (
	"context"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"mirabel/internal/obs"
)

// Middleware wraps a Handler with cross-cutting behaviour (recovery,
// logging, metrics, rate-limiting, ...). Middlewares compose with
// Chain and apply uniformly to every message type behind a Mux.
type Middleware func(Handler) Handler

// Chain wraps h in mw, outermost first: Chain(h, A, B) runs A(B(h)).
func Chain(h Handler, mw ...Middleware) Handler {
	for i := len(mw) - 1; i >= 0; i-- {
		if mw[i] != nil {
			h = mw[i](h)
		}
	}
	return h
}

// Recover converts a handler panic into an error, keeping one
// malformed message from taking down a node serving millions of peers.
func Recover() Middleware {
	return func(next Handler) Handler {
		return func(ctx context.Context, env Envelope) (reply *Envelope, err error) {
			defer func() {
				if r := recover(); r != nil {
					reply = nil
					err = fmt.Errorf("comm: handler panic on %s from %s: %v\n%s",
						env.Type, env.From, r, debug.Stack())
				}
			}()
			return next(ctx, env)
		}
	}
}

// Logging reports every handled message to logf with its type, sender,
// latency and outcome.
func Logging(logf func(format string, args ...any)) Middleware {
	return func(next Handler) Handler {
		return func(ctx context.Context, env Envelope) (*Envelope, error) {
			t0 := time.Now()
			reply, err := next(ctx, env)
			status := "ok"
			if err != nil {
				status = "error: " + err.Error()
			}
			logf("comm: %s from %s handled in %v (%s)", env.Type, env.From, time.Since(t0), status)
			return reply, err
		}
	}
}

// TypeMetrics accumulates per-message-type handler statistics.
type TypeMetrics struct {
	Handled    uint64        // messages processed
	Errors     uint64        // handler errors (including recovered panics)
	TotalTime  time.Duration // summed handler latency
	MaxLatency time.Duration // worst single handler latency
	// P50 and P99 are handler latencies since the first message,
	// bucketed: each reads high by at most 1/8.
	P50, P99 time.Duration
}

// Metrics counts handled messages per type; attach it to a handler
// chain with Collect. The zero value is ready to use and safe for
// concurrent handlers.
type Metrics struct {
	mu      sync.RWMutex
	perType map[MsgType]*typeCounters
}

type typeCounters struct {
	lat    obs.Histogram // handler latency (ns), one sample per message
	errors atomic.Uint64
}

func (m *Metrics) counters(t MsgType) *typeCounters {
	// Fast path: after warm-up the map is read-only, so the per-message
	// cost is a shared read lock plus atomics.
	m.mu.RLock()
	c, ok := m.perType[t]
	m.mu.RUnlock()
	if ok {
		return c
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.perType == nil {
		m.perType = make(map[MsgType]*typeCounters)
	}
	c, ok = m.perType[t]
	if !ok {
		c = &typeCounters{}
		m.perType[t] = c
	}
	return c
}

// Collect returns a Middleware recording each handled message into m.
func (m *Metrics) Collect() Middleware {
	return func(next Handler) Handler {
		return func(ctx context.Context, env Envelope) (*Envelope, error) {
			t0 := time.Now()
			reply, err := next(ctx, env)
			c := m.counters(env.Type)
			c.lat.Record(int64(time.Since(t0)))
			if err != nil {
				c.errors.Add(1)
			}
			return reply, err
		}
	}
}

// Snapshot returns a copy of the per-type statistics.
func (m *Metrics) Snapshot() map[MsgType]TypeMetrics {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[MsgType]TypeMetrics, len(m.perType))
	for t, c := range m.perType {
		out[t] = TypeMetrics{
			Handled:    c.lat.Count(),
			Errors:     c.errors.Load(),
			TotalTime:  time.Duration(c.lat.Sum()),
			MaxLatency: time.Duration(c.lat.Max()),
			P50:        time.Duration(c.lat.Quantile(0.50)),
			P99:        time.Duration(c.lat.Quantile(0.99)),
		}
	}
	return out
}
