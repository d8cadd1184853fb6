package comm

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"
)

// ErrBreakerOpen is returned by Breaker.Send/Request when the
// destination's circuit is open: the peer failed often enough recently
// that traffic to it is cut off until a probe succeeds. Match with
// errors.Is; fan-out callers count these as "skipped", not "failed" —
// graceful degradation instead of stalling on a dead peer.
var ErrBreakerOpen = errors.New("comm: circuit open")

// BreakerState is a destination circuit's position.
type BreakerState int

// Circuit states: Closed passes traffic, Open rejects it, HalfOpen lets
// exactly one trial through to decide between the other two.
const (
	BreakerClosed BreakerState = iota
	BreakerOpen
	BreakerHalfOpen
)

func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// BreakerConfig tunes the circuit breaker.
type BreakerConfig struct {
	// Origin is the From address stamped on probe pings (the wrapping
	// node's own name). Required for ProbeOpen.
	Origin string
	// Window is the per-destination sliding window of recent outcomes
	// (default 16).
	Window int
	// MinSamples is how many outcomes the window needs before the
	// failure rate is trusted (default 3): a single early error must
	// not trip the circuit.
	MinSamples int
	// FailureRate is the window failure fraction that opens the
	// circuit (default 0.5).
	FailureRate float64
	// Cooldown is how long an open circuit rejects traffic before one
	// half-open trial is allowed (default 5s).
	Cooldown time.Duration
}

func (c *BreakerConfig) fill() {
	if c.Window <= 0 {
		c.Window = 16
	}
	if c.MinSamples <= 0 {
		c.MinSamples = 3
	}
	if c.FailureRate <= 0 {
		c.FailureRate = 0.5
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 5 * time.Second
	}
}

// Breaker wraps a Transport with per-destination circuit breaking:
// closed circuits pass traffic and record outcomes over a sliding
// window; when the window's failure rate crosses FailureRate the
// circuit opens and calls fail fast with ErrBreakerOpen; after Cooldown
// one trial (a real call or a ProbeOpen ping) runs half-open — success
// re-closes the circuit, failure re-opens it.
//
// Outcome accounting is deliberately one-sided: the caller canceling
// its own context says nothing about the peer's health, so
// context.Canceled outcomes are not recorded (the half-open trial slot
// is released for the next attempt).
type Breaker struct {
	inner Transport
	cfg   BreakerConfig

	mu    sync.Mutex
	dests map[string]*circuit

	// now is a test seam.
	now func() time.Time
}

// circuit is one destination's state machine. Its mutex is held only
// for bookkeeping, never across network calls.
type circuit struct {
	mu       sync.Mutex
	state    BreakerState
	window   []bool // ring of outcomes, true = failure
	next     int
	count    int
	fails    int
	openedAt time.Time
	trialing bool // a half-open trial is in flight
}

// NewBreaker wraps inner with circuit breaking.
func NewBreaker(inner Transport, cfg BreakerConfig) *Breaker {
	cfg.fill()
	return &Breaker{inner: inner, cfg: cfg, dests: make(map[string]*circuit), now: time.Now}
}

func (b *Breaker) circuitFor(to string) *circuit {
	b.mu.Lock()
	defer b.mu.Unlock()
	c, ok := b.dests[to]
	if !ok {
		c = &circuit{window: make([]bool, b.cfg.Window)}
		b.dests[to] = c
	}
	return c
}

// allow decides whether one call may proceed, transitioning
// Open→HalfOpen when the cooldown has elapsed. In half-open, exactly
// one caller wins the trial slot.
func (c *circuit) allow(cfg BreakerConfig, now time.Time) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch c.state {
	case BreakerClosed:
		return true
	case BreakerOpen:
		if now.Sub(c.openedAt) < cfg.Cooldown {
			return false
		}
		c.state = BreakerHalfOpen
		c.trialing = true
		return true
	case BreakerHalfOpen:
		if c.trialing {
			return false
		}
		c.trialing = true
		return true
	}
	return true
}

// record feeds one call's outcome back into the state machine.
func (c *circuit) record(cfg BreakerConfig, err error, now time.Time) {
	// A canceled caller proves nothing about the peer: drop the
	// outcome, but free a held trial slot.
	if errors.Is(err, context.Canceled) {
		c.mu.Lock()
		c.trialing = false
		c.mu.Unlock()
		return
	}
	failed := err != nil
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.state == BreakerHalfOpen {
		c.trialing = false
		if failed {
			c.state = BreakerOpen
			c.openedAt = now
		} else {
			c.state = BreakerClosed
			c.reset()
		}
		return
	}
	if c.state == BreakerOpen {
		return // stale outcome from a call that raced the trip
	}
	if c.count < len(c.window) {
		c.count++
	} else if c.window[c.next] {
		c.fails--
	}
	c.window[c.next] = failed
	c.next = (c.next + 1) % len(c.window)
	if failed {
		c.fails++
	}
	if c.count >= cfg.MinSamples && float64(c.fails)/float64(c.count) >= cfg.FailureRate {
		c.state = BreakerOpen
		c.openedAt = now
		c.trialing = false
	}
}

func (c *circuit) reset() {
	for i := range c.window {
		c.window[i] = false
	}
	c.next, c.count, c.fails = 0, 0, 0
}

func (c *circuit) currentState() BreakerState {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.state
}

// Send implements Transport with circuit breaking.
func (b *Breaker) Send(ctx context.Context, to string, env Envelope) error {
	c := b.circuitFor(to)
	if !c.allow(b.cfg, b.now()) {
		return fmt.Errorf("%w: %s", ErrBreakerOpen, to)
	}
	err := b.inner.Send(ctx, to, env)
	c.record(b.cfg, err, b.now())
	return err
}

// Request implements Transport with circuit breaking.
func (b *Breaker) Request(ctx context.Context, to string, env Envelope) (Envelope, error) {
	c := b.circuitFor(to)
	if !c.allow(b.cfg, b.now()) {
		return Envelope{}, fmt.Errorf("%w: %s", ErrBreakerOpen, to)
	}
	reply, err := b.inner.Request(ctx, to, env)
	c.record(b.cfg, err, b.now())
	return reply, err
}

// Tripped lists destinations whose circuit is not closed, sorted.
func (b *Breaker) Tripped() []string {
	b.mu.Lock()
	names := make([]string, 0, len(b.dests))
	circuits := make([]*circuit, 0, len(b.dests))
	for name, c := range b.dests {
		names = append(names, name)
		circuits = append(circuits, c)
	}
	b.mu.Unlock()
	var out []string
	for i, c := range circuits {
		if c.currentState() != BreakerClosed {
			out = append(out, names[i])
		}
	}
	sort.Strings(out)
	return out
}

// ProbeOpen pings every tripped destination whose cooldown allows a
// half-open trial and feeds the outcomes back into the circuits; it
// returns the destinations that healed (circuit re-closed). Call it
// between delivery waves so dead peers rejoin without a live request
// paying the trial's latency.
func (b *Breaker) ProbeOpen(ctx context.Context) []string {
	tripped := b.Tripped()
	if len(tripped) == 0 {
		return nil
	}
	var (
		wg     sync.WaitGroup
		mu     sync.Mutex
		healed []string
	)
	for _, to := range tripped {
		c := b.circuitFor(to)
		if !c.allow(b.cfg, b.now()) {
			continue // still cooling down, or another trial is in flight
		}
		wg.Add(1)
		go func(to string, c *circuit) {
			defer wg.Done()
			env, err := NewEnvelope(MsgPing, b.cfg.Origin, to, nil)
			if err == nil {
				_, err = b.inner.Request(ctx, to, env)
			}
			c.record(b.cfg, err, b.now())
			if err == nil {
				mu.Lock()
				healed = append(healed, to)
				mu.Unlock()
			}
		}(to, c)
	}
	wg.Wait()
	sort.Strings(healed)
	return healed
}
