// Package chaos injects deterministic network and process faults into a
// running MIRABEL population so recovery guarantees can be asserted, not
// assumed.
//
// The two halves mirror the two failure domains:
//
//   - Injector wraps a comm.Transport and perturbs every Send/Request
//     with seeded message drops, ambiguous errors, latency (base +
//     jitter + spikes) and per-destination partitions. Fates are drawn
//     from splitmix64 streams keyed by (seed, destination, per-
//     destination op index), so two runs with the same seed and the
//     same per-destination traffic see bit-identical fault decisions —
//     a failing chaos run reproduces from its seed.
//
//   - Controller drives a parsed Schedule against registered node
//     hooks: opening and healing partitions at cycle boundaries and
//     crash-killing/restarting whole nodes mid-run.
//
// Fault classification follows the transport contract in comm: a drop
// or partition happens before the wire, so the error wraps
// comm.ErrNotSent (safe to retry anything); injected errors strike
// after delivery, so they stay ambiguous and only idempotent operations
// may retry through them.
package chaos

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"mirabel/internal/comm"
)

// Faults are an Injector's tunable fault rates. All fractions are in
// [0, 1]; zero values disable that fault kind.
type Faults struct {
	// DropFrac is the fraction of operations lost before the wire.
	DropFrac float64
	// ErrFrac is the fraction of operations that are delivered but
	// fail back to the caller with an ambiguous error.
	ErrFrac float64
	// SpikeFrac is the fraction of operations hit by a latency spike
	// of magnitude Spike on top of the base latency.
	SpikeFrac float64
	Spike     time.Duration
	// LatBase delays every operation; LatJitter adds a uniform extra
	// in [0, LatJitter).
	LatBase   time.Duration
	LatJitter time.Duration
}

// Stats counts what the injector actually did. With a fixed seed and
// fixed per-destination traffic, every field is reproducible.
type Stats struct {
	Ops         uint64 // operations that reached the injector
	Drops       uint64 // lost before the wire (ErrNotSent)
	Errors      uint64 // delivered, then failed ambiguously
	Spikes      uint64 // operations hit by a latency spike
	Partitioned uint64 // refused because the destination was cut off
}

// Injector is a comm.Transport middleware that perturbs traffic. Safe
// for concurrent use.
type Injector struct {
	inner comm.Transport
	seed  uint64
	f     Faults // fixed at construction, so read without mu

	mu    sync.RWMutex
	parts map[string]bool
	lanes map[string]*lane

	ops         atomic.Uint64
	drops       atomic.Uint64
	errs        atomic.Uint64
	spikes      atomic.Uint64
	partitioned atomic.Uint64
}

// lane is one destination's deterministic fate stream.
type lane struct {
	base uint64
	n    atomic.Uint64
}

// NewInjector wraps inner with seeded fault injection.
func NewInjector(inner comm.Transport, seed uint64, f Faults) *Injector {
	return &Injector{
		inner: inner,
		seed:  seed,
		f:     f,
		parts: make(map[string]bool),
		lanes: make(map[string]*lane),
	}
}

// Partition cuts every operation toward dest until Heal.
func (i *Injector) Partition(dest string) {
	i.mu.Lock()
	i.parts[dest] = true
	i.mu.Unlock()
}

// Heal reconnects dest.
func (i *Injector) Heal(dest string) {
	i.mu.Lock()
	delete(i.parts, dest)
	i.mu.Unlock()
}

// Stats snapshots the injection counters.
func (i *Injector) Stats() Stats {
	return Stats{
		Ops:         i.ops.Load(),
		Drops:       i.drops.Load(),
		Errors:      i.errs.Load(),
		Spikes:      i.spikes.Load(),
		Partitioned: i.partitioned.Load(),
	}
}

// splitmix64 is the same tiny generator the retry jitter uses: one
// 64-bit state in, one well-mixed 64-bit word out.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// fnv64 hashes a destination name into the lane seed.
func fnv64(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// u01 maps a 64-bit word to [0, 1).
func u01(x uint64) float64 {
	return float64(x>>11) / (1 << 53)
}

// fate is the deterministic verdict for one operation.
type fate struct {
	drop  bool
	err   bool
	spike bool
	delay time.Duration
}

func (i *Injector) laneFor(to string) *lane {
	i.mu.RLock()
	l := i.lanes[to]
	i.mu.RUnlock()
	if l != nil {
		return l
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	if l = i.lanes[to]; l == nil {
		l = &lane{base: splitmix64(i.seed ^ fnv64(to))}
		i.lanes[to] = l
	}
	return l
}

// decide draws one op's fate from the destination's stream. Four salted
// words per op keep the fault kinds independent of each other.
func (i *Injector) decide(to string) fate {
	f := &i.f
	l := i.laneFor(to)
	n := l.n.Add(1) - 1
	at := l.base + 4*n
	var ft fate
	ft.drop = f.DropFrac > 0 && u01(splitmix64(at)) < f.DropFrac
	ft.err = f.ErrFrac > 0 && u01(splitmix64(at+1)) < f.ErrFrac
	ft.spike = f.SpikeFrac > 0 && u01(splitmix64(at+2)) < f.SpikeFrac
	ft.delay = f.LatBase
	if f.LatJitter > 0 {
		ft.delay += time.Duration(u01(splitmix64(at+3)) * float64(f.LatJitter))
	}
	if ft.spike {
		ft.delay += f.Spike
	}
	return ft
}

// before runs the shared pre-wire fault path — partition check, fate
// draw, latency wait, drop — and returns the fate so the caller can
// apply the post-delivery error injection.
func (i *Injector) before(ctx context.Context, to string) (fate, error) {
	i.ops.Add(1)
	i.mu.RLock()
	cut := i.parts[to]
	i.mu.RUnlock()
	if cut {
		i.partitioned.Add(1)
		return fate{}, fmt.Errorf("chaos: %s partitioned: %w", to, comm.ErrNotSent)
	}
	ft := i.decide(to)
	if ft.spike {
		i.spikes.Add(1)
	}
	if ft.delay > 0 {
		t := time.NewTimer(ft.delay)
		defer t.Stop()
		select {
		case <-t.C:
		case <-ctx.Done():
			return ft, ctx.Err()
		}
	}
	if ft.drop {
		i.drops.Add(1)
		return ft, fmt.Errorf("chaos: message to %s dropped: %w", to, comm.ErrNotSent)
	}
	return ft, nil
}

func (i *Injector) Send(ctx context.Context, to string, env comm.Envelope) error {
	ft, err := i.before(ctx, to)
	if err != nil {
		return err
	}
	err = i.inner.Send(ctx, to, env)
	if err == nil && ft.err {
		// Delivered, then the "ack" was lost: ambiguous on purpose.
		i.errs.Add(1)
		return fmt.Errorf("chaos: send to %s failed after delivery", to)
	}
	return err
}

func (i *Injector) Request(ctx context.Context, to string, env comm.Envelope) (comm.Envelope, error) {
	ft, err := i.before(ctx, to)
	if err != nil {
		return comm.Envelope{}, err
	}
	reply, err := i.inner.Request(ctx, to, env)
	if err == nil && ft.err {
		// The handler ran; only the reply is eaten. Retrying through
		// this is exactly the duplicate-delivery case idempotency
		// classification exists for.
		i.errs.Add(1)
		return comm.Envelope{}, fmt.Errorf("chaos: reply from %s lost", to)
	}
	return reply, err
}
