package comm

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"mirabel/internal/flexoffer"
)

// slowEndpoint registers an endpoint whose handler sleeps before
// answering, and counts the concurrent handlers in flight.
func slowEndpoint(bus *Bus, name string, delay time.Duration, inflight, peak *atomic.Int32) *atomic.Int32 {
	var notified atomic.Int32
	bus.Register(name, func(ctx context.Context, env Envelope) (*Envelope, error) {
		cur := inflight.Add(1)
		for {
			p := peak.Load()
			if cur <= p || peak.CompareAndSwap(p, cur) {
				break
			}
		}
		defer inflight.Add(-1)
		select {
		case <-time.After(delay):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		notified.Add(1)
		return nil, nil
	})
	return &notified
}

// slowSends delays every Send by d (chaos.Injector does this outside
// the package, which cannot be imported here).
type slowSends struct {
	Transport
	d time.Duration
}

func (s slowSends) Send(ctx context.Context, to string, env Envelope) error {
	time.Sleep(s.d)
	return s.Transport.Send(ctx, to, env)
}

// syncSends runs the receiver's handler inside Send with the caller's
// ctx, after the ctx check Bus.Send makes, so a delivery holds its
// fan-out slot until the handler returns. Both real transports return
// from Send once the frame is handed over; this one keeps a slow or
// stalled receiver in flight, which is where NotifySchedulesAll's
// concurrency bound and cancellation show.
type syncSends struct{ *Bus }

func (s syncSends) Send(ctx context.Context, to string, env Envelope) error {
	h, err := s.handler(to)
	if err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	_, err = h(ctx, env)
	return err
}

func TestNotifySchedulesAllParallelizesDeliveries(t *testing.T) {
	// The latency sits in the transport's Send itself (Bus.Send alone is
	// fire-and-forget and would return instantly even when serialized),
	// so wall time genuinely distinguishes parallel from serial fan-out.
	bus := NewBus()
	const owners = 8
	const delay = 30 * time.Millisecond
	byOwner := make(map[string][]*flexoffer.Schedule)
	for i := 0; i < owners; i++ {
		name := fmt.Sprintf("p%d", i)
		bus.Register(name, func(ctx context.Context, env Envelope) (*Envelope, error) { return nil, nil })
		byOwner[name] = []*flexoffer.Schedule{{OfferID: flexoffer.ID(i), Start: 40, Energy: []float64{1}}}
	}
	c := NewClient("brp", slowSends{bus, delay})
	t0 := time.Now()
	failed := c.NotifySchedulesAll(context.Background(), byOwner)
	wall := time.Since(t0)
	if len(failed) != 0 {
		t.Fatalf("failures: %v", failed)
	}
	// All owners in one wave: near one latency; serial would be 8×.
	if wall >= time.Duration(owners)*delay/2 {
		t.Errorf("fan-out wall time %v, want well under serial %v", wall, time.Duration(owners)*delay)
	}
}

func TestNotifySchedulesAllCollectsPerDestinationErrors(t *testing.T) {
	bus := NewBus()
	var inflight, peak atomic.Int32
	slowEndpoint(bus, "alive", time.Millisecond, &inflight, &peak)
	c := NewClient("brp", bus)
	byOwner := map[string][]*flexoffer.Schedule{
		"alive": {{OfferID: 1, Start: 40, Energy: []float64{1}}},
		"gone1": {{OfferID: 2, Start: 40, Energy: []float64{1}}},
		"gone2": {{OfferID: 3, Start: 40, Energy: []float64{1}}},
	}
	failed := c.NotifySchedulesAll(context.Background(), byOwner)
	if len(failed) != 2 {
		t.Fatalf("failed = %v, want the two unregistered owners", failed)
	}
	for _, owner := range []string{"gone1", "gone2"} {
		if !errors.Is(failed[owner], ErrUnreachable) {
			t.Errorf("%s error = %v, want ErrUnreachable", owner, failed[owner])
		}
	}
}

func TestNotifySchedulesAllBoundsConcurrency(t *testing.T) {
	bus := NewBus()
	var inflight, peak atomic.Int32
	const limit = DefaultFanOutLimit
	const delay = 20 * time.Millisecond
	byOwner := make(map[string][]*flexoffer.Schedule)
	notified := make(map[string]*atomic.Int32)
	for i := 0; i < 3*limit; i++ {
		name := fmt.Sprintf("p%d", i)
		notified[name] = slowEndpoint(bus, name, delay, &inflight, &peak)
		byOwner[name] = []*flexoffer.Schedule{{OfferID: flexoffer.ID(i + 1), Start: 40, Energy: []float64{1}}}
	}
	c := NewClient("brp", syncSends{bus})
	t0 := time.Now()
	failed := c.NotifySchedulesAll(context.Background(), byOwner)
	wall := time.Since(t0)
	if len(failed) != 0 {
		t.Fatalf("failures: %v", failed)
	}
	if got := peak.Load(); got > limit {
		t.Errorf("peak concurrency %d exceeds limit %d", got, limit)
	}
	// 3·limit deliveries at 20ms in waves of limit: ~60ms, far below
	// the sum.
	if sum := time.Duration(len(byOwner)) * delay; wall >= sum {
		t.Errorf("wall %v not parallel (sum %v)", wall, sum)
	}
	for name, n := range notified {
		if got := n.Load(); got != 1 {
			t.Errorf("%s notified %d times, want once", name, got)
		}
	}
}

func TestNotifySchedulesAllSurfacesCancellation(t *testing.T) {
	bus := NewBus()
	byOwner := make(map[string][]*flexoffer.Schedule)
	// One wave stalls until the deadline; the deliveries queued behind
	// it start after it and fail on the spent ctx.
	for i := 0; i < DefaultFanOutLimit+2; i++ {
		name := fmt.Sprintf("p%d", i)
		// A stalled prosumer: deliveries only end via the caller's
		// context.
		bus.Register(name, func(ctx context.Context, _ Envelope) (*Envelope, error) {
			<-ctx.Done()
			return nil, ctx.Err()
		})
		byOwner[name] = []*flexoffer.Schedule{{OfferID: flexoffer.ID(i + 1), Start: 40, Energy: []float64{1}}}
	}
	c := NewClient("brp", syncSends{bus})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	failed := c.NotifySchedulesAll(ctx, byOwner)
	for owner := range byOwner {
		if !errors.Is(failed[owner], context.DeadlineExceeded) {
			t.Errorf("%s err = %v, want DeadlineExceeded", owner, failed[owner])
		}
	}
}
