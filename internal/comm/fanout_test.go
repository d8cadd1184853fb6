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

func fanoutOffer(id flexoffer.ID) *flexoffer.FlexOffer {
	return &flexoffer.FlexOffer{
		ID: id, EarliestStart: 40, LatestStart: 56, AssignBefore: 32,
		Profile: []flexoffer.Slice{{EnergyMin: 0, EnergyMax: 5}},
	}
}

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
		if env.Type == MsgFlexOfferSubmit {
			var body FlexOfferSubmit
			if err := env.Decode(MsgFlexOfferSubmit, &body); err != nil {
				return nil, err
			}
			reply, err := NewEnvelope(MsgFlexOfferDecision, name, env.From, FlexOfferDecision{
				OfferID: body.Offer.ID, Accept: true,
			})
			return &reply, err
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

func TestSubmitOffersAllBoundsConcurrencyAndKeepsOrder(t *testing.T) {
	bus := NewBus()
	var inflight, peak atomic.Int32
	slowEndpoint(bus, "tso", 20*time.Millisecond, &inflight, &peak)
	c := NewClient("brp", bus)
	const limit = DefaultFanOutLimit
	offers := make([]*flexoffer.FlexOffer, 3*limit)
	for i := range offers {
		offers[i] = fanoutOffer(flexoffer.ID(i + 1))
	}
	t0 := time.Now()
	results := c.SubmitOffersAll(context.Background(), "tso", offers)
	wall := time.Since(t0)
	if got := peak.Load(); got > limit {
		t.Errorf("peak concurrency %d exceeds limit %d", got, limit)
	}
	// 3·limit requests at 20ms in waves of limit: ~60ms, far below the
	// sum.
	if sum := time.Duration(len(offers)) * 20 * time.Millisecond; wall >= sum {
		t.Errorf("wall %v not parallel (sum %v)", wall, sum)
	}
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("submit %d: %v", i, r.Err)
		}
		if r.Offer.ID != flexoffer.ID(i+1) || r.Decision.OfferID != flexoffer.ID(i+1) {
			t.Errorf("result %d out of order: offer %d decision %d", i, r.Offer.ID, r.Decision.OfferID)
		}
		if !r.Decision.Accept {
			t.Errorf("offer %d rejected", r.Offer.ID)
		}
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

func TestSubmitOffersAllSurfacesCancellation(t *testing.T) {
	bus := NewBus()
	bus.Register("tso", func(ctx context.Context, _ Envelope) (*Envelope, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	})
	c := NewClient("brp", bus)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	results := c.SubmitOffersAll(ctx, "tso", []*flexoffer.FlexOffer{fanoutOffer(1), fanoutOffer(2)})
	for i, r := range results {
		if !errors.Is(r.Err, context.DeadlineExceeded) {
			t.Errorf("result %d err = %v, want DeadlineExceeded", i, r.Err)
		}
	}
}
