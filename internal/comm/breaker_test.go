package comm

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// flakyTransport fails destinations listed in down and counts calls.
type flakyTransport struct {
	mu    sync.Mutex
	down  map[string]bool
	calls map[string]int
}

func newFlaky() *flakyTransport {
	return &flakyTransport{down: make(map[string]bool), calls: make(map[string]int)}
}

func (t *flakyTransport) setDown(name string, down bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.down[name] = down
}

func (t *flakyTransport) callCount(name string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.calls[name]
}

func (t *flakyTransport) hit(to string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.calls[to]++
	if t.down[to] {
		return fmt.Errorf("%w: %s", ErrUnreachable, to)
	}
	return nil
}

func (t *flakyTransport) Send(ctx context.Context, to string, env Envelope) error {
	return t.hit(to)
}

func (t *flakyTransport) Request(ctx context.Context, to string, env Envelope) (Envelope, error) {
	if err := t.hit(to); err != nil {
		return Envelope{}, err
	}
	return Envelope{Type: MsgPong, From: to, To: env.From}, nil
}

func testBreaker(inner Transport) *Breaker {
	return NewBreaker(inner, BreakerConfig{
		Origin:      "brp",
		Window:      8,
		MinSamples:  3,
		FailureRate: 0.5,
		Cooldown:    50 * time.Millisecond,
	})
}

// stateOf reports a destination's circuit state (closed for a
// destination never seen).
func stateOf(b *Breaker, to string) BreakerState {
	b.mu.Lock()
	c, ok := b.dests[to]
	b.mu.Unlock()
	if !ok {
		return BreakerClosed
	}
	return c.currentState()
}

func TestBreakerTripsAndFailsFast(t *testing.T) {
	inner := newFlaky()
	inner.setDown("dead", true)
	b := testBreaker(inner)
	ctx := context.Background()
	env, _ := NewEnvelope(MsgPing, "brp", "dead", nil)
	for i := 0; i < 3; i++ {
		if err := b.Send(ctx, "dead", env); !errors.Is(err, ErrUnreachable) {
			t.Fatalf("send %d err = %v, want ErrUnreachable", i, err)
		}
	}
	if got := stateOf(b, "dead"); got != BreakerOpen {
		t.Fatalf("state after 3 failures = %v, want open", got)
	}
	before := inner.callCount("dead")
	if err := b.Send(ctx, "dead", env); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("tripped send err = %v, want ErrBreakerOpen", err)
	}
	if inner.callCount("dead") != before {
		t.Fatal("open circuit still reached the transport")
	}
	if got := b.Tripped(); len(got) != 1 || got[0] != "dead" {
		t.Fatalf("Tripped() = %v, want [dead]", got)
	}
}

func TestBreakerHealthyDestinationUnaffected(t *testing.T) {
	inner := newFlaky()
	inner.setDown("dead", true)
	b := testBreaker(inner)
	ctx := context.Background()
	deadEnv, _ := NewEnvelope(MsgPing, "brp", "dead", nil)
	okEnv, _ := NewEnvelope(MsgPing, "brp", "ok", nil)
	for i := 0; i < 5; i++ {
		_ = b.Send(ctx, "dead", deadEnv)
		if err := b.Send(ctx, "ok", okEnv); err != nil {
			t.Fatalf("healthy send %d: %v", i, err)
		}
	}
	if got := stateOf(b, "ok"); got != BreakerClosed {
		t.Fatalf("healthy state = %v, want closed", got)
	}
}

func TestBreakerHalfOpenTrialRecloses(t *testing.T) {
	inner := newFlaky()
	inner.setDown("flappy", true)
	b := testBreaker(inner)
	ctx := context.Background()
	env, _ := NewEnvelope(MsgPing, "brp", "flappy", nil)
	for i := 0; i < 3; i++ {
		_ = b.Send(ctx, "flappy", env)
	}
	if stateOf(b, "flappy") != BreakerOpen {
		t.Fatal("circuit did not open")
	}
	inner.setDown("flappy", false)
	// Inside the cooldown: still failing fast.
	if err := b.Send(ctx, "flappy", env); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("pre-cooldown err = %v, want ErrBreakerOpen", err)
	}
	time.Sleep(60 * time.Millisecond)
	// The first post-cooldown call is the half-open trial; its success
	// re-closes the circuit.
	if err := b.Send(ctx, "flappy", env); err != nil {
		t.Fatalf("trial send: %v", err)
	}
	if got := stateOf(b, "flappy"); got != BreakerClosed {
		t.Fatalf("state after successful trial = %v, want closed", got)
	}
}

func TestBreakerHalfOpenTrialFailureReopens(t *testing.T) {
	inner := newFlaky()
	inner.setDown("dead", true)
	b := testBreaker(inner)
	ctx := context.Background()
	env, _ := NewEnvelope(MsgPing, "brp", "dead", nil)
	for i := 0; i < 3; i++ {
		_ = b.Send(ctx, "dead", env)
	}
	time.Sleep(60 * time.Millisecond)
	if err := b.Send(ctx, "dead", env); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("trial err = %v, want ErrUnreachable", err)
	}
	if got := stateOf(b, "dead"); got != BreakerOpen {
		t.Fatalf("state after failed trial = %v, want open again", got)
	}
	// And it fails fast again without touching the transport.
	before := inner.callCount("dead")
	if err := b.Send(ctx, "dead", env); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("post-retrip err = %v, want ErrBreakerOpen", err)
	}
	if inner.callCount("dead") != before {
		t.Fatal("re-opened circuit reached the transport")
	}
}

func TestBreakerCanceledContextNotCounted(t *testing.T) {
	inner := newFlaky()
	b := testBreaker(inner)
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	// The bus-style transport surfaces ctx.Err() — simulate by a
	// transport returning context.Canceled.
	cb := NewBreaker(cancelingTransport{}, BreakerConfig{MinSamples: 1, FailureRate: 0.1})
	env, _ := NewEnvelope(MsgPing, "brp", "x", nil)
	for i := 0; i < 5; i++ {
		if err := cb.Send(canceled, "x", env); !errors.Is(err, context.Canceled) {
			t.Fatalf("send err = %v, want context.Canceled", err)
		}
	}
	if got := stateOf(cb, "x"); got != BreakerClosed {
		t.Fatalf("state after canceled sends = %v, want closed (not counted)", got)
	}
	_ = b
}

type cancelingTransport struct{}

func (cancelingTransport) Send(ctx context.Context, to string, env Envelope) error {
	return ctx.Err()
}

func (cancelingTransport) Request(ctx context.Context, to string, env Envelope) (Envelope, error) {
	return Envelope{}, ctx.Err()
}

func TestBreakerProbeOpenHeals(t *testing.T) {
	inner := newFlaky()
	inner.setDown("dead", true)
	b := testBreaker(inner)
	ctx := context.Background()
	env, _ := NewEnvelope(MsgPing, "brp", "dead", nil)
	for i := 0; i < 3; i++ {
		_ = b.Send(ctx, "dead", env)
	}
	// Peer comes back; before the cooldown a probe does nothing.
	inner.setDown("dead", false)
	if healed := b.ProbeOpen(ctx); len(healed) != 0 {
		t.Fatalf("pre-cooldown probe healed %v, want none", healed)
	}
	time.Sleep(60 * time.Millisecond)
	if healed := b.ProbeOpen(ctx); len(healed) != 1 || healed[0] != "dead" {
		t.Fatalf("probe healed %v, want [dead]", healed)
	}
	if got := stateOf(b, "dead"); got != BreakerClosed {
		t.Fatalf("state after probe = %v, want closed", got)
	}
	if err := b.Send(ctx, "dead", env); err != nil {
		t.Fatalf("send after heal: %v", err)
	}
}

func TestBreakerOverBusFanOut(t *testing.T) {
	// End-to-end over the real Bus: one of three prosumers vanishes;
	// fan-out through the breaker degrades to typed skips instead of
	// repeated unreachable round-trips.
	bus := NewBus()
	pong := func(ctx context.Context, env Envelope) (*Envelope, error) {
		reply, err := NewEnvelope(MsgPong, env.To, env.From, nil)
		return &reply, err
	}
	for _, name := range []string{"p1", "p2"} {
		bus.Register(name, pong)
	}
	b := testBreaker(bus)
	client := NewClient("brp", b)
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		for _, name := range []string{"p1", "p2", "p3"} {
			err := client.Ping(ctx, name)
			switch name {
			case "p3":
				if err == nil {
					t.Fatalf("round %d: ping p3 succeeded, want failure", i)
				}
			default:
				if err != nil {
					t.Fatalf("round %d: ping %s: %v", i, name, err)
				}
			}
		}
	}
	if got := stateOf(b, "p3"); got != BreakerOpen {
		t.Fatalf("p3 state = %v, want open", got)
	}
	if err := client.Ping(ctx, "p3"); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("tripped ping err = %v, want ErrBreakerOpen", err)
	}
	// p3 comes back and a probe readmits it.
	bus.Register("p3", pong)
	time.Sleep(60 * time.Millisecond)
	if healed := b.ProbeOpen(ctx); len(healed) != 1 || healed[0] != "p3" {
		t.Fatalf("probe healed %v, want [p3]", healed)
	}
	if err := client.Ping(ctx, "p3"); err != nil {
		t.Fatalf("ping after heal: %v", err)
	}
}
