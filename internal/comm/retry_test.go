package comm

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// scriptedTransport scripts per-call outcomes and counts entries, for
// driving the retry policy without sockets.
type scriptedTransport struct {
	calls    atomic.Int32
	inFlight atomic.Int32
	fn       func(call int) error
	block    chan struct{} // when non-nil, calls park here before returning
}

func (s *scriptedTransport) do(ctx context.Context) error {
	n := int(s.calls.Add(1))
	s.inFlight.Add(1)
	defer s.inFlight.Add(-1)
	if s.block != nil {
		select {
		case <-s.block:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return s.fn(n)
}

func (s *scriptedTransport) Send(ctx context.Context, to string, env Envelope) error {
	return s.do(ctx)
}

func (s *scriptedTransport) Request(ctx context.Context, to string, env Envelope) (Envelope, error) {
	if err := s.do(ctx); err != nil {
		return Envelope{}, err
	}
	return Envelope{Type: MsgPong, From: to, To: env.From, Seq: env.Seq}, nil
}

func pingEnv(t *testing.T) Envelope {
	t.Helper()
	env, err := NewEnvelope(MsgPing, "a", "b", nil)
	if err != nil {
		t.Fatal(err)
	}
	return env
}

// TestRetryHealsNotSent: a provably-unsent failure is retried
// immediately — no backoff sleep — matching the old stale-pool heal.
func TestRetryHealsNotSent(t *testing.T) {
	st := &scriptedTransport{fn: func(call int) error {
		if call == 1 {
			return fmt.Errorf("stale conn: %w", ErrNotSent)
		}
		return nil
	}}
	rt := NewRetry(st, RetryConfig{BaseBackoff: time.Second})
	t0 := time.Now()
	if _, err := rt.Request(context.Background(), "b", pingEnv(t)); err != nil {
		t.Fatalf("request: %v", err)
	}
	if d := time.Since(t0); d > 200*time.Millisecond {
		t.Errorf("heal took %v; the first not-sent retry must not sleep", d)
	}
	rs := rt.Stats()
	if rs.Retries != 1 || rs.Backoff != 0 {
		t.Errorf("stats = %+v, want 1 retry with zero backoff", rs)
	}
}

// TestRetryClassification: ambiguous failures retry only idempotent
// message types; a flex-offer submission is abandoned instead of risking
// a duplicate-ID rejection, unless the failure proves it never left.
func TestRetryClassification(t *testing.T) {
	ambiguous := errors.New("connection lost awaiting reply")

	st := &scriptedTransport{fn: func(int) error { return ambiguous }}
	rt := NewRetry(st, RetryConfig{MaxAttempts: 3, BaseBackoff: time.Millisecond})
	offer, _ := NewEnvelope(MsgFlexOfferSubmit, "a", "b", nil)
	if _, err := rt.Request(context.Background(), "b", offer); !errors.Is(err, ambiguous) {
		t.Fatalf("err = %v, want the ambiguous failure surfaced", err)
	}
	if n := st.calls.Load(); n != 1 {
		t.Errorf("inner calls = %d, want 1 (non-idempotent op must not retry)", n)
	}
	if rs := rt.Stats(); rs.NonRetryable != 1 {
		t.Errorf("stats = %+v, want 1 non-retryable", rs)
	}

	// The same ambiguous failure on an idempotent type retries.
	st2 := &scriptedTransport{fn: func(call int) error {
		if call < 3 {
			return ambiguous
		}
		return nil
	}}
	rt2 := NewRetry(st2, RetryConfig{MaxAttempts: 3, BaseBackoff: time.Millisecond})
	if _, err := rt2.Request(context.Background(), "b", pingEnv(t)); err != nil {
		t.Fatalf("request: %v", err)
	}
	if n := st2.calls.Load(); n != 3 {
		t.Errorf("inner calls = %d, want 3", n)
	}

	// A not-sent failure makes even the submission retryable.
	st3 := &scriptedTransport{fn: func(call int) error {
		if call == 1 {
			return fmt.Errorf("dial refused: %w", ErrNotSent)
		}
		return nil
	}}
	rt3 := NewRetry(st3, RetryConfig{MaxAttempts: 3, BaseBackoff: time.Millisecond})
	if _, err := rt3.Request(context.Background(), "b", offer); err != nil {
		t.Fatalf("request: %v", err)
	}
	if n := st3.calls.Load(); n != 2 {
		t.Errorf("inner calls = %d, want 2", n)
	}
}

// TestRetryExhausted: a persistently failing destination consumes
// exactly MaxAttempts inner calls.
func TestRetryExhausted(t *testing.T) {
	st := &scriptedTransport{fn: func(int) error {
		return fmt.Errorf("down: %w", ErrNotSent)
	}}
	rt := NewRetry(st, RetryConfig{MaxAttempts: 3, BaseBackoff: time.Millisecond})
	if _, err := rt.Request(context.Background(), "b", pingEnv(t)); !errors.Is(err, ErrNotSent) {
		t.Fatalf("err = %v, want wrapped ErrNotSent", err)
	}
	if n := st.calls.Load(); n != 3 {
		t.Errorf("inner calls = %d, want 3", n)
	}
	if rs := rt.Stats(); rs.Exhausted != 1 || rs.Retries != 2 {
		t.Errorf("stats = %+v, want exhausted=1 retries=2", rs)
	}
}

// TestRetryBreakerShortCircuit: an open circuit fails the whole call
// instantly — no backoff sleep, no extra traffic at the inner transport.
func TestRetryBreakerShortCircuit(t *testing.T) {
	st := &scriptedTransport{fn: func(int) error { return errors.New("peer down") }}
	br := NewBreaker(st, BreakerConfig{MinSamples: 1, FailureRate: 0.5, Cooldown: time.Hour})
	rt := NewRetry(br, RetryConfig{MaxAttempts: 5, BaseBackoff: 300 * time.Millisecond})

	// First call: attempt 1 fails at the peer and trips the circuit;
	// the retry (after its one backoff sleep) hits the open circuit and
	// aborts the call instead of burning its remaining attempts.
	_, err := rt.Request(context.Background(), "b", pingEnv(t))
	if !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("err = %v, want ErrBreakerOpen once the circuit trips mid-retry", err)
	}
	if n := st.calls.Load(); n != 1 {
		t.Errorf("inner calls = %d, want 1 (retries must not reach an open circuit)", n)
	}

	// Subsequent calls short-circuit instantly — no backoff sleep (the
	// 300ms base would show), no inner traffic, no retry storm.
	t0 := time.Now()
	if _, err := rt.Request(context.Background(), "b", pingEnv(t)); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("err = %v, want ErrBreakerOpen", err)
	}
	if d := time.Since(t0); d > 200*time.Millisecond {
		t.Errorf("short-circuit took %v, want instant failure", d)
	}
	if n := st.calls.Load(); n != 1 {
		t.Errorf("inner calls = %d, want still 1", n)
	}
	if rs := rt.Stats(); rs.ShortCircuits != 2 {
		t.Errorf("stats = %+v, want 2 short-circuits", rs)
	}
}

// TestRetryBreakerHalfOpenSingleTrial: after the cooldown, exactly one
// of many concurrent retry-wrapped callers wins the half-open trial; the
// losers short-circuit instead of queuing retries behind it.
func TestRetryBreakerHalfOpenSingleTrial(t *testing.T) {
	release := make(chan struct{})
	var failing atomic.Bool
	failing.Store(true)
	st := &scriptedTransport{fn: func(int) error {
		if failing.Load() {
			return errors.New("peer down")
		}
		return nil
	}}
	br := NewBreaker(st, BreakerConfig{MinSamples: 1, FailureRate: 0.5, Cooldown: 20 * time.Millisecond})
	rt := NewRetry(br, RetryConfig{MaxAttempts: 3, BaseBackoff: time.Millisecond})

	// Trip the circuit.
	if _, err := rt.Request(context.Background(), "b", pingEnv(t)); err == nil {
		t.Fatal("expected failure while peer is down")
	}
	tripCalls := st.calls.Load()
	time.Sleep(40 * time.Millisecond) // let the cooldown elapse

	// Peer heals, but the trial parks at the inner transport so the
	// race window stays open while the other callers arrive.
	failing.Store(false)
	st.block = release

	const callers = 8
	var (
		wg        sync.WaitGroup
		successes atomic.Int32
		rejected  atomic.Int32
	)
	start := make(chan struct{})
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			_, err := rt.Request(context.Background(), "b", pingEnv(t))
			switch {
			case err == nil:
				successes.Add(1)
			case errors.Is(err, ErrBreakerOpen):
				rejected.Add(1)
			default:
				t.Errorf("unexpected error: %v", err)
			}
		}()
	}
	close(start)

	// Wait for the trial winner to park, then give every loser time to
	// hit the circuit; none may reach the inner transport.
	deadline := time.Now().Add(2 * time.Second)
	for st.inFlight.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(50 * time.Millisecond)
	if n := st.calls.Load() - tripCalls; n != 1 {
		t.Errorf("inner calls during half-open = %d, want exactly the single trial", n)
	}
	close(release)
	wg.Wait()

	if successes.Load() != 1 || rejected.Load() != callers-1 {
		t.Errorf("successes = %d rejected = %d, want 1 and %d", successes.Load(), rejected.Load(), callers-1)
	}
	if s := stateOf(br, "b"); s != BreakerClosed {
		t.Errorf("state = %v, want closed after the trial succeeded", s)
	}
}

// TestRetryJitter: the jitter stream is deterministic per seed and stays
// within ±JitterFrac of the nominal backoff.
func TestRetryJitter(t *testing.T) {
	a := NewRetry(nil, RetryConfig{Seed: 42, JitterFrac: 0.5})
	b := NewRetry(nil, RetryConfig{Seed: 42, JitterFrac: 0.5})
	base := 100 * time.Millisecond
	for i := 0; i < 64; i++ {
		da, db := a.jitter(base), b.jitter(base)
		if da != db {
			t.Fatalf("draw %d: %v != %v; same seed must give the same stream", i, da, db)
		}
		if da < 50*time.Millisecond || da > 150*time.Millisecond {
			t.Fatalf("draw %d: %v outside ±50%% of %v", i, da, base)
		}
	}
	c := NewRetry(nil, RetryConfig{Seed: 43, JitterFrac: 0.5})
	same := true
	for i := 0; i < 8; i++ {
		if a.jitter(base) != c.jitter(base) {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical jitter streams")
	}
}

// TestRetryDeadlineBudget: the caller's deadline caps the whole retry
// chain, and AttemptTimeout carves per-attempt budgets out of it.
func TestRetryDeadlineBudget(t *testing.T) {
	st := &scriptedTransport{fn: func(int) error {
		return fmt.Errorf("down: %w", ErrNotSent)
	}}
	rt := NewRetry(st, RetryConfig{MaxAttempts: 100, BaseBackoff: 30 * time.Millisecond, Multiplier: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Millisecond)
	defer cancel()
	t0 := time.Now()
	_, err := rt.Request(ctx, "b", pingEnv(t))
	if err == nil {
		t.Fatal("expected failure")
	}
	if d := time.Since(t0); d > time.Second {
		t.Errorf("retry chain ran %v past a 120ms budget", d)
	}
	if n := st.calls.Load(); n >= 100 {
		t.Errorf("inner calls = %d, want far fewer than MaxAttempts within the budget", n)
	}

	// AttemptTimeout: a hung attempt is cut off so the next one runs.
	hung := &scriptedTransport{block: make(chan struct{}), fn: func(int) error { return nil }}
	rt2 := NewRetry(hung, RetryConfig{MaxAttempts: 3, BaseBackoff: time.Millisecond, AttemptTimeout: 20 * time.Millisecond})
	ctx2, cancel2 := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel2()
	_, err = rt2.Request(ctx2, "b", pingEnv(t))
	if err == nil {
		t.Fatal("expected failure from hung attempts")
	}
	if n := hung.calls.Load(); n != 3 {
		t.Errorf("inner calls = %d, want 3 (each attempt cut by AttemptTimeout)", n)
	}
}
