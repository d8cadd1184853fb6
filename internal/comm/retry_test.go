package comm

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

// scriptedTransport scripts per-call outcomes and counts entries, for
// driving the retry policy without sockets.
type scriptedTransport struct {
	calls atomic.Int32
	fn    func(call int) error
}

func (s *scriptedTransport) do(ctx context.Context) error {
	return s.fn(int(s.calls.Add(1)))
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

// TestRetryJitter: the jitter stream is deterministic per seed and stays
// within ±50 % of the nominal backoff.
func TestRetryJitter(t *testing.T) {
	a := NewRetry(nil, RetryConfig{Seed: 42})
	b := NewRetry(nil, RetryConfig{Seed: 42})
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
	c := NewRetry(nil, RetryConfig{Seed: 43})
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

// TestRetryBackoffDoubles: each sleep is the seeded jitter of a backoff
// that doubles from BaseBackoff and stops at MaxBackoff.
func TestRetryBackoffDoubles(t *testing.T) {
	ambiguous := errors.New("connection lost awaiting reply")
	st := &scriptedTransport{fn: func(int) error { return ambiguous }}
	cfg := RetryConfig{MaxAttempts: 5, BaseBackoff: 2 * time.Millisecond, MaxBackoff: 6 * time.Millisecond, Seed: 9}
	rt := NewRetry(st, cfg)
	if _, err := rt.Request(context.Background(), "b", pingEnv(t)); !errors.Is(err, ambiguous) {
		t.Fatalf("err = %v, want the ambiguous failure after every attempt", err)
	}
	replay := NewRetry(nil, cfg)
	var want time.Duration
	for _, d := range []time.Duration{2, 4, 6, 6} {
		want += replay.jitter(d * time.Millisecond)
	}
	if rs := rt.Stats(); rs.Backoff != want || rs.Retries != 4 {
		t.Errorf("stats = %+v, want 4 retries sleeping %v", rs, want)
	}
}

// TestRetryDeadlineBudget: the caller's deadline caps the whole retry
// chain, however many attempts MaxAttempts would allow.
func TestRetryDeadlineBudget(t *testing.T) {
	st := &scriptedTransport{fn: func(int) error {
		return fmt.Errorf("down: %w", ErrNotSent)
	}}
	rt := NewRetry(st, RetryConfig{MaxAttempts: 100, BaseBackoff: 30 * time.Millisecond})
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
}
