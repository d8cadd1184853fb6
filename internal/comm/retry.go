package comm

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"
)

// ErrNotSent is wrapped by transport failures where the request provably
// never reached the peer — a failed dial, a dead connection
// caught before the frame write completed, an unregistered bus endpoint.
// Such operations are always safe to retry, idempotent or not. Failures
// NOT carrying ErrNotSent are ambiguous (the handler may have run), so a
// Retry transport re-attempts them only for idempotent message types.
var ErrNotSent = errors.New("request not sent")

// idempotent classifies the message vocabulary for retry safety.
// Measurements are keyed upserts and schedules are keyed by offer ID, so
// re-delivery is harmless; re-submitting a flex-offer whose first copy
// did land would collide with the stored ID and flip an accept into a
// duplicate-ID rejection, so submissions retry only when provably unsent.
var idempotent = map[MsgType]bool{
	MsgPing:             true,
	MsgMeasurementBatch: true,
	MsgScheduleNotify:   true,
}

// The backoff doubles between retries, and each sleep is spread over
// ±50 % of itself so synchronized retriers decorrelate.
const (
	backoffMultiplier = 2
	jitterFrac        = 0.5
)

// RetryConfig tunes a Retry transport. Attempts are bounded by the
// caller's deadline (DefaultTimeout when it has none), not per attempt.
type RetryConfig struct {
	// MaxAttempts bounds the total attempts per call (default 3).
	MaxAttempts int
	// BaseBackoff is the sleep before the second retry (default 25ms);
	// the first retry of a provably-unsent operation goes immediately,
	// so a stale connection heals with one immediate redial.
	BaseBackoff time.Duration
	// MaxBackoff caps the exponential growth (default 1s).
	MaxBackoff time.Duration
	// Seed drives the deterministic jitter stream; runs with the same
	// seed draw the same jitter sequence.
	Seed int64
}

func (c *RetryConfig) fill() {
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 3
	}
	if c.BaseBackoff <= 0 {
		c.BaseBackoff = 25 * time.Millisecond
	}
	if c.MaxBackoff <= 0 {
		c.MaxBackoff = time.Second
	}
}

// RetryStats counts a Retry transport's activity, surfaced alongside
// TransportStats in node shutdown logs and the sim's degradation report.
type RetryStats struct {
	// Calls is the number of logical operations issued.
	Calls uint64
	// Retries is the number of extra attempts made beyond the first.
	Retries uint64
	// Exhausted counts calls that failed every allowed attempt.
	Exhausted uint64
	// NonRetryable counts failures abandoned because the operation was
	// not idempotent and delivery was ambiguous.
	NonRetryable uint64
	// Backoff is the total time spent sleeping between attempts.
	Backoff time.Duration
}

// Retry wraps a Transport with jittered-exponential-backoff retries.
// It is the single retry code path of the node fabric: the TCP client
// itself never re-attempts, it only classifies failures (ErrNotSent vs
// ambiguous), and Retry decides.
type Retry struct {
	inner Transport
	cfg   RetryConfig

	jitterSeq    atomic.Uint64
	calls        atomic.Uint64
	retries      atomic.Uint64
	exhausted    atomic.Uint64
	nonRetryable atomic.Uint64
	backoffNanos atomic.Int64
}

// NewRetry wraps inner with the retry policy.
func NewRetry(inner Transport, cfg RetryConfig) *Retry {
	cfg.fill()
	return &Retry{inner: inner, cfg: cfg}
}

// Stats returns a point-in-time copy of the retry counters.
func (r *Retry) Stats() RetryStats {
	return RetryStats{
		Calls:        r.calls.Load(),
		Retries:      r.retries.Load(),
		Exhausted:    r.exhausted.Load(),
		NonRetryable: r.nonRetryable.Load(),
		Backoff:      time.Duration(r.backoffNanos.Load()),
	}
}

// retryable decides whether a failed attempt may be re-issued.
func (r *Retry) retryable(t MsgType, err error) bool {
	if errors.Is(err, context.Canceled) {
		return false
	}
	if errors.Is(err, ErrNotSent) || errors.Is(err, ErrUnreachable) {
		return true // provably never delivered
	}
	return idempotent[t]
}

// splitmix64 is the SplitMix64 mixer: a bijective avalanche over the
// input, giving an independent-looking stream from sequential counters.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// jitter spreads d over ±jitterFrac deterministically from the seed.
func (r *Retry) jitter(d time.Duration) time.Duration {
	u := splitmix64(uint64(r.cfg.Seed) + r.jitterSeq.Add(1))
	// unit in [0, 1): 53 mantissa bits of the draw.
	unit := float64(u>>11) / float64(1<<53)
	f := 1 + jitterFrac*(2*unit-1)
	return time.Duration(float64(d) * f)
}

// do runs op under the retry policy. op must be re-issuable: each call
// re-enters the inner transport from scratch.
func (r *Retry) do(ctx context.Context, to string, t MsgType, op func(context.Context) error) error {
	r.calls.Add(1)
	if _, ok := ctx.Deadline(); !ok {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, DefaultTimeout)
		defer cancel()
	}
	backoff := r.cfg.BaseBackoff
	var err error
	for attempt := 1; ; attempt++ {
		err = op(ctx)
		if err == nil {
			return nil
		}
		if ctx.Err() != nil {
			return err // the caller's budget is spent
		}
		if !r.retryable(t, err) {
			r.nonRetryable.Add(1)
			return err
		}
		if attempt >= r.cfg.MaxAttempts {
			r.exhausted.Add(1)
			return fmt.Errorf("comm: %s to %s failed after %d attempts: %w", t, to, attempt, err)
		}
		r.retries.Add(1)
		if attempt == 1 && errors.Is(err, ErrNotSent) {
			continue // stale-connection heal: one immediate redial, no sleep
		}
		d := r.jitter(backoff)
		timer := time.NewTimer(d)
		select {
		case <-timer.C:
			r.backoffNanos.Add(int64(d))
		case <-ctx.Done():
			timer.Stop()
			return err
		}
		if next := backoff * backoffMultiplier; next < r.cfg.MaxBackoff {
			backoff = next
		} else {
			backoff = r.cfg.MaxBackoff
		}
	}
}

// Send implements Transport with retries.
func (r *Retry) Send(ctx context.Context, to string, env Envelope) error {
	return r.do(ctx, to, env.Type, func(ctx context.Context) error {
		return r.inner.Send(ctx, to, env)
	})
}

// Request implements Transport with retries.
func (r *Retry) Request(ctx context.Context, to string, env Envelope) (Envelope, error) {
	var reply Envelope
	err := r.do(ctx, to, env.Type, func(ctx context.Context) error {
		rep, err := r.inner.Request(ctx, to, env)
		if err == nil {
			reply = rep
		}
		return err
	})
	if err != nil {
		return Envelope{}, err
	}
	return reply, nil
}
