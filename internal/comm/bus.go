package comm

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"
)

// Handler processes an incoming envelope and optionally returns a reply.
// The context carries the request's cancellation and deadline: handlers
// doing slow work should watch ctx.Done() and bail early. Handlers must
// be safe for concurrent use.
type Handler func(ctx context.Context, env Envelope) (*Envelope, error)

// Transport moves envelopes between named endpoints. Cancellation and
// deadlines travel in the context; a transport with no deadline on the
// context applies DefaultTimeout to requests.
type Transport interface {
	// Send delivers fire-and-forget; the receiver's reply (if any) is
	// discarded.
	Send(ctx context.Context, to string, env Envelope) error
	// Request delivers and waits for the handler's reply or ctx
	// expiry, whichever comes first.
	Request(ctx context.Context, to string, env Envelope) (Envelope, error)
}

// DefaultTimeout bounds a Request whose context carries no deadline.
const DefaultTimeout = 5 * time.Second

// ErrUnreachable is wrapped by Send/Request when the destination is not
// registered (Bus) or has no route (TCPClient). Match with errors.Is.
var ErrUnreachable = errors.New("comm: destination unreachable")

// Bus is the in-process transport: a registry of named endpoints, used
// to simulate large node populations in one process. Handlers run on the
// caller's goroutine context for Request and on a fresh goroutine for
// Send — matching the asynchrony of a real network without its
// flakiness. Wait joins the handlers Send started.
type Bus struct {
	mu       sync.RWMutex
	handlers map[string]Handler
	detached sync.WaitGroup // handlers Send started that still run
}

// NewBus returns an empty in-process transport.
func NewBus() *Bus {
	return &Bus{handlers: make(map[string]Handler)}
}

// Register attaches an endpoint. Registering an existing name replaces
// its handler (a restarted node).
func (b *Bus) Register(name string, h Handler) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.handlers[name] = h
}

// Unregister removes an endpoint (an unreachable node; see the paper's
// graceful-degradation scenario).
func (b *Bus) Unregister(name string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	delete(b.handlers, name)
}

func (b *Bus) handler(name string) (Handler, error) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	h, ok := b.handlers[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnreachable, name)
	}
	return h, nil
}

// Send implements Transport. The handler runs detached from the
// caller's cancellation (the message is already "on the wire") but
// still sees its values.
func (b *Bus) Send(ctx context.Context, to string, env Envelope) error {
	h, err := b.handler(to)
	if err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	detached := context.WithoutCancel(ctx)
	b.detached.Add(1)
	go func() {
		defer b.detached.Done()
		_, _ = h(detached, env)
	}()
	return nil
}

// Wait blocks until every handler Send started has returned, so a
// reader of what those handlers record sees all of it. It is meant for
// a bus nothing sends on any more: a Send racing Wait may or may not be
// waited for.
func (b *Bus) Wait() { b.detached.Wait() }

// Request implements Transport. The handler observes ctx directly, so a
// canceled request tells the handler to stop; the worker goroutine
// never blocks on delivering its result (buffered channel), so an
// abandoned request cannot leak it.
func (b *Bus) Request(ctx context.Context, to string, env Envelope) (Envelope, error) {
	h, err := b.handler(to)
	if err != nil {
		return Envelope{}, err
	}
	if err := ctx.Err(); err != nil {
		return Envelope{}, fmt.Errorf("comm: request to %s: %w", to, err)
	}
	if _, ok := ctx.Deadline(); !ok {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, DefaultTimeout)
		defer cancel()
	}
	type outcome struct {
		reply *Envelope
		err   error
	}
	ch := make(chan outcome, 1)
	go func() {
		r, err := h(ctx, env)
		ch <- outcome{r, err}
	}()
	select {
	case o := <-ch:
		if o.err != nil {
			return Envelope{}, o.err
		}
		if o.reply == nil {
			// Parity with TCPServer: a handler that returns neither reply
			// nor error gets an empty pong, so fire-and-forget message
			// types can also be delivered acked via Request.
			return Envelope{Type: MsgPong, From: to, To: env.From, Seq: env.Seq}, nil
		}
		return *o.reply, nil
	case <-ctx.Done():
		return Envelope{}, fmt.Errorf("comm: request to %s: %w", to, ctx.Err())
	}
}
