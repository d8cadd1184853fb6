package comm

import (
	"context"
	"errors"
	"fmt"
	"sync"
)

// ErrNoHandler is wrapped when a Mux receives a message type nothing
// registered for. Match with errors.Is.
var ErrNoHandler = errors.New("comm: no handler for message type")

// Mux dispatches envelopes to per-MsgType handlers — the node fabric's
// replacement for monolithic type switches. Register handlers with
// Handle, then attach mux.Serve (optionally wrapped in middleware via
// Chain) to a transport.
type Mux struct {
	mu       sync.RWMutex
	handlers map[MsgType]Handler
}

// NewMux returns an empty dispatch registry.
func NewMux() *Mux {
	return &Mux{handlers: make(map[MsgType]Handler)}
}

// Handle registers h for message type t, replacing any previous
// registration. It panics on a nil handler — registration is wiring,
// not data flow.
func (m *Mux) Handle(t MsgType, h Handler) {
	if h == nil {
		panic(fmt.Sprintf("comm: nil handler for %s", t))
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.handlers[t] = h
}

// Serve is a Handler: it routes env to the handler registered for its
// type.
func (m *Mux) Serve(ctx context.Context, env Envelope) (*Envelope, error) {
	m.mu.RLock()
	h := m.handlers[env.Type]
	m.mu.RUnlock()
	if h == nil {
		return nil, fmt.Errorf("%w: %s", ErrNoHandler, env.Type)
	}
	return h(ctx, env)
}
