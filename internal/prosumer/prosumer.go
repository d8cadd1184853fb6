// Package prosumer is the prosumer end of the EDMS: one endpoint that
// submits flex-offers to BRPs and takes the schedules they send back.
// It keeps both in memory only: the BRP's WAL is the durable copy of
// every offer it acked and of the schedule it delivered (README, "The
// prosumer is an endpoint").
//
// A schedule notify is taken only when every schedule in it is finite
// and names an offer this endpoint submitted to the notify's sender;
// otherwise the whole notify is refused before anything changes. For a
// prosumer with one BRP that is "only from its parent"; a simulation
// shard whose households belong to several BRPs takes each schedule
// only from the BRP its offer went to.
package prosumer

import (
	"context"
	"fmt"
	"maps"
	"sync"
	"sync/atomic"

	"mirabel/internal/comm"
	"mirabel/internal/flexoffer"
)

// Endpoint is one prosumer on the transport. Register Handler under
// its name; its outbound calls go through the client it was built with.
type Endpoint struct {
	name    string
	client  *comm.Client
	handler comm.Handler
	refused atomic.Uint64

	mu        sync.Mutex
	sentTo    map[flexoffer.ID]string // offer → the BRP it was submitted to
	schedules map[flexoffer.ID]*flexoffer.Schedule
}

// New builds the endpoint name sending through client.
func New(name string, client *comm.Client) *Endpoint {
	e := &Endpoint{
		name:      name,
		client:    client,
		sentTo:    make(map[flexoffer.ID]string),
		schedules: make(map[flexoffer.ID]*flexoffer.Schedule),
	}
	mux := comm.NewMux()
	mux.Handle(comm.MsgPing, e.handlePing)
	mux.Handle(comm.MsgScheduleNotify, e.handleScheduleNotify)
	e.handler = mux.Serve
	return e
}

// Handler answers ping and schedule_notify; every other message type
// is refused with comm.ErrNoHandler.
func (e *Endpoint) Handler() comm.Handler { return e.handler }

// Submit sends f to brp and returns its decision. The offer is recorded
// as brp's before the call, because the schedule can arrive before the
// decision reply. A rejection forgets it. A failed call keeps it: the
// failure may be ambiguous, and then brp may have acked the offer and
// will schedule it.
func (e *Endpoint) Submit(ctx context.Context, brp string, f *flexoffer.FlexOffer) (comm.FlexOfferDecision, error) {
	e.mu.Lock()
	e.sentTo[f.ID] = brp
	e.mu.Unlock()
	d, err := e.client.SubmitOffer(ctx, brp, f)
	if err == nil && !d.Accept {
		e.mu.Lock()
		delete(e.sentTo, f.ID)
		e.mu.Unlock()
	}
	return d, err
}

// Schedules returns a copy of the schedules held, by offer. A notify
// delivered twice holds its schedules once.
func (e *Endpoint) Schedules() map[flexoffer.ID]*flexoffer.Schedule {
	e.mu.Lock()
	defer e.mu.Unlock()
	return maps.Clone(e.schedules)
}

// Refused counts the schedule notifies refused whole.
func (e *Endpoint) Refused() uint64 { return e.refused.Load() }

func (e *Endpoint) handlePing(ctx context.Context, env comm.Envelope) (*comm.Envelope, error) {
	reply, err := comm.NewEnvelope(comm.MsgPong, e.name, env.From, nil)
	if err != nil {
		return nil, err
	}
	return &reply, nil
}

func (e *Endpoint) handleScheduleNotify(ctx context.Context, env comm.Envelope) (*comm.Envelope, error) {
	if err := e.take(env); err != nil {
		e.refused.Add(1)
		return nil, err
	}
	return nil, nil
}

// take records every schedule of a notify, or none of them.
func (e *Endpoint) take(env comm.Envelope) error {
	var body comm.ScheduleNotify
	if err := env.Decode(comm.MsgScheduleNotify, &body); err != nil {
		return err
	}
	for _, s := range body.Schedules {
		if err := s.CheckFinite(); err != nil {
			return err
		}
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, s := range body.Schedules {
		if brp, ok := e.sentTo[s.OfferID]; !ok || brp != env.From {
			return fmt.Errorf("prosumer: %s submitted no offer %d to %q", e.name, s.OfferID, env.From)
		}
	}
	for _, s := range body.Schedules {
		e.schedules[s.OfferID] = s
	}
	return nil
}
