package comm

import (
	"context"
	"fmt"
	"time"

	"mirabel/internal/flexoffer"
)

// Client is the typed RPC surface of the node fabric: one method per
// message exchange, hiding envelope construction and decoding from
// callers. All traffic outside the comm and core dispatch layers goes
// through a Client; hand-rolled NewEnvelope/Decode call sites are an
// anti-pattern at the application level.
//
// A Client is safe for concurrent use if its Transport is.
type Client struct {
	from    string
	t       Transport
	timeout time.Duration
}

// ClientOption customizes a Client.
type ClientOption func(*Client)

// WithRequestTimeout sets the per-request timeout applied when the
// caller's context carries no deadline (default DefaultTimeout).
func WithRequestTimeout(d time.Duration) ClientOption {
	return func(c *Client) {
		if d > 0 {
			c.timeout = d
		}
	}
}

// NewClient returns a typed client speaking as from over t.
func NewClient(from string, t Transport, opts ...ClientOption) *Client {
	c := &Client{from: from, t: t, timeout: DefaultTimeout}
	for _, o := range opts {
		o(c)
	}
	return c
}

// withDeadline applies the client's default timeout when ctx has none.
func (c *Client) withDeadline(ctx context.Context) (context.Context, context.CancelFunc) {
	if _, ok := ctx.Deadline(); ok {
		return ctx, func() {}
	}
	return context.WithTimeout(ctx, c.timeout)
}

// call performs one typed request/reply exchange.
func (c *Client) call(ctx context.Context, to string, req MsgType, body any, want MsgType, out any) error {
	env, err := NewEnvelope(req, c.from, to, body)
	if err != nil {
		return err
	}
	ctx, cancel := c.withDeadline(ctx)
	defer cancel()
	reply, err := c.t.Request(ctx, to, env)
	if err != nil {
		return err
	}
	if out == nil {
		if reply.Type != want {
			return fmt.Errorf("comm: %s reply is %s, want %s", req, reply.Type, want)
		}
		return nil
	}
	return reply.Decode(want, out)
}

// SubmitOffer submits a flex-offer to a BRP endpoint and returns
// its negotiation decision.
func (c *Client) SubmitOffer(ctx context.Context, to string, offer *flexoffer.FlexOffer) (FlexOfferDecision, error) {
	var d FlexOfferDecision
	err := c.call(ctx, to, MsgFlexOfferSubmit, FlexOfferSubmit{Offer: offer}, MsgFlexOfferDecision, &d)
	return d, err
}

// NotifySchedules delivers scheduled instantiations to their owner.
// Fire-and-forget: delivery is asynchronous on the Bus transport.
func (c *Client) NotifySchedules(ctx context.Context, to string, schedules []*flexoffer.Schedule) error {
	env, err := NewEnvelope(MsgScheduleNotify, c.from, to, ScheduleNotify{Schedules: schedules})
	if err != nil {
		return err
	}
	ctx, cancel := c.withDeadline(ctx)
	defer cancel()
	return c.t.Send(ctx, to, env)
}

// ReportMeasurementsAcked reports a batch of metered values upstream in
// one message and waits for the receiver's ack: a node has taken the
// batch into its WAL when the reply arrives. It is the only meter
// message.
func (c *Client) ReportMeasurementsAcked(ctx context.Context, to string, ms []MeasurementReport) error {
	if len(ms) == 0 {
		return nil
	}
	return c.call(ctx, to, MsgMeasurementBatch, MeasurementBatch{Reports: ms}, MsgPong, nil)
}

// Ping checks an endpoint's liveness.
func (c *Client) Ping(ctx context.Context, to string) error {
	return c.call(ctx, to, MsgPing, nil, MsgPong, nil)
}
