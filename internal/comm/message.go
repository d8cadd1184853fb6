// Package comm is the MIRABEL Communication component (paper §3):
// message exchange between LEDMS nodes — "flex-offers, supply and demand
// measurements, forecasts, etc." — for an EDMS that "consists of
// millions of homogeneous nodes".
//
// The package is layered, context-first throughout:
//
//   - Envelope is the wire unit: a typed binary payload with routing
//     metadata (codec.go spells out every body's layout). Two
//     Transports move envelopes: an in-process Bus for
//     population-scale simulation and a TCP transport for real
//     deployments — length-prefixed frames over one connection per
//     destination, with requests correlated to replies by Envelope.Seq
//     so any number of round trips pipeline on it. Concurrent
//     operations on one TCPClient overlap fully (no client-wide lock
//     covers I/O), so a fan-out wave completes in the time of its
//     slowest peer, not the sum. Both
//     transports offer request/response and true fire-and-forget
//     semantics and honor context cancellation and deadlines: a
//     canceled Request returns ctx.Err() promptly on both. On the Bus
//     the serving Handler observes the caller's cancellation directly;
//     over TCP the handler runs under a server-scoped context
//     (canceled on shutdown) and a caller's mid-flight cancel unblocks
//     only the calling side, leaving the connection healthy.
//
//   - Client is the typed RPC surface applications use: SubmitOffer,
//     NotifySchedules, ReportMeasurementsAcked, Ping. It
//     owns envelope construction and reply decoding; callers never
//     touch NewEnvelope/Decode.
//
//   - Mux routes inbound envelopes to per-MsgType Handlers, and
//     Middleware (Recover, Logging, Metrics.Collect — composed with
//     Chain) layers cross-cutting behaviour over every handler
//     uniformly.
//
// A minimal node:
//
//	mux := comm.NewMux()
//	mux.Handle(comm.MsgPing, func(ctx context.Context, env comm.Envelope) (*comm.Envelope, error) {
//		pong, err := comm.NewEnvelope(comm.MsgPong, "me", env.From, nil)
//		return &pong, err
//	})
//	bus.Register("me", comm.Chain(mux.Serve, comm.Recover()))
//
//	client := comm.NewClient("you", bus)
//	err := client.Ping(ctx, "me")
package comm

import (
	"fmt"

	"mirabel/internal/flexoffer"
	"mirabel/internal/wire"
)

// MsgType tags the payload carried by an envelope.
type MsgType string

// The message vocabulary of the EDMS.
const (
	// MsgFlexOfferSubmit: prosumer → BRP: a new flex-offer.
	MsgFlexOfferSubmit MsgType = "flex_offer_submit"
	// MsgFlexOfferDecision: BRP → prosumer: accept/reject with the
	// negotiated premium.
	MsgFlexOfferDecision MsgType = "flex_offer_decision"
	// MsgScheduleNotify: BRP → prosumer: the scheduled instantiation of
	// a previously accepted flex-offer.
	MsgScheduleNotify MsgType = "schedule_notify"
	// MsgMeasurementBatch: prosumer → BRP: a batch of metered
	// consumption or production values (one message, one store group
	// commit at the receiver) — the only meter message.
	MsgMeasurementBatch MsgType = "measurement_batch"
	// MsgPing / MsgPong: liveness.
	MsgPing MsgType = "ping"
	MsgPong MsgType = "pong"
	// MsgError: a transported failure.
	MsgError MsgType = "error"
)

// Envelope is the wire unit: a typed payload with routing metadata.
// Body is the payload's binary encoding (empty for ping and pong);
// NewEnvelope and Decode are the only code that reads or writes it.
type Envelope struct {
	Type MsgType
	From string
	To   string
	Seq  uint64 // correlation id for replies
	Body []byte
}

// The JSON tags on the body types below are not what travels: they keep
// encoding/json a working reference the codec tests compare against.

// FlexOfferSubmit is the body of MsgFlexOfferSubmit.
type FlexOfferSubmit struct {
	Offer *flexoffer.FlexOffer `json:"offer"`
}

// FlexOfferDecision is the body of MsgFlexOfferDecision.
type FlexOfferDecision struct {
	OfferID flexoffer.ID `json:"offer_id"`
	Accept  bool         `json:"accept"`
	Reason  string       `json:"reason,omitempty"`
	// PremiumEUR is the negotiated flexibility premium per kWh.
	PremiumEUR float64 `json:"premium_eur,omitempty"`
}

// ScheduleNotify is the body of MsgScheduleNotify.
type ScheduleNotify struct {
	Schedules []*flexoffer.Schedule `json:"schedules"`
}

// MeasurementReport is one metered value, an element of
// MeasurementBatch; it travels only inside a batch.
type MeasurementReport struct {
	Actor      string         `json:"actor"`
	EnergyType string         `json:"energy_type"`
	Slot       flexoffer.Time `json:"slot"`
	KWh        float64        `json:"kwh"`
}

// MeasurementBatch is the body of MsgMeasurementBatch.
type MeasurementBatch struct {
	Reports []MeasurementReport `json:"reports"`
}

// ErrorBody is the body of MsgError.
type ErrorBody struct {
	Message string `json:"message"`
}

// NewEnvelope encodes body — one of the body types above, by value or
// by pointer, or nil for a bodiless message — into a typed envelope.
func NewEnvelope(t MsgType, from, to string, body any) (Envelope, error) {
	env := Envelope{Type: t, From: from, To: to}
	if body == nil {
		return env, nil
	}
	enc, ok := body.(bodyEncoder)
	if !ok {
		return Envelope{}, fmt.Errorf("comm: %s body of type %T has no wire encoding", t, body)
	}
	// Encode into pooled scratch, keep an exact-size copy: one
	// allocation per body however large it grows.
	buf := wire.GetBuf()
	defer wire.PutBuf(buf)
	raw, err := enc.appendBody(*buf)
	*buf = raw
	if err != nil {
		return Envelope{}, fmt.Errorf("comm: encode %s body: %w", t, err)
	}
	env.Body = append([]byte(nil), raw...)
	return env, nil
}

// Decode decodes the envelope body into out — a pointer to one of the
// body types — and verifies the type tag.
func (e *Envelope) Decode(want MsgType, out any) error {
	if e.Type != want {
		return fmt.Errorf("comm: envelope is %s, want %s", e.Type, want)
	}
	dec, ok := out.(bodyDecoder)
	if !ok {
		return fmt.Errorf("comm: cannot decode a %s body into %T", e.Type, out)
	}
	if err := decodeBody(e.Body, dec); err != nil {
		return fmt.Errorf("comm: decode %s body: %w", e.Type, err)
	}
	return nil
}

// ErrorEnvelope builds an error reply for a received envelope.
func ErrorEnvelope(inReplyTo *Envelope, from string, msg string) Envelope {
	raw, _ := ErrorBody{Message: msg}.appendBody(nil) // cannot fail
	return Envelope{Type: MsgError, From: from, To: inReplyTo.From, Seq: inReplyTo.Seq, Body: raw}
}
