package comm

import (
	"encoding/binary"
	"errors"
	"fmt"

	"mirabel/internal/flexoffer"
	"mirabel/internal/wire"
)

// The binary form of an envelope and of every message body, in field
// order (primitives in package wire; FlexOffer and Schedule in package
// flexoffer):
//
//	envelope:             type code byte | From string | To string |
//	                      Seq uvarint | body, to the end of the frame
//	flex_offer_submit:    FlexOffer
//	flex_offer_decision:  OfferID uvarint | Accept bool | Reason string |
//	                      PremiumEUR float64
//	schedule_notify:      count uvarint | count × Schedule
//	measurement_batch:    count uvarint | count × Measurement (flexoffer's
//	                      layout, shared with the store's logs)
//	error:                Message string
//	ping, pong:           no body
//
// Type codes are positions in msgTypes and never change meaning; a new
// message type takes the next free code. Retired codes are refused as
// unknown and never reused: code 5 was the single-value
// measurement_report, codes 6 and 7 the forecast_request and
// forecast_reply of the remote forecast query.
var msgTypes = [...]MsgType{
	1:  MsgFlexOfferSubmit,
	2:  MsgFlexOfferDecision,
	3:  MsgScheduleNotify,
	4:  MsgMeasurementBatch,
	8:  MsgPing,
	9:  MsgPong,
	10: MsgError,
}

func msgCode(t MsgType) (byte, bool) {
	if t == "" {
		return 0, false
	}
	for code := 1; code < len(msgTypes); code++ {
		if msgTypes[code] == t {
			return byte(code), true
		}
	}
	return 0, false
}

// appendEnvelope appends env's wire form to dst.
func appendEnvelope(dst []byte, env *Envelope) ([]byte, error) {
	code, ok := msgCode(env.Type)
	if !ok {
		return dst, fmt.Errorf("comm: message type %q has no wire code", env.Type)
	}
	dst = append(dst, code)
	dst = wire.AppendString(dst, env.From)
	dst = wire.AppendString(dst, env.To)
	dst = binary.AppendUvarint(dst, env.Seq)
	return append(dst, env.Body...), nil
}

// peerNames holds the From and To of the last frame a connection
// decoded. A connection carries one sender and one receiver, so a frame
// whose names match reuses these strings instead of copying its own;
// they are copies, never views into a frame.
type peerNames struct{ from, to string }

// decode decodes one frame payload, its names taken from p when their
// bytes match and left in p for the next frame. The returned envelope
// owns all its memory — names are copies and Body is a fresh copy — so
// raw can be reused as soon as this returns.
func (p *peerNames) decode(raw []byte) (Envelope, error) {
	r := wire.NewReader(raw)
	code := r.Byte()
	var env Envelope
	env.From = reuseName(&p.from, r.Bytes())
	env.To = reuseName(&p.to, r.Bytes())
	env.Seq = r.Uvarint()
	if err := r.Err(); err != nil {
		return Envelope{}, fmt.Errorf("comm: decode frame: %w", err)
	}
	if int(code) >= len(msgTypes) || msgTypes[code] == "" {
		return Envelope{}, fmt.Errorf("comm: decode frame: unknown message type code %d", code)
	}
	env.Type = msgTypes[code]
	if body := r.Rest(); len(body) > 0 {
		env.Body = append([]byte(nil), body...)
	}
	return env, nil
}

// reuseName returns *last if it spells b, else a copy of b, which it
// also keeps in *last.
func reuseName(last *string, b []byte) string {
	if string(b) != *last {
		*last = string(b)
	}
	return *last
}

// bodyEncoder and bodyDecoder are implemented by the message body types
// (encoders on the value, so both T and *T encode; decoders on *T).
type bodyEncoder interface {
	appendBody(dst []byte) ([]byte, error)
}

type bodyDecoder interface {
	readBody(r *wire.Reader)
}

func decodeBody(raw []byte, out bodyDecoder) error {
	r := wire.NewReader(raw)
	out.readBody(&r)
	return r.Done()
}

var errNilOffer = errors.New("submit without an offer")

func (m FlexOfferSubmit) appendBody(dst []byte) ([]byte, error) {
	if m.Offer == nil {
		return dst, errNilOffer
	}
	return m.Offer.AppendWire(dst), nil
}

// readBody always leaves a non-nil Offer: the wire form has no way to
// say "no offer".
func (m *FlexOfferSubmit) readBody(r *wire.Reader) {
	m.Offer = new(flexoffer.FlexOffer)
	m.Offer.ReadWire(r, nil)
}

func (m FlexOfferDecision) appendBody(dst []byte) ([]byte, error) {
	dst = binary.AppendUvarint(dst, uint64(m.OfferID))
	dst = wire.AppendBool(dst, m.Accept)
	dst = wire.AppendString(dst, m.Reason)
	return wire.AppendFloat64(dst, m.PremiumEUR), nil
}

func (m *FlexOfferDecision) readBody(r *wire.Reader) {
	m.OfferID = flexoffer.ID(r.Uvarint())
	m.Accept = r.Bool()
	m.Reason = r.String()
	m.PremiumEUR = r.Float64()
}

func (m ScheduleNotify) appendBody(dst []byte) ([]byte, error) {
	dst = binary.AppendUvarint(dst, uint64(len(m.Schedules)))
	for i, s := range m.Schedules {
		if s == nil {
			return dst, fmt.Errorf("schedule %d is nil", i)
		}
		dst = s.AppendWire(dst)
	}
	return dst, nil
}

func (m *ScheduleNotify) readBody(r *wire.Reader) {
	m.Schedules = nil
	if n := r.Count(flexoffer.MinScheduleWire); n > 0 {
		m.Schedules = make([]*flexoffer.Schedule, n)
		for i := range m.Schedules {
			m.Schedules[i] = new(flexoffer.Schedule)
			m.Schedules[i].ReadWire(r, nil)
		}
	}
}

func (m MeasurementBatch) appendBody(dst []byte) ([]byte, error) {
	dst = binary.AppendUvarint(dst, uint64(len(m.Reports)))
	for _, rep := range m.Reports {
		dst = flexoffer.AppendMeasurementWire(dst, rep.Actor, rep.EnergyType, rep.Slot, rep.KWh)
	}
	return dst, nil
}

func (m *MeasurementBatch) readBody(r *wire.Reader) {
	m.Reports = nil
	if n := r.Count(flexoffer.MinMeasurementWire); n > 0 {
		m.Reports = make([]MeasurementReport, n)
		for i := range m.Reports {
			rep := &m.Reports[i]
			rep.Actor, rep.EnergyType, rep.Slot, rep.KWh = flexoffer.ReadMeasurementWire(r)
		}
	}
}

func (m ErrorBody) appendBody(dst []byte) ([]byte, error) {
	return wire.AppendString(dst, m.Message), nil
}

func (m *ErrorBody) readBody(r *wire.Reader) { m.Message = r.String() }
