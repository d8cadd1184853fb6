package store

import (
	"encoding/binary"
	"fmt"

	"mirabel/internal/flexoffer"
	"mirabel/internal/wire"
)

// WAL frame tags: one per table, plus the measurement-retention sweep,
// the two offer transitions and the guarded offer insert. Every tagged
// record is an upsert, an absolute state assignment or an insert that
// keeps a stored record; the prune mark is logged once per sweep. Tags
// never change meaning, and a new one keeps the format version (the
// versioning rule in frame.go).
//
// Every payload is binary, in field order (primitives in package wire,
// FlexOffer and Schedule in package flexoffer):
//
//	offers:       Owner string | State | Offer FlexOffer |
//	              has-schedule bool | [Schedule]
//	              State = one code byte (position in offerStates), or
//	              0xFF and the state as a string for one not listed
//	offers_if_absent:
//	              the offers layout; the record is stored only if no
//	              record holds its ID when it applies (ApplyIntake's
//	              rule). Intake logs a rejected record this way, so a
//	              refused duplicate never replaces the original
//	offer_transitions:
//	              ID uvarint | State | has-schedule bool | [Schedule]
//	              the State and Schedule of a stored offer, assigned as
//	              they are (no schedule clears it); an update that kept
//	              the record's offer and owner but not its Schedule
//	              pointer logs this, not the offer
//	offer_states: ID uvarint | State
//	              the State of a stored offer, assigned as it is; its
//	              schedule stays whatever the offer's earlier records
//	              set. An update that kept the offer, the owner and the
//	              Schedule pointer logs this
//	measurements: Measurement (flexoffer's layout, shared with the wire)
//	prune:        Before varint
//
// Tags 1-3 and 6-9 are reserved: older builds wrote the paper's
// dimension and cold fact tables under them, as JSON. Tag 1 (actors)
// is in every node directory those builds started, one row per start
// repeating the node's own configuration; replay skips it unread and
// nothing writes it. The other six (retiredTags) held tables whose rows
// no reader of this build could keep, so a WAL holding one is refused
// with ErrLogFormat, as is one holding a tag this build does not know.
const (
	tagActor          byte = 1
	tagMeasurement    byte = 4
	tagOffer          byte = 5
	tagPrune          byte = 10
	tagOfferState     byte = 11
	tagOfferStateOnly byte = 12
	tagOfferIfAbsent  byte = 13
)

var tagNames = [...]string{
	tagActor:          "actors",
	tagMeasurement:    "measurements",
	tagOffer:          "offers",
	tagPrune:          "prune",
	tagOfferState:     "offer_transitions",
	tagOfferStateOnly: "offer_states",
	tagOfferIfAbsent:  "offers_if_absent",
}

// retiredTags names the tables of the reserved tags a WAL may not hold.
var retiredTags = map[byte]string{
	2: "energy_types",
	3: "market_areas",
	6: "forecasts",
	7: "prices",
	8: "contracts",
	9: "model_params",
}

// refuseTag is nil for a tag this build reads and, for a retired tag or
// one it does not know, an ErrLogFormat error that says which.
func refuseTag(tag byte) error {
	if int(tag) < len(tagNames) && tagNames[tag] != "" {
		return nil
	}
	if table, ok := retiredTags[tag]; ok {
		return fmt.Errorf("%w: wal tag %d holds the %s table, which this build no longer keeps", ErrLogFormat, tag, table)
	}
	return fmt.Errorf("%w: wal tag %d is unknown to this build", ErrLogFormat, tag)
}

// offerStates maps state codes to states; code 0 is the zero value.
var offerStates = [...]OfferState{
	0: "",
	1: OfferReceived,
	2: OfferAccepted,
	3: OfferRejected,
	4: OfferScheduled,
	5: OfferExecuted,
	6: OfferExpired,
	7: OfferCancelled,
}

const otherState = 0xFF

func appendState(dst []byte, st OfferState) []byte {
	for code, known := range offerStates {
		if st == known {
			return append(dst, byte(code))
		}
	}
	return wire.AppendString(append(dst, otherState), string(st))
}

func readState(r *wire.Reader) OfferState {
	code := r.Byte()
	if code == otherState {
		return OfferState(r.String())
	}
	if int(code) >= len(offerStates) {
		r.Fail(wire.ErrMalformed)
		return ""
	}
	return offerStates[code]
}

// AppendWire appends the record's binary encoding to dst. The record
// must hold an offer, as every store and ingest entry point requires.
func (rec *OfferRecord) AppendWire(dst []byte) []byte {
	dst = wire.AppendString(dst, rec.Owner)
	dst = appendState(dst, rec.State)
	dst = rec.Offer.AppendWire(dst)
	return appendSchedule(dst, rec.Schedule)
}

// ReadWire decodes a record from r into rec, its offer and schedule
// from a (nil: fresh allocations); failures stick to r. A decoded record
// always holds an offer.
func (rec *OfferRecord) ReadWire(r *wire.Reader, a *flexoffer.Slab) {
	rec.Owner = r.String()
	rec.State = readState(r)
	rec.Offer = a.NewOffer()
	rec.Offer.ReadWire(r, a)
	rec.Schedule = readSchedule(r, a)
}

// appendSchedule and readSchedule carry an optional schedule:
// has-schedule bool, then the schedule if there is one.
func appendSchedule(dst []byte, s *flexoffer.Schedule) []byte {
	dst = wire.AppendBool(dst, s != nil)
	if s != nil {
		dst = s.AppendWire(dst)
	}
	return dst
}

func readSchedule(r *wire.Reader, a *flexoffer.Slab) *flexoffer.Schedule {
	if !r.Bool() {
		return nil
	}
	s := a.NewSchedule()
	s.ReadWire(r, a)
	return s
}

// offerTransition is the logged form of an offer update that kept the
// record's offer and owner: the state and schedule it assigns to the
// offer stored under ID.
type offerTransition struct {
	ID       flexoffer.ID        `json:"id"`
	State    OfferState          `json:"state"`
	Schedule *flexoffer.Schedule `json:"schedule,omitempty"`
}

func (t *offerTransition) readWire(r *wire.Reader, a *flexoffer.Slab) {
	t.ID = flexoffer.ID(r.Uvarint())
	t.State = readState(r)
	t.Schedule = readSchedule(r, a)
}

// offerStateStep is the logged form of an offer update that kept the
// record's offer, owner and Schedule pointer: the state it assigns to
// the offer stored under ID.
type offerStateStep struct {
	ID    flexoffer.ID `json:"id"`
	State OfferState   `json:"state"`
}

func (t *offerStateStep) readWire(r *wire.Reader) {
	t.ID = flexoffer.ID(r.Uvarint())
	t.State = readState(r)
}

// AppendWire appends the measurement's binary encoding to dst.
func (m *Measurement) AppendWire(dst []byte) []byte {
	return flexoffer.AppendMeasurementWire(dst, m.Actor, m.EnergyType, m.Slot, m.KWh)
}

// ReadWire decodes a measurement from r into m; failures stick to r.
func (m *Measurement) ReadWire(r *wire.Reader) {
	m.Actor, m.EnergyType, m.Slot, m.KWh = flexoffer.ReadMeasurementWire(r)
}

// pruneMark is a decoded prune frame: the logged form of a
// PruneMeasurements call.
type pruneMark struct {
	Before flexoffer.Time `json:"before"`
}

// appendOfferFrame, appendUpdateFrame and appendMeasurementFrame append
// one hot-table mutation to dst as a complete WAL frame. They take the
// record by pointer and cannot fail, so the put and update paths frame a
// record into a buffer with room without allocating.
func appendOfferFrame(dst []byte, rec *OfferRecord) []byte {
	dst, mark := BeginFrame(dst, tagOffer)
	return EndFrame(rec.AppendWire(dst), mark)
}

// AppendIntakeFrames appends the WAL frames that log ev to dst and
// returns the extended buffer and how many records they are: one offers
// frame for an offer — offers_if_absent for a rejected one — or one
// measurements frame per fact of a meter batch.
func AppendIntakeFrames(dst []byte, ev *Intake) ([]byte, int) {
	if ev.Offer == nil {
		for i := range ev.Meas {
			dst = appendMeasurementFrame(dst, &ev.Meas[i])
		}
		return dst, len(ev.Meas)
	}
	tag := tagOffer
	if ev.Offer.State == OfferRejected {
		tag = tagOfferIfAbsent
	}
	dst, mark := BeginFrame(dst, tag)
	return EndFrame(ev.Offer.AppendWire(dst), mark), 1
}

// appendUpdateFrame frames the update that took a stored record from
// old to now: the whole record when the update changed the offer or the
// owner, else a transition with its schedule when it changed the
// Schedule pointer, else the state alone.
func appendUpdateFrame(dst []byte, old, now *OfferRecord) []byte {
	if now.Offer != old.Offer || now.Owner != old.Owner {
		return appendOfferFrame(dst, now)
	}
	keep := now.Schedule == old.Schedule
	tag := tagOfferState
	if keep {
		tag = tagOfferStateOnly
	}
	dst, mark := BeginFrame(dst, tag)
	dst = binary.AppendUvarint(dst, uint64(now.Offer.ID))
	dst = appendState(dst, now.State)
	if !keep {
		dst = appendSchedule(dst, now.Schedule)
	}
	return EndFrame(dst, mark)
}

func appendMeasurementFrame(dst []byte, m *Measurement) []byte {
	dst, mark := BeginFrame(dst, tagMeasurement)
	return EndFrame(m.AppendWire(dst), mark)
}

// appendPruneFrame frames a PruneMeasurements sweep of the slots
// before before.
func appendPruneFrame(dst []byte, before flexoffer.Time) []byte {
	dst, mark := BeginFrame(dst, tagPrune)
	return EndFrame(binary.AppendVarint(dst, int64(before)), mark)
}

// DecodeWALRecord decodes one WAL frame for inspection: the table (or
// "prune", "offer_transitions", "offer_states" or "offers_if_absent")
// the tag names and the record as the Go value the store would apply. A
// legacy actors row decodes to its payload text, unread; a retired or
// unknown tag fails with ErrLogFormat. Recovery decodes the frames
// itself (replay.decode).
func DecodeWALRecord(tag byte, payload []byte) (table string, v any, err error) {
	if err := refuseTag(tag); err != nil {
		return "", nil, err
	}
	r := wire.NewReader(payload)
	switch tag {
	case tagActor:
		return tagNames[tag], string(payload), nil
	case tagOffer, tagOfferIfAbsent:
		var rec OfferRecord
		rec.ReadWire(&r, nil)
		v = rec
	case tagOfferState:
		var t offerTransition
		t.readWire(&r, nil)
		v = t
	case tagOfferStateOnly:
		var t offerStateStep
		t.readWire(&r)
		v = t
	case tagMeasurement:
		var m Measurement
		m.ReadWire(&r)
		v = m
	case tagPrune:
		v = pruneMark{Before: flexoffer.Time(r.Varint())}
	}
	if err := r.Done(); err != nil {
		return "", nil, decodeError(tag, err)
	}
	return tagNames[tag], v, nil
}

func decodeError(tag byte, err error) error {
	return fmt.Errorf("store: decode %s record: %w", tagNames[tag], err)
}
