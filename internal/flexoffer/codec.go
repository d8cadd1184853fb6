package flexoffer

import (
	"encoding/binary"

	"mirabel/internal/wire"
)

// Binary layout of the two planning objects and of a metered fact, in
// field order (primitives in package wire). The layouts have no
// self-describing parts: a change to any is a new version of every log
// and frame format carrying it.
//
//	FlexOffer:   ID uvarint | Prosumer string | EarliestStart varint |
//	             LatestStart varint | AssignBefore varint |
//	             CostPerKWh float64 | count uvarint |
//	             count × (EnergyMin float64, EnergyMax float64)
//	Schedule:    OfferID uvarint | Start varint | count uvarint |
//	             count × Energy float64
//	Measurement: Actor string | EnergyType string | Slot varint |
//	             KWh float64
//
// An empty Profile or Energy decodes as nil. The measurement has no type
// here — comm.MeasurementReport and store.Measurement are its two
// carriers, and both spell it through the pair below.

// AppendWire appends the offer's binary encoding to dst.
func (f *FlexOffer) AppendWire(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(f.ID))
	dst = wire.AppendString(dst, f.Prosumer)
	dst = binary.AppendVarint(dst, int64(f.EarliestStart))
	dst = binary.AppendVarint(dst, int64(f.LatestStart))
	dst = binary.AppendVarint(dst, int64(f.AssignBefore))
	dst = wire.AppendFloat64(dst, f.CostPerKWh)
	dst = binary.AppendUvarint(dst, uint64(len(f.Profile)))
	for _, sl := range f.Profile {
		dst = wire.AppendFloat64(dst, sl.EnergyMin)
		dst = wire.AppendFloat64(dst, sl.EnergyMax)
	}
	return dst
}

// ReadWire decodes an offer from r into f; failures stick to r.
func (f *FlexOffer) ReadWire(r *wire.Reader) {
	f.ID = ID(r.Uvarint())
	f.Prosumer = r.String()
	f.EarliestStart = Time(r.Varint())
	f.LatestStart = Time(r.Varint())
	f.AssignBefore = Time(r.Varint())
	f.CostPerKWh = r.Float64()
	f.Profile = nil
	if n := r.Count(16); n > 0 {
		f.Profile = make([]Slice, n)
		for i := range f.Profile {
			f.Profile[i] = Slice{EnergyMin: r.Float64(), EnergyMax: r.Float64()}
		}
	}
}

// AppendWire appends the schedule's binary encoding to dst.
func (s *Schedule) AppendWire(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(s.OfferID))
	dst = binary.AppendVarint(dst, int64(s.Start))
	dst = binary.AppendUvarint(dst, uint64(len(s.Energy)))
	for _, e := range s.Energy {
		dst = wire.AppendFloat64(dst, e)
	}
	return dst
}

// ReadWire decodes a schedule from r into s; failures stick to r.
func (s *Schedule) ReadWire(r *wire.Reader) {
	s.OfferID = ID(r.Uvarint())
	s.Start = Time(r.Varint())
	s.Energy = nil
	if n := r.Count(8); n > 0 {
		s.Energy = make([]float64, n)
		for i := range s.Energy {
			s.Energy[i] = r.Float64()
		}
	}
}

// MinScheduleWire is the smallest encoding of a Schedule (three one-byte
// varints): the element size decoders of schedule sequences hand to
// wire.Reader.Count.
const MinScheduleWire = 3

// AppendMeasurementWire appends one metered fact's binary encoding to
// dst.
func AppendMeasurementWire(dst []byte, actor, energyType string, slot Time, kwh float64) []byte {
	dst = wire.AppendString(dst, actor)
	dst = wire.AppendString(dst, energyType)
	dst = binary.AppendVarint(dst, int64(slot))
	return wire.AppendFloat64(dst, kwh)
}

// ReadMeasurementWire decodes one metered fact from r; failures stick
// to r.
func ReadMeasurementWire(r *wire.Reader) (actor, energyType string, slot Time, kwh float64) {
	return r.String(), r.String(), Time(r.Varint()), r.Float64()
}

// MinMeasurementWire is the smallest encoding of a metered fact: two
// empty strings, a one-byte slot and the float.
const MinMeasurementWire = 11
