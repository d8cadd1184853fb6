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

// ReadWire decodes an offer from r into f, its profile from a (nil:
// a fresh allocation); failures stick to r.
func (f *FlexOffer) ReadWire(r *wire.Reader, a *Slab) {
	f.ID = ID(r.Uvarint())
	f.Prosumer = r.String()
	f.EarliestStart = Time(r.Varint())
	f.LatestStart = Time(r.Varint())
	f.AssignBefore = Time(r.Varint())
	f.CostPerKWh = r.Float64()
	f.Profile = nil
	if n := r.Count(16); n > 0 {
		f.Profile = a.profile(n)
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

// ReadWire decodes a schedule from r into s, its energies from a (nil:
// a fresh allocation); failures stick to r.
func (s *Schedule) ReadWire(r *wire.Reader, a *Slab) {
	s.OfferID = ID(r.Uvarint())
	s.Start = Time(r.Varint())
	s.Energy = nil
	if n := r.Count(8); n > 0 {
		s.Energy = a.energy(n)
		for i := range s.Energy {
			s.Energy[i] = r.Float64()
		}
	}
}

// Slab is the chunked allocator of one decoding pass, such as a log
// replay: it hands out offers, schedules and their profile and energy
// runs from chunks of slabStructs structs and slabRun elements, so
// thousands of replayed records cost a few dozen allocations instead of
// one to three each. Every run it hands out is capped at its length, so
// an append to one reallocates instead of writing into its neighbour's.
// A chunk stays reachable while any record carved from it is. A nil
// *Slab allocates every object on its own, as a decoder of live
// messages wants. A Slab is not safe for concurrent use; whoever runs
// the pass owns it and drops it when the pass ends.
type Slab struct {
	offers    []FlexOffer
	schedules []Schedule
	slices    []Slice
	floats    []float64
}

// Chunk sizes of a Slab: structs per offer or schedule chunk, elements
// per profile or energy chunk. A run longer than slabRun gets its own
// allocation.
const (
	slabStructs = 256
	slabRun     = 4096
)

// NewOffer returns a zero offer from a's current chunk.
func (a *Slab) NewOffer() *FlexOffer {
	if a == nil {
		return new(FlexOffer)
	}
	return &take(&a.offers, 1, slabStructs)[0]
}

// NewSchedule returns a zero schedule from a's current chunk.
func (a *Slab) NewSchedule() *Schedule {
	if a == nil {
		return new(Schedule)
	}
	return &take(&a.schedules, 1, slabStructs)[0]
}

func (a *Slab) profile(n int) []Slice {
	if a == nil {
		return make([]Slice, n)
	}
	return take(&a.slices, n, slabRun)
}

func (a *Slab) energy(n int) []float64 {
	if a == nil {
		return make([]float64, n)
	}
	return take(&a.floats, n, slabRun)
}

// take cuts a run of n elements, capped at n, off the front of *chunk,
// starting a fresh chunk of size elements when the current one is
// short. A run longer than a chunk gets an allocation of its own.
func take[T any](chunk *[]T, n, size int) []T {
	if n > size {
		return make([]T, n)
	}
	if len(*chunk) < n {
		*chunk = make([]T, size)
	}
	run := (*chunk)[:n:n]
	*chunk = (*chunk)[n:]
	return run
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
