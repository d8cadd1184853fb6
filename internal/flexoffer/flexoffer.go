// Package flexoffer defines MIRABEL's central energy planning object, the
// flex-offer (paper §2, Figure 3): an energy profile of slices with
// per-slice minimum/maximum energy, a time flexibility interval bounded by
// the earliest and latest start time, and an assignment deadline.
//
// All times are discrete slots of fixed duration (15 minutes by default,
// matching the resolution of the European intra-day market). A slot index
// counts slots since a system-wide epoch. Consumption is positive energy,
// production (e.g. a rooftop PV flex-offer) is negative; both directions
// are treated uniformly, as the paper requires.
package flexoffer

import (
	"errors"
	"fmt"
	"math"
)

// SlotMinutes is the duration of one time slot. The whole system operates
// on this single resolution; the workload generators and the scheduler
// share it.
const SlotMinutes = 15

// SlotsPerHour and SlotsPerDay are derived grid constants.
const (
	SlotsPerHour = 60 / SlotMinutes
	SlotsPerDay  = 24 * SlotsPerHour
)

// Time is a discrete time: the index of a 15-minute slot since the epoch.
type Time int64

// ID uniquely identifies a flex-offer inside one EDMS node.
type ID uint64

// Slice is one interval of a flex-offer profile: during one slot the
// prosumer consumes (or produces, if negative) an energy amount within
// [EnergyMin, EnergyMax] kWh.
type Slice struct {
	EnergyMin float64
	EnergyMax float64
}

// Flexibility returns the energy flexibility of the slice (kWh).
func (s Slice) Flexibility() float64 { return s.EnergyMax - s.EnergyMin }

// FlexOffer is an energy planning object as issued by a prosumer node.
type FlexOffer struct {
	ID       ID
	Prosumer string // issuing actor identifier

	// EarliestStart and LatestStart bound the start of execution; their
	// difference is the offer's time flexibility.
	EarliestStart Time
	LatestStart   Time

	// AssignBefore is the assignment deadline: the BRP must send back a
	// schedule before this time, otherwise the offer expires and the
	// prosumer falls back to the default profile (paper §1: pending
	// flexibilities simply time out).
	AssignBefore Time

	// Profile holds one Slice per slot of execution.
	Profile []Slice

	// CostPerKWh is the activation price (EUR/kWh) the BRP pays the
	// prosumer when scheduling this offer; the negotiation component
	// sets it.
	CostPerKWh float64
}

// NumSlices returns the profile length in slots.
func (f *FlexOffer) NumSlices() int { return len(f.Profile) }

// TimeFlexibility returns LatestStart − EarliestStart in slots — the
// paper's "time flexibility interval" (how far execution can be shifted).
func (f *FlexOffer) TimeFlexibility() Time { return f.LatestStart - f.EarliestStart }

// EnergyFlexibility returns the total dispatchable energy range in kWh
// (Σ max−min over slices).
func (f *FlexOffer) EnergyFlexibility() float64 {
	var s float64
	for _, sl := range f.Profile {
		s += sl.Flexibility()
	}
	return s
}

// MinTotalEnergy returns the minimum total energy of the profile (kWh).
func (f *FlexOffer) MinTotalEnergy() float64 {
	var s float64
	for _, sl := range f.Profile {
		s += sl.EnergyMin
	}
	return s
}

// MaxTotalEnergy returns the maximum total energy of the profile (kWh).
func (f *FlexOffer) MaxTotalEnergy() float64 {
	var s float64
	for _, sl := range f.Profile {
		s += sl.EnergyMax
	}
	return s
}

// LatestEnd returns the slot directly after the last execution slot when
// the offer starts as late as possible.
func (f *FlexOffer) LatestEnd() Time { return f.LatestStart + Time(len(f.Profile)) }

// finite reports whether x is an ordinary number. The binary codec
// carries float bits verbatim, so NaN and ±Inf can arrive from a peer;
// one of them in an energy or a price would poison every cached sum
// downstream (NaN also slips through every < and > comparison).
func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// Validate checks the structural invariants of the offer.
func (f *FlexOffer) Validate() error {
	if len(f.Profile) == 0 {
		return fmt.Errorf("flexoffer %d: empty profile", f.ID)
	}
	if !finite(f.CostPerKWh) {
		return fmt.Errorf("flexoffer %d: non-finite price %g", f.ID, f.CostPerKWh)
	}
	if f.LatestStart < f.EarliestStart {
		return fmt.Errorf("flexoffer %d: latest start %d before earliest start %d", f.ID, f.LatestStart, f.EarliestStart)
	}
	// The codec carries int64 times verbatim, so the time arithmetic
	// every consumer does must be checked not to wrap.
	if f.TimeFlexibility() < 0 {
		return fmt.Errorf("flexoffer %d: start window [%d, %d] overflows", f.ID, f.EarliestStart, f.LatestStart)
	}
	if f.LatestStart > math.MaxInt64-Time(len(f.Profile)) {
		return fmt.Errorf("flexoffer %d: latest end of start %d + %d slices overflows", f.ID, f.LatestStart, len(f.Profile))
	}
	if f.AssignBefore > f.EarliestStart {
		return fmt.Errorf("flexoffer %d: assignment deadline %d after earliest start %d", f.ID, f.AssignBefore, f.EarliestStart)
	}
	for i, sl := range f.Profile {
		if !finite(sl.EnergyMin) || !finite(sl.EnergyMax) {
			return fmt.Errorf("flexoffer %d: slice %d non-finite energy [%g, %g]", f.ID, i, sl.EnergyMin, sl.EnergyMax)
		}
		if sl.EnergyMin > sl.EnergyMax {
			return fmt.Errorf("flexoffer %d: slice %d min %g > max %g", f.ID, i, sl.EnergyMin, sl.EnergyMax)
		}
	}
	return nil
}

// Clone returns a deep copy of the offer.
func (f *FlexOffer) Clone() *FlexOffer {
	cp := *f
	cp.Profile = append([]Slice(nil), f.Profile...)
	return &cp
}

// Schedule is a scheduled (instantiated) flex-offer: the scheduling
// component has fixed the start time and the energy amount of every slice.
type Schedule struct {
	OfferID ID
	Start   Time      // fixed start slot
	Energy  []float64 // fixed energy per slice (kWh), len == NumSlices
}

// TotalEnergy returns the total scheduled energy in kWh.
func (s *Schedule) TotalEnergy() float64 {
	var sum float64
	for _, e := range s.Energy {
		sum += e
	}
	return sum
}

// CheckFinite rejects a schedule carrying a NaN or ±Inf energy — the
// check a receiver can make before it knows (or without knowing) the
// offer the schedule instantiates.
func (s *Schedule) CheckFinite() error {
	for i, e := range s.Energy {
		if !finite(e) {
			return fmt.Errorf("flexoffer: schedule for offer %d: slice %d non-finite energy %g", s.OfferID, i, e)
		}
	}
	return nil
}

// Errors returned by ValidateSchedule.
var (
	ErrWrongOffer     = errors.New("flexoffer: schedule references a different offer")
	ErrStartTooEarly  = errors.New("flexoffer: scheduled start before earliest start")
	ErrStartTooLate   = errors.New("flexoffer: scheduled start after latest start")
	ErrSliceCount     = errors.New("flexoffer: schedule slice count differs from profile")
	ErrEnergyOutOfBox = errors.New("flexoffer: scheduled energy outside [min,max]")
)

// ValidateSchedule checks that sched respects all constraints of f. This
// is the correctness predicate behind the paper's disaggregation
// requirement: disaggregated schedules must pass it for every micro
// flex-offer.
func (f *FlexOffer) ValidateSchedule(sched *Schedule) error {
	if sched.OfferID != f.ID {
		return fmt.Errorf("%w: offer %d, schedule for %d", ErrWrongOffer, f.ID, sched.OfferID)
	}
	if sched.Start < f.EarliestStart {
		return fmt.Errorf("%w: start %d < earliest %d (offer %d)", ErrStartTooEarly, sched.Start, f.EarliestStart, f.ID)
	}
	if sched.Start > f.LatestStart {
		return fmt.Errorf("%w: start %d > latest %d (offer %d)", ErrStartTooLate, sched.Start, f.LatestStart, f.ID)
	}
	if len(sched.Energy) != len(f.Profile) {
		return fmt.Errorf("%w: %d slices scheduled, profile has %d (offer %d)", ErrSliceCount, len(sched.Energy), len(f.Profile), f.ID)
	}
	const eps = 1e-9
	for i, e := range sched.Energy {
		sl := f.Profile[i]
		if math.IsNaN(e) || e < sl.EnergyMin-eps || e > sl.EnergyMax+eps {
			return fmt.Errorf("%w: slice %d energy %g outside [%g, %g] (offer %d)", ErrEnergyOutOfBox, i, e, sl.EnergyMin, sl.EnergyMax, f.ID)
		}
	}
	return nil
}

// DefaultSchedule returns the fallback execution used when an offer
// expires unscheduled: start at the earliest start time with maximum
// energy (the behaviour of a device without an EDMS, e.g. an EV that
// begins charging the moment it is plugged in).
func (f *FlexOffer) DefaultSchedule() *Schedule {
	energy := make([]float64, len(f.Profile))
	for i, sl := range f.Profile {
		energy[i] = sl.EnergyMax
	}
	return &Schedule{OfferID: f.ID, Start: f.EarliestStart, Energy: energy}
}

// String implements fmt.Stringer.
func (f *FlexOffer) String() string {
	return fmt.Sprintf("FlexOffer{id=%d es=%d ls=%d slices=%d e=[%.2f,%.2f]kWh}",
		f.ID, f.EarliestStart, f.LatestStart, len(f.Profile), f.MinTotalEnergy(), f.MaxTotalEnergy())
}
