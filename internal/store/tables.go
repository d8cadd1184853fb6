package store

import (
	"mirabel/internal/flexoffer"
)

// Role places an actor in the EDMS hierarchy (paper Figure 2). Two of
// the paper's three levels are built: the TSO level above the BRPs,
// which aggregates and schedules their macro flex-offers (§2), is not.
type Role string

// The levels of the harmonized European electricity market model that
// a node can take.
const (
	RoleProsumer Role = "prosumer" // level 1
	RoleBRP      Role = "brp"      // level 2 (trader / balance responsible party)
)

// Valid reports whether r is one of the built levels.
func (r Role) Valid() bool {
	switch r {
	case RoleProsumer, RoleBRP:
		return true
	}
	return false
}

// Measurement is a fact record: metered energy of one actor in one slot.
type Measurement struct {
	Actor      string         `json:"actor"`
	EnergyType string         `json:"energy_type"`
	Slot       flexoffer.Time `json:"slot"`
	KWh        float64        `json:"kwh"`
}

// OfferState is the lifecycle of a flex-offer inside a node.
type OfferState string

// Flex-offer lifecycle states.
const (
	OfferReceived  OfferState = "received"
	OfferAccepted  OfferState = "accepted"
	OfferRejected  OfferState = "rejected"
	OfferScheduled OfferState = "scheduled"
	OfferExecuted  OfferState = "executed"
	OfferExpired   OfferState = "expired"   // timed out: prosumer fell back to the default profile
	OfferCancelled OfferState = "cancelled" // voided by a mid-contract prosumer departure
)

// OfferRecord is a fact record: a flex-offer and its lifecycle state.
type OfferRecord struct {
	Offer    *flexoffer.FlexOffer `json:"offer"`
	Owner    string               `json:"owner"` // issuing actor
	State    OfferState           `json:"state"`
	Schedule *flexoffer.Schedule  `json:"schedule,omitempty"`
}
