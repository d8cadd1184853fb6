package store

import (
	"mirabel/internal/flexoffer"
)

// Role places an actor in the EDMS hierarchy (paper Figure 2).
type Role string

// The three levels of the harmonized European electricity market model.
const (
	RoleProsumer Role = "prosumer" // level 1
	RoleBRP      Role = "brp"      // level 2 (trader / balance responsible party)
	RoleTSO      Role = "tso"      // level 3
)

// Actor is a dimension record: one participant of the energy system.
// Parent links the hierarchy (prosumer → BRP → TSO), giving the schema
// its snowflake branch.
type Actor struct {
	ID         string `json:"id"`
	Name       string `json:"name"`
	Role       Role   `json:"role"`
	Parent     string `json:"parent,omitempty"`
	MarketArea string `json:"market_area,omitempty"`
}

// EnergyType is a dimension record: a kind of energy flow.
type EnergyType struct {
	ID        string `json:"id"`   // e.g. "demand", "wind", "solar"
	Kind      string `json:"kind"` // "consumption" or "production"
	Renewable bool   `json:"renewable"`
}

// MarketArea is a dimension record: a price/balance zone. Prosumer-level
// nodes do not use this part of the schema (paper: "some of which only
// use subparts of the schema, e.g., prosumers nodes do not make use of
// market area data").
type MarketArea struct {
	ID       string `json:"id"`
	Name     string `json:"name"`
	Currency string `json:"currency"`
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

// ForecastRecord is a fact record: one published forecast value.
type ForecastRecord struct {
	Actor      string         `json:"actor"`
	EnergyType string         `json:"energy_type"`
	Slot       flexoffer.Time `json:"slot"`
	Horizon    int            `json:"horizon"` // slots ahead it was made
	KWh        float64        `json:"kwh"`
}

// PriceRecord is a fact record: a market price for one hour.
type PriceRecord struct {
	MarketArea string  `json:"market_area"`
	Hour       int64   `json:"hour"`
	EURPerMWh  float64 `json:"eur_per_mwh"`
}

// Contract is a fact record: the standing agreement between a prosumer
// and its BRP, including the negotiated flex premium.
type Contract struct {
	Prosumer      string  `json:"prosumer"`
	BRP           string  `json:"brp"`
	BaseTariffEUR float64 `json:"base_tariff_eur"` // per kWh
	FlexPremium   float64 `json:"flex_premium"`    // per kWh, from negotiation
	ShareFrac     float64 `json:"share_frac"`      // profit-sharing fraction
}

// ModelParams is a fact record: persisted forecast model parameters
// (the store keeps "forecasting model parameters" per the paper).
type ModelParams struct {
	Actor      string    `json:"actor"`
	EnergyType string    `json:"energy_type"`
	ModelName  string    `json:"model_name"`
	Params     []float64 `json:"params"`
}

// measurementKey identifies a measurement fact.
type measurementKey struct {
	Actor      string
	EnergyType string
	Slot       flexoffer.Time
}

// forecastKey identifies a forecast fact (one value per target slot and
// horizon).
type forecastKey struct {
	Actor      string
	EnergyType string
	Slot       flexoffer.Time
	Horizon    int
}

// priceKey identifies a price fact.
type priceKey struct {
	MarketArea string
	Hour       int64
}

// contractKey identifies a contract.
type contractKey struct {
	Prosumer string
	BRP      string
}

// modelKey identifies persisted model parameters.
type modelKey struct {
	Actor      string
	EnergyType string
	ModelName  string
}
