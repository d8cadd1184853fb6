package store_test

import (
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"mirabel/internal/flexoffer"
	"mirabel/internal/store"
	"mirabel/internal/wire"
	"mirabel/internal/workload"
)

// jsonRoundTrip is the reference the binary codec is held to: the struct
// tags still describe every record to encoding/json.
func jsonRoundTrip[V any](t *testing.T, v V) V {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	var out V
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	return out
}

func wireRoundTripOffer(t *testing.T, rec store.OfferRecord) store.OfferRecord {
	t.Helper()
	r := wire.NewReader(rec.AppendWire(nil))
	var out store.OfferRecord
	out.ReadWire(&r, nil)
	if err := r.Done(); err != nil {
		t.Fatalf("decode %+v: %v", rec, err)
	}
	return out
}

// TestOfferRecordCodecMatchesJSON: over the seeded workload pool, every
// lifecycle state (the zero value and an unlisted one too) and both
// schedule shapes, the binary round trip returns the record itself —
// and so does the JSON round trip, so the two codecs agree.
func TestOfferRecordCodecMatchesJSON(t *testing.T) {
	states := []store.OfferState{
		"", store.OfferReceived, store.OfferAccepted, store.OfferRejected, store.OfferScheduled,
		store.OfferExecuted, store.OfferExpired, store.OfferCancelled, "held-for-review",
	}
	offers := workload.GenerateFlexOffers(workload.FlexOfferConfig{Count: 300, Seed: 7})
	// The corners the generator never visits: empty strings, extreme
	// ints, a nil profile, −0 and the float range's edges.
	offers = append(offers,
		&flexoffer.FlexOffer{},
		&flexoffer.FlexOffer{
			ID: math.MaxUint64, Prosumer: "", EarliestStart: math.MinInt64, LatestStart: math.MaxInt64, AssignBefore: -1,
			CostPerKWh: math.Copysign(0, -1),
			Profile: []flexoffer.Slice{
				{EnergyMin: -math.MaxFloat64, EnergyMax: math.MaxFloat64},
				{EnergyMin: math.SmallestNonzeroFloat64, EnergyMax: 0.1 + 0.2},
			},
		},
	)
	for i, f := range offers {
		for j, st := range states {
			rec := store.OfferRecord{Offer: f, Owner: f.Prosumer, State: st}
			if (i+j)%2 == 0 {
				rec.Schedule = f.DefaultSchedule()
				rec.Schedule.Start = f.LatestStart
				if len(rec.Schedule.Energy) == 0 {
					rec.Schedule.Energy = nil // the codecs' one shared convention: empty decodes as nil
				}
			}
			got := wireRoundTripOffer(t, rec)
			if !reflect.DeepEqual(got, rec) {
				t.Fatalf("offer %d state %q: binary round trip\n got %+v\nwant %+v", f.ID, st, got, rec)
			}
			if ref := jsonRoundTrip(t, rec); !reflect.DeepEqual(got, ref) {
				t.Fatalf("offer %d state %q: binary and JSON round trips differ\nbinary %+v\n  json %+v", f.ID, st, got, ref)
			}
		}
	}
}

func TestMeasurementCodecMatchesJSON(t *testing.T) {
	batch := []store.Measurement{
		{Actor: "p1", EnergyType: "demand", Slot: 0, KWh: 1.25},
		{Actor: "p1", EnergyType: "demand", Slot: 1, KWh: -3e-9},
		{Actor: "p1", EnergyType: "solar", Slot: math.MaxInt64, KWh: math.MaxFloat64},
		{Actor: "", EnergyType: "", Slot: math.MinInt64, KWh: math.Copysign(0, -1)},
		{Actor: "p2", EnergyType: "", Slot: -1, KWh: 0.1 + 0.2},
	}
	var buf []byte
	for i := range batch {
		buf = batch[i].AppendWire(buf)
	}
	r := wire.NewReader(buf)
	got := make([]store.Measurement, len(batch))
	for i := range got {
		got[i].ReadWire(&r)
	}
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, batch) {
		t.Fatalf("binary round trip\n got %+v\nwant %+v", got, batch)
	}
	if ref := jsonRoundTrip(t, batch); !reflect.DeepEqual(got, ref) {
		t.Fatalf("binary and JSON round trips differ\nbinary %+v\n  json %+v", got, ref)
	}
	for i := range got {
		if math.Signbit(got[i].KWh) != math.Signbit(batch[i].KWh) {
			t.Errorf("fact %d lost the sign of zero", i)
		}
	}
}

// TestCodecCarriesNonFiniteBits: unlike JSON, the codec is bit-exact for
// NaN and ±Inf too — which is why intake validation rejects them.
func TestCodecCarriesNonFiniteBits(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Float64frombits(0x7ff8dead0000beef)} {
		m := store.Measurement{Actor: "p", EnergyType: "e", KWh: v}
		r := wire.NewReader(m.AppendWire(nil))
		var got store.Measurement
		got.ReadWire(&r)
		if err := r.Done(); err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got.KWh) != math.Float64bits(v) {
			t.Errorf("bits %#x came back as %#x", math.Float64bits(v), math.Float64bits(got.KWh))
		}
	}
}
