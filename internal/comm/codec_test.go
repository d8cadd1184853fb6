package comm

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"mirabel/internal/flexoffer"
	"mirabel/internal/wire"
)

// TestBodyCodecMatchesJSON holds every message body's binary round trip
// to the record itself and to the encoding/json round trip the struct
// tags still describe.
func TestBodyCodecMatchesJSON(t *testing.T) {
	offer := &flexoffer.FlexOffer{
		ID: math.MaxUint64, Prosumer: "p1", EarliestStart: 10, LatestStart: 20, AssignBefore: -5, CostPerKWh: 0.07,
		Profile: []flexoffer.Slice{{EnergyMin: 1, EnergyMax: 2.5}, {EnergyMin: -3, EnergyMax: 0.1 + 0.2}},
	}
	cases := []struct {
		t    MsgType
		body any // value in, pointer to a zero value of the same type out
		out  any
	}{
		{MsgFlexOfferSubmit, FlexOfferSubmit{Offer: offer}, &FlexOfferSubmit{}},
		{MsgFlexOfferDecision, FlexOfferDecision{OfferID: 7, Accept: true, Reason: "", PremiumEUR: 0.02}, &FlexOfferDecision{}},
		{MsgFlexOfferDecision, FlexOfferDecision{OfferID: 8, Reason: "deadline passed"}, &FlexOfferDecision{}},
		{MsgScheduleNotify, ScheduleNotify{Schedules: []*flexoffer.Schedule{offer.DefaultSchedule(), {OfferID: 9, Start: math.MinInt64}}}, &ScheduleNotify{}},
		{MsgScheduleNotify, ScheduleNotify{}, &ScheduleNotify{}},
		{MsgMeasurementBatch, MeasurementBatch{Reports: []MeasurementReport{
			{Actor: "p1", EnergyType: "demand", Slot: 1, KWh: 1}, {Actor: "p1", EnergyType: "demand", Slot: 2, KWh: 2}, {Actor: "", EnergyType: "solar", Slot: math.MaxInt64, KWh: -1},
			{Actor: "p1", EnergyType: "demand", Slot: 3, KWh: math.Copysign(0, -1)},
		}}, &MeasurementBatch{}},
		{MsgError, ErrorBody{Message: "boom"}, &ErrorBody{}},
	}
	for _, tc := range cases {
		env, err := NewEnvelope(tc.t, "a", "b", tc.body)
		if err != nil {
			t.Fatalf("%s: %v", tc.t, err)
		}
		if err := env.Decode(tc.t, tc.out); err != nil {
			t.Fatalf("%s: %v", tc.t, err)
		}
		got := reflect.ValueOf(tc.out).Elem().Interface()
		if !reflect.DeepEqual(got, tc.body) {
			t.Errorf("%s: binary round trip\n got %+v\nwant %+v", tc.t, got, tc.body)
		}
		raw, err := json.Marshal(tc.body)
		if err != nil {
			t.Fatal(err)
		}
		ref := reflect.New(reflect.TypeOf(tc.body))
		if err := json.Unmarshal(raw, ref.Interface()); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, ref.Elem().Interface()) {
			t.Errorf("%s: binary and JSON round trips differ\nbinary %+v\n  json %+v", tc.t, got, ref.Elem().Interface())
		}
		// A pointer encodes like its value.
		ptr := reflect.New(reflect.TypeOf(tc.body))
		ptr.Elem().Set(reflect.ValueOf(tc.body))
		env2, err := NewEnvelope(tc.t, "a", "b", ptr.Interface())
		if err != nil || !reflect.DeepEqual(env2, env) {
			t.Errorf("%s: pointer body encodes differently (%v)", tc.t, err)
		}
	}
}

func TestNewEnvelopeRefusesWhatItCannotEncode(t *testing.T) {
	for name, body := range map[string]any{
		"foreign type":     map[string]string{"k": "v"},
		"submit sans body": FlexOfferSubmit{},
		"nil schedule":     ScheduleNotify{Schedules: []*flexoffer.Schedule{nil}},
	} {
		if _, err := NewEnvelope(MsgPing, "a", "b", body); err == nil {
			t.Errorf("%s: NewEnvelope accepted it", name)
		}
	}
	env := Envelope{Type: MsgPong}
	var out struct{ X int }
	if err := env.Decode(MsgPong, &out); err == nil {
		t.Error("Decode into a foreign type succeeded")
	}
	// A type the vocabulary lacks travels the Bus but not the wire.
	if _, err := appendEnvelope(nil, &Envelope{Type: "gossip"}); err == nil {
		t.Error("unknown message type framed")
	}
}

// retiredFrame is a frame payload an older build sent under a retired
// type code: the envelope header, then body.
func retiredFrame(code byte, body []byte) []byte {
	raw := []byte{code}
	raw = wire.AppendString(raw, "p1")
	raw = wire.AppendString(raw, "brp1")
	raw = binary.AppendUvarint(raw, 42)
	return append(raw, body...)
}

// retiredFrames holds one frame per retired code: 5, measurement_report
// of one metered value; 6, forecast_request (Actor, EnergyType, Horizon
// varint); 7, forecast_reply (EnergyType, FirstSlot varint, two
// float64 values).
func retiredFrames() [][]byte {
	request := wire.AppendString(wire.AppendString(nil, "p1"), "demand")
	reply := binary.AppendUvarint(binary.AppendVarint(wire.AppendString(nil, "demand"), 3), 2)
	return [][]byte{
		retiredFrame(5, flexoffer.AppendMeasurementWire(nil, "p1", "demand", 1, 1)),
		retiredFrame(6, binary.AppendVarint(request, 4)),
		retiredFrame(7, wire.AppendFloat64(wire.AppendFloat64(reply, 1), 2)),
	}
}

// TestRetiredMeasurementReportRefused: the retired type codes 5
// (measurement_report), 6 (forecast_request) and 7 (forecast_reply) stay
// reserved. A frame carrying one is refused as unknown, never misread as
// another type, and no message type encodes to it.
func TestRetiredMeasurementReportRefused(t *testing.T) {
	for _, raw := range retiredFrames() {
		var names peerNames
		env, err := names.decode(raw)
		if want := fmt.Sprintf("unknown message type code %d", raw[0]); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("code-%d frame decoded to %+v, %v; want an unknown-code error", raw[0], env, err)
		}
	}
	for _, typ := range []MsgType{"", "measurement_report", "forecast_request", "forecast_reply"} {
		if raw, err := appendEnvelope(nil, &Envelope{Type: typ}); err == nil {
			t.Errorf("type %q framed as code %d", typ, raw[0])
		}
	}
	for code := 1; code < len(msgTypes); code++ {
		if got, ok := msgCode(msgTypes[code]); msgTypes[code] != "" && (!ok || int(got) != code) {
			t.Errorf("%s encodes as code %d, want %d", msgTypes[code], got, code)
		}
	}
}

// FuzzDecodeEnvelope: frame payloads from a hostile peer never panic the
// envelope decoder or any body decoder, a decoded envelope re-encodes to
// a frame that decodes to itself, and no decoder builds more than its
// input paid for.
func FuzzDecodeEnvelope(f *testing.F) {
	offer := &flexoffer.FlexOffer{ID: 7, Prosumer: "p1", EarliestStart: 10, LatestStart: 20, AssignBefore: 5, Profile: []flexoffer.Slice{{EnergyMin: 1, EnergyMax: 2.5}}}
	for _, seed := range []struct {
		t    MsgType
		body any
	}{
		{MsgFlexOfferSubmit, FlexOfferSubmit{Offer: offer}},
		{MsgFlexOfferDecision, FlexOfferDecision{OfferID: 7, Accept: true, PremiumEUR: 0.02}},
		{MsgScheduleNotify, ScheduleNotify{Schedules: []*flexoffer.Schedule{offer.DefaultSchedule()}}},
		{MsgMeasurementBatch, MeasurementBatch{Reports: []MeasurementReport{{Actor: "p1", EnergyType: "demand", Slot: 1, KWh: 1}}}},
		{MsgPing, nil},
		{MsgError, ErrorBody{Message: "boom"}},
	} {
		env, err := NewEnvelope(seed.t, "p1", "brp1", seed.body)
		if err != nil {
			f.Fatal(err)
		}
		env.Seq = 42
		raw, err := appendEnvelope(nil, &env)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	for _, raw := range retiredFrames() {
		f.Add(raw)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		var names peerNames // one connection's: the second decode reuses the first's names
		env, err := names.decode(raw)
		if err != nil {
			return
		}
		if len(env.From)+len(env.To)+len(env.Body) > len(raw) {
			t.Fatalf("envelope of %d content bytes decoded from %d input bytes", len(env.From)+len(env.To)+len(env.Body), len(raw))
		}
		again, err := appendEnvelope(nil, &env)
		if err != nil {
			t.Fatalf("decoded envelope does not re-encode: %v", err)
		}
		if env2, err := names.decode(again); err != nil || !reflect.DeepEqual(env2, env) {
			t.Fatalf("re-encoded envelope decodes to %+v (%v), want %+v", env2, err, env)
		}
		n := len(env.Body)
		var submit FlexOfferSubmit
		if env.Decode(env.Type, &submit) == nil && len(submit.Offer.Prosumer)+16*len(submit.Offer.Profile) > n {
			t.Fatalf("offer with %d slices decoded from a %d-byte body", len(submit.Offer.Profile), n)
		}
		var notify ScheduleNotify
		if env.Decode(env.Type, &notify) == nil && flexoffer.MinScheduleWire*len(notify.Schedules) > n {
			t.Fatalf("%d schedules decoded from a %d-byte body", len(notify.Schedules), n)
		}
		var batch MeasurementBatch
		if env.Decode(env.Type, &batch) == nil && flexoffer.MinMeasurementWire*len(batch.Reports) > n {
			t.Fatalf("%d reports decoded from a %d-byte body", len(batch.Reports), n)
		}
		_ = env.Decode(env.Type, &FlexOfferDecision{})
		_ = env.Decode(env.Type, &ErrorBody{})
	})
}
