package store

import (
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"mirabel/internal/flexoffer"
)

func fuzzOfferRecord() OfferRecord {
	f := &flexoffer.FlexOffer{
		ID: 42, Prosumer: "household-17", EarliestStart: 88, LatestStart: 116, AssignBefore: 80, CostPerKWh: 0.07,
		Profile: []flexoffer.Slice{{EnergyMin: 0, EnergyMax: 6.25}, {EnergyMin: 1, EnergyMax: 2}},
	}
	return OfferRecord{Offer: f, Owner: "household-17", State: OfferScheduled, Schedule: f.DefaultSchedule()}
}

// FuzzReplayFrames: whatever bytes a log file holds, replay neither
// panics nor reports more intact bytes than the file has, every payload
// it hands out fits inside the file, and replaying the intact prefix
// alone yields the same frames.
func FuzzReplayFrames(f *testing.F) {
	rec := fuzzOfferRecord()
	valid := []byte(WALMagic)
	valid = appendOfferFrame(valid, &rec)
	executed := rec
	executed.State = OfferExecuted
	valid = appendUpdateFrame(valid, &rec, &executed) // a state-only step
	rejected := rec
	rejected.State, rejected.Schedule = OfferRejected, nil
	valid, _ = AppendIntakeFrames(valid, &Intake{Offer: &rejected}) // offers_if_absent
	valid = appendMeasurementFrame(valid, &Measurement{Actor: "p1", EnergyType: "demand", Slot: 3, KWh: 7})
	valid = appendLegacyFrame(valid, tagActor, `{"id":"brp1","name":"","role":"brp"}`)
	f.Add(valid)
	f.Add(valid[:len(valid)-3])
	f.Add([]byte(WALMagic))
	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(dir, "fuzz.log")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		frames := 0
		intact, err := ReplayFrames(path, WALMagic, func(off int64, tag byte, payload []byte) error {
			if off < LogHeaderLen || off+frameHeaderLen+1+int64(len(payload)) > int64(len(data)) {
				t.Fatalf("frame at %d with %d payload bytes does not fit a %d-byte file", off, len(payload), len(data))
			}
			frames++
			return nil
		})
		if err != nil && !errors.Is(err, ErrDamaged) { // damage still comes with an intact prefix
			if frames != 0 || intact != 0 {
				t.Fatalf("format error after %d frames / %d bytes: %v", frames, intact, err)
			}
			return
		}
		if intact > int64(len(data)) {
			t.Fatalf("intact prefix %d exceeds the %d-byte file", intact, len(data))
		}
		if err := os.WriteFile(path, data[:intact], 0o644); err != nil {
			t.Fatal(err)
		}
		again := 0
		if end, err := ReplayFrames(path, WALMagic, func(int64, byte, []byte) error { again++; return nil }); err != nil || end != intact || again != frames {
			t.Fatalf("intact prefix replays as %d frames to %d (%v), want %d frames to %d", again, end, err, frames, intact)
		}
	})
}

// FuzzDecodeRecords: the offer, guarded offer insert, offer transition,
// state-only step and measurement decoders never panic and never build anything a
// length prefix promised but the input did not deliver — every decoded
// slice and string, schedule energies included, is accounted for by
// input bytes. A legacy actors row decodes to its payload text whatever
// it holds, and a retired or unknown tag, and only such a tag, fails
// with ErrLogFormat.
func FuzzDecodeRecords(f *testing.F) {
	rec := fuzzOfferRecord()
	offer := rec.AppendWire(nil)
	f.Add(tagOffer, offer)
	f.Add(tagOffer, offer[:len(offer)/2])
	accepted := rec
	accepted.State, accepted.Schedule = OfferAccepted, nil
	transition := appendUpdateFrame(nil, &accepted, &rec)[frameHeaderLen+1:]
	f.Add(tagOfferState, transition)
	f.Add(tagOfferState, transition[:len(transition)/2])
	executed := rec
	executed.State = OfferExecuted
	step := appendUpdateFrame(nil, &rec, &executed)[frameHeaderLen+1:]
	f.Add(tagOfferStateOnly, step)
	f.Add(tagOfferStateOnly, step[:len(step)/2])
	f.Add(tagMeasurement, (&Measurement{Actor: "p1", EnergyType: "demand", Slot: 3, KWh: 7}).AppendWire(nil))
	f.Add(tagPrune, binary.AppendVarint(nil, 480))
	f.Add(tagActor, []byte(legacyActorRow))
	f.Add(tagOfferIfAbsent, offer)
	for _, tag := range []byte{2, 3, 6, 7, 8, 9} { // the retired tags
		f.Add(tag, []byte(`{"id":"dk1"}`))
	}
	f.Fuzz(func(t *testing.T, tag byte, payload []byte) {
		table, v, err := DecodeWALRecord(tag, payload)
		if refused := int(tag) >= len(tagNames) || tagNames[tag] == ""; refused != errors.Is(err, ErrLogFormat) {
			t.Fatalf("tag %d: err = %v, want ErrLogFormat: %v", tag, err, refused)
		}
		if tag == tagActor && (err != nil || table != "actors" || v != string(payload)) {
			t.Fatalf("legacy actors row decodes to %q, %q, %v, want its payload text", table, v, err)
		}
		if err == nil {
			switch v := v.(type) {
			case OfferRecord:
				size := len(v.Owner) + len(v.Offer.Prosumer) + 16*len(v.Offer.Profile)
				if v.Schedule != nil {
					size += 8 * len(v.Schedule.Energy)
				}
				if size > len(payload) {
					t.Fatalf("offer record of %d content bytes decoded from %d input bytes", size, len(payload))
				}
			case offerTransition:
				if v.Schedule != nil && 8*len(v.Schedule.Energy) > len(payload) {
					t.Fatalf("transition with %d schedule energies decoded from %d input bytes", len(v.Schedule.Energy), len(payload))
				}
			case Measurement:
				if len(v.Actor)+len(v.EnergyType)+8 > len(payload) {
					t.Fatalf("measurement %+v decoded from %d input bytes", v, len(payload))
				}
			}
		}
	})
}
