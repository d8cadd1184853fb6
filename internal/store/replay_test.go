package store

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"mirabel/internal/flexoffer"
)

// tableContents copies one hashed table into a plain map.
func tableContents[K comparable, V any](t *shardedTable[K, V]) map[K]V {
	out := make(map[K]V)
	t.scan(func(k K, v V) { out[k] = v })
	return out
}

// storeContents is everything a store holds: the offer table, its
// state index (ids and count per state) and every measurement series,
// with an empty slice and a nil one read alike.
func storeContents(s *Store) map[string]any {
	index := make(map[OfferState][]flexoffer.ID)
	for state, set := range s.offerIdx.byState {
		if set.n > 0 {
			ids := s.offerIdx.idsByState(state)
			slices.Sort(ids)
			index[state] = ids
		}
	}
	series := make(map[seriesKey][2]any)
	for k, ss := range s.meas.series {
		series[k] = [2]any{append([]flexoffer.Time(nil), ss.slots...), append([]float64(nil), ss.kwh...)}
	}
	return map[string]any{
		"offers":      tableContents(s.offers),
		"state index": index,
		"series":      series,
	}
}

// writeMixedHistory logs a seeded history through the live store at dir
// that spans many apply batches and holds every WAL tag the store
// writes: offers put one by one, in batches and through intake,
// rejected intake records that find their id stored or free,
// whole-record re-puts that change the owner, transitions with and
// without a schedule and state-only steps long after their offer's
// record, measurement batches through intake, and a prune mark midway
// that later facts land behind. It returns the live store's
// contents.
func writeMixedHistory(t *testing.T, dir string) map[string]any {
	t.Helper()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(37))
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	owners := []string{"p0", "p1", "p2", "p3", "p4"}
	var ids []flexoffer.ID
	newOffer := func() OfferRecord {
		id := flexoffer.ID(len(ids) + 1)
		ids = append(ids, id)
		f := &flexoffer.FlexOffer{ID: id, Prosumer: owners[int(id)%len(owners)], EarliestStart: 10, LatestStart: 20 + flexoffer.Time(rng.Intn(8)), AssignBefore: 5, CostPerKWh: rng.Float64()}
		f.Profile = make([]flexoffer.Slice, 1+rng.Intn(12))
		for i := range f.Profile {
			f.Profile[i] = flexoffer.Slice{EnergyMin: rng.Float64(), EnergyMax: 1 + rng.Float64()}
		}
		return OfferRecord{Offer: f, Owner: f.Prosumer, State: OfferAccepted}
	}
	meter := func(slot flexoffer.Time) Measurement {
		return Measurement{Actor: owners[rng.Intn(len(owners))], EnergyType: []string{"demand", "solar"}[rng.Intn(2)], Slot: slot, KWh: rng.Float64()}
	}
	update := func(id flexoffer.ID, mutate func(*OfferRecord)) {
		t.Helper()
		_, err := s.UpdateOffer(id, mutate)
		must(err)
	}
	// Intake: acked events applied in the order the handoff delivers
	// them, a rejected record of a stored id (kept out) or of a fresh one
	// (stored) among them.
	var acked []Intake
	s.SetIntakeHandoff(func(ev Intake) { acked = append(acked, ev) })
	intake := func(ev Intake) {
		t.Helper()
		must(s.AppendIntake(ev))
		s.ApplyIntake(acked)
		acked = acked[:0]
	}
	for step := 0; step < 2400; step++ {
		if step == 1200 {
			_, err := s.PruneMeasurements(40)
			must(err)
		}
		// The first 300 steps only store offers, so every transition of
		// one of them lands batches after its record.
		switch k := rng.Intn(10); {
		case step < 300 || k == 0:
			must(s.PutOffer(newOffer()))
		case k == 1:
			b := NewBatch()
			b.PutOffer(newOffer())
			b.PutOffer(newOffer())
			must(s.ApplyBatch(b))
		case k == 2:
			id, o := ids[rng.Intn(len(ids))], owners[rng.Intn(len(owners))]
			update(id, func(r *OfferRecord) { r.Owner = o })
		case k == 3:
			ups := make([]OfferUpdate, 1+rng.Intn(5))
			for j := range ups {
				drop := rng.Intn(4) == 0
				ups[j] = OfferUpdate{ID: ids[rng.Intn(len(ids))], Mutate: func(r *OfferRecord) {
					if drop {
						r.State, r.Schedule = OfferAccepted, nil
					} else {
						scheduleOffer(r)
					}
				}}
			}
			_, err := s.UpdateOffers(ups)
			must(err)
		case k == 4:
			update(ids[rng.Intn(len(ids))], executeOffer)
		case k == 5:
			st := []OfferState{OfferExpired, OfferCancelled, "held-for-review"}[rng.Intn(3)]
			update(ids[rng.Intn(len(ids))], func(r *OfferRecord) { r.State = st })
		case k == 6 || k == 7:
			ms := make([]Measurement, 1+rng.Intn(8))
			for j := range ms {
				ms[j] = meter(flexoffer.Time(rng.Intn(80)))
			}
			intake(Intake{Meas: ms})
		case k == 8 && step%2 == 0:
			rec := newOffer()
			switch rng.Intn(3) {
			case 0:
				rec.State = OfferRejected
			case 1: // the fresh id goes unused
				ids = ids[:len(ids)-1]
				rec.Offer.ID, rec.State, rec.Owner = ids[rng.Intn(len(ids))], OfferRejected, "intruder"
			}
			intake(Intake{Offer: &rec})
			intake(Intake{Meas: []Measurement{meter(flexoffer.Time(rng.Intn(80))), meter(flexoffer.Time(rng.Intn(80)))}})
		default: // an accepted offer taken through intake
			rec := newOffer()
			intake(Intake{Offer: &rec})
		}
	}
	want := storeContents(s)
	must(s.Close())
	return want
}

// TestReplayEquivalenceAcrossApplyBatches: recovery decodes on one
// goroutine and applies on another, a batch of records at a time. Over
// a history many batches long that holds every WAL tag the store
// writes — with the
// transitions of an offer batches after its record, and a prune mark
// that facts before and after it straddle — Open and OpenReadOnly
// rebuild every table, the state index and every series exactly as the
// live store left them, on one core and on two.
func TestReplayEquivalenceAcrossApplyBatches(t *testing.T) {
	dir := t.TempDir()
	want := writeMixedHistory(t, dir)

	tags := make(map[byte]int)
	frames := 0
	firstOffer := make(map[flexoffer.ID]int)
	late := make(map[byte]bool) // transition tags seen a batch or more after their record
	if _, err := ReplayFrames(WALPath(dir), WALMagic, func(_ int64, tag byte, payload []byte) error {
		_, v, err := DecodeWALRecord(tag, payload)
		if err != nil {
			return err
		}
		var id flexoffer.ID
		switch v := v.(type) {
		case OfferRecord:
			if _, ok := firstOffer[v.Offer.ID]; !ok {
				firstOffer[v.Offer.ID] = frames
			}
		case offerTransition:
			id = v.ID
		case offerStateStep:
			id = v.ID
		}
		if id != 0 && frames/replayBatch > firstOffer[id]/replayBatch {
			late[tag] = true
		}
		tags[tag]++
		frames++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if frames < 4*replayBatch {
		t.Fatalf("the history is %d frames, want at least %d apply batches", frames, 4)
	}
	for tag, name := range tagNames {
		if name != "" && byte(tag) != tagActor && tags[byte(tag)] == 0 {
			t.Errorf("the history logs no %s frame", name)
		}
	}
	if !late[tagOfferState] || !late[tagOfferStateOnly] {
		t.Fatalf("transitions after their record's batch: %v, want both kinds", late)
	}

	for _, procs := range []int{1, 2} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			for name, open := range map[string]func(string) (*Store, error){"Open": func(d string) (*Store, error) { return Open(d) }, "OpenReadOnly": OpenReadOnly} {
				s, err := open(dir)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				got := storeContents(s)
				if err := s.Close(); err != nil {
					t.Fatal(err)
				}
				for table, w := range want {
					if !reflect.DeepEqual(got[table], w) {
						t.Errorf("%s: %s differ from the live store's", name, table)
					}
				}
			}
		})
	}
}

// TestNoGoroutineOutlivesOpen: a store open starts its applier and
// stops it again before it returns, whether the open succeeds or fails
// — on an unknown offer, a malformed payload, a foreign log format or
// (where the open tolerates it) a damaged frame.
func TestNoGoroutineOutlivesOpen(t *testing.T) {
	good := appendOfferFrame([]byte(WALMagic), &OfferRecord{Offer: testOffer(1), Owner: "p1", State: OfferAccepted})
	strayOffer := testOffer(2)
	stray := appendUpdateFrame(nil, &OfferRecord{Offer: strayOffer, Owner: "p1"}, &OfferRecord{Offer: strayOffer, Owner: "p1", State: OfferExecuted})
	malformed, mark := BeginFrame(nil, tagOffer)
	malformed = EndFrame(append(malformed, 0xFF, 0xFF, 0xFF), mark)
	damaged := append([]byte(nil), good...)
	damaged = append(damaged, good[LogHeaderLen:]...)
	damaged[LogHeaderLen+frameHeaderLen+2] ^= 0xFF // the first frame fails its checksum, the second is behind it

	for _, c := range []struct {
		name     string
		img      []byte
		readOnly bool
		fails    bool
		is       error // when set, the open's error wraps it
	}{
		{"clean", append(good, good[LogHeaderLen:]...), false, false, nil},
		{"clean read-only", good, true, false, nil},
		{"unknown offer", append(append([]byte(nil), good...), stray...), false, true, ErrUnknownOffer},
		{"unknown offer read-only", append(append([]byte(nil), good...), stray...), true, true, ErrUnknownOffer},
		{"malformed payload", append(append([]byte(nil), good...), malformed...), false, true, nil},
		{"malformed payload read-only", append(append([]byte(nil), good...), malformed...), true, true, nil},
		{"log format", []byte(`{"table":"offers"}` + "\n"), false, true, ErrLogFormat},
		{"log format read-only", []byte(`{"table":"offers"}` + "\n"), true, true, ErrLogFormat},
		{"damaged read-only", damaged, true, false, nil},
		{"damaged", damaged, false, false, nil},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			if err := os.WriteFile(WALPath(dir), c.img, 0o644); err != nil {
				t.Fatal(err)
			}
			before := runtime.NumGoroutine()
			var s *Store
			var err error
			if c.readOnly {
				s, err = OpenReadOnly(dir)
			} else {
				s, err = Open(dir)
			}
			if (err != nil) != c.fails || (c.is != nil && !errors.Is(err, c.is)) {
				t.Fatalf("open: err = %v, want failure %v (%v)", err, c.fails, c.is)
			}
			if s != nil {
				if err := s.Close(); err != nil {
					t.Fatal(err)
				}
			}
			// The applier signals completion just before it returns, so
			// give it a moment to be gone.
			for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > before && time.Now().Before(deadline); {
				time.Sleep(time.Millisecond)
			}
			if n := runtime.NumGoroutine(); n > before {
				t.Fatalf("%d goroutines after the open, %d before", n, before)
			}
		})
	}
}

// TestSlabNeverLeaksWritesAcrossRecords: replay decodes neighbouring
// records' profiles and energies into one chunk, each run capped at its
// length, so an append to one record's run reallocates it and leaves
// the record next to it as it was.
func TestSlabNeverLeaksWritesAcrossRecords(t *testing.T) {
	dir := t.TempDir()
	img := []byte(WALMagic)
	var want [2]OfferRecord
	for i := range want {
		f := &flexoffer.FlexOffer{ID: flexoffer.ID(i + 1), Prosumer: "p1", EarliestStart: 10, LatestStart: 20, AssignBefore: 5,
			Profile: []flexoffer.Slice{{EnergyMin: 1, EnergyMax: 2}, {EnergyMin: 3, EnergyMax: 4}}}
		want[i] = OfferRecord{Offer: f, Owner: "p1", State: OfferScheduled, Schedule: f.DefaultSchedule()}
		img = appendOfferFrame(img, &want[i])
	}
	if err := os.WriteFile(WALPath(dir), img, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	first, _ := s.GetOffer(1)
	second, _ := s.GetOffer(2)
	adjacent := func(a, b any, elem uintptr) bool {
		va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
		return va.Pointer()+uintptr(va.Len())*elem == vb.Pointer()
	}
	if !adjacent(first.Offer.Profile, second.Offer.Profile, 16) || !adjacent(first.Schedule.Energy, second.Schedule.Energy, 8) {
		t.Fatal("the two records' profiles and energies are not neighbours in one chunk; the test proves nothing")
	}
	_ = append(first.Offer.Profile, flexoffer.Slice{EnergyMin: -1, EnergyMax: -1})
	_ = append(first.Schedule.Energy, -1)
	if got, _ := s.GetOffer(2); !reflect.DeepEqual(got, want[1]) {
		t.Fatalf("after appends to offer 1's runs, offer 2 = %+v %+v, want %+v %+v", got.Offer, got.Schedule, want[1].Offer, want[1].Schedule)
	}
}

// legacyActorRow is the actors row an older build's core.NewNode logged
// for a BRP named brp1 on every start: PutActor's JSON.
const legacyActorRow = `{"id":"brp1","name":"brp1","role":"brp"}`

// appendLegacyFrame appends a frame of a reserved tag as an older build
// wrote it: the tag and a JSON payload.
func appendLegacyFrame(dst []byte, tag byte, payload string) []byte {
	dst, mark := BeginFrame(dst, tag)
	return EndFrame(append(dst, payload...), mark)
}

// TestRefusedTagFailsOpen: a WAL holding a frame of a retired table's
// tag, or of a tag this build does not know (a newer build's, or 0),
// fails Open and OpenReadOnly with ErrLogFormat, an error naming the
// file, the frame's offset and the tag, and leaves the file exactly as
// it was, torn tail included.
func TestRefusedTagFailsOpen(t *testing.T) {
	for _, c := range []struct {
		tag  byte
		name string // that the error names
	}{
		{2, "energy_types"}, {3, "market_areas"}, {6, "forecasts"}, {7, "prices"}, {8, "contracts"}, {9, "model_params"},
		{14, "unknown"}, {0, "unknown"},
	} {
		t.Run(fmt.Sprintf("tag %d", c.tag), func(t *testing.T) {
			dir := t.TempDir()
			img := appendOfferFrame([]byte(WALMagic), &OfferRecord{Offer: testOffer(1), Owner: "p1", State: OfferAccepted})
			at := len(img)
			img = appendLegacyFrame(img, c.tag, `{"id":"dk1"}`)
			img = appendMeasurementFrame(img, &Measurement{Actor: "p1", EnergyType: "demand", Slot: 1, KWh: 2})
			img = append(img, 1, 2, 3) // a torn tail a successful open would cut
			path := WALPath(dir)
			if err := os.WriteFile(path, img, 0o644); err != nil {
				t.Fatal(err)
			}
			for name, open := range map[string]func(string) (*Store, error){"Open": func(d string) (*Store, error) { return Open(d) }, "OpenReadOnly": OpenReadOnly} {
				s, err := open(dir)
				if err == nil {
					s.Close()
					t.Fatalf("%s accepted a WAL holding tag %d", name, c.tag)
				}
				for _, want := range []string{path, fmt.Sprintf("offset %d:", at), fmt.Sprintf("tag %d ", c.tag), c.name} {
					if !errors.Is(err, ErrLogFormat) || !strings.Contains(err.Error(), want) {
						t.Errorf("%s: err = %v, want ErrLogFormat naming %q", name, err, want)
					}
				}
				if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, img) {
					t.Fatalf("%s changed the WAL (%v)", name, err)
				}
			}
		})
	}
}

// TestLegacyActorRowsAreSkipped: the actors rows an older build logged
// once per node start are skipped on replay. A WAL holding them opens,
// on either path, to the same offers and measurements as the same WAL
// without them, and stays writable: its later records replay behind the
// old rows.
func TestLegacyActorRowsAreSkipped(t *testing.T) {
	recs := make([]OfferRecord, 4)
	for i := range recs {
		recs[i] = OfferRecord{Offer: testOffer(flexoffer.ID(i + 1)), Owner: "p1", State: OfferAccepted}
	}
	scheduled := recs[0]
	scheduleOffer(&scheduled)
	executed := scheduled
	executeOffer(&executed)
	images := map[bool][]byte{}
	for _, legacy := range []bool{false, true} {
		img := []byte(WALMagic)
		row := func() {
			if legacy {
				img = appendLegacyFrame(img, tagActor, legacyActorRow)
			}
		}
		row() // the first start
		for i := range recs {
			img = appendOfferFrame(img, &recs[i])
		}
		img = appendMeasurementFrame(img, &Measurement{Actor: "p1", EnergyType: "demand", Slot: 1, KWh: 2})
		row() // a restart
		img = appendUpdateFrame(img, &recs[0], &scheduled)
		img = appendUpdateFrame(img, &scheduled, &executed)
		img = appendMeasurementFrame(img, &Measurement{Actor: "p2", EnergyType: "solar", Slot: 1, KWh: -1})
		img = appendPruneFrame(img, 2)
		img = appendMeasurementFrame(img, &Measurement{Actor: "p1", EnergyType: "demand", Slot: 3, KWh: 4})
		row()
		images[legacy] = img
	}
	open := func(img []byte, readOnly bool) *Store {
		t.Helper()
		dir := t.TempDir()
		if err := os.WriteFile(WALPath(dir), img, 0o644); err != nil {
			t.Fatal(err)
		}
		var s *Store
		var err error
		if readOnly {
			s, err = OpenReadOnly(dir)
		} else {
			s, err = Open(dir)
		}
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		return s
	}
	for _, readOnly := range []bool{false, true} {
		want, got := open(images[false], readOnly), open(images[true], readOnly)
		if g, w := got.CountOffersByState(), want.CountOffersByState(); !reflect.DeepEqual(g, w) || g[OfferExecuted] != 1 {
			t.Errorf("read-only %v: state counts %v, want %v", readOnly, g, w)
		}
		if g, w := got.Stats(), want.Stats(); g != w || g != (Stats{Measurements: 1, Offers: 4}) {
			t.Errorf("read-only %v: stats %+v, want %+v", readOnly, g, w)
		}
		if g, w := storeContents(got), storeContents(want); !reflect.DeepEqual(g, w) {
			t.Errorf("read-only %v: contents differ from the WAL's without actors rows", readOnly)
		}
	}

	dir := t.TempDir()
	if err := os.WriteFile(WALPath(dir), images[true], 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	transition(t, s, 2, scheduleOffer)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s, err = Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if got := s.CountOffersByState(); got[OfferScheduled] != 1 || got[OfferExecuted] != 1 || got[OfferAccepted] != 2 {
		t.Errorf("after a write behind the actors rows: state counts %v", got)
	}
}
