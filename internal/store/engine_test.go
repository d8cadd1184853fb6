package store

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"mirabel/internal/flexoffer"
)

// scheduleOffer and executeOffer are the two transitions the node logs
// most: the cycle's commit, which sets a schedule and so logs it, and
// settlement, which keeps the schedule and so logs a state-only step.
func scheduleOffer(r *OfferRecord) {
	r.State, r.Schedule = OfferScheduled, r.Offer.DefaultSchedule()
}

func executeOffer(r *OfferRecord) { r.State = OfferExecuted }

// ignoreIntake is the intake handoff of a store whose test applies
// every event itself (ingest).
func ignoreIntake(Intake) {}

// ingest takes ev the way a node's intake does: AppendIntake logs it
// (the ack), then ApplyIntake applies it. s must have a handoff
// (ignoreIntake).
func ingest(s *Store, ev Intake) error {
	if err := s.AppendIntake(ev); err != nil {
		return err
	}
	s.ApplyIntake([]Intake{ev})
	return nil
}

// putMeasurements stores a meter batch as one intake event: one WAL
// group.
func putMeasurements(s *Store, ms ...Measurement) error {
	return ingest(s, Intake{Meas: ms})
}

// sumBySlot folds the matching measurements into a per-slot sum.
func sumBySlot(s *Store, f MeasurementFilter) map[flexoffer.Time]float64 {
	out := make(map[flexoffer.Time]float64)
	for _, m := range s.Measurements(f) {
		out[m.Slot] += m.KWh
	}
	return out
}

// transition applies mutate to the stored offer id, failing the test on
// an error.
func transition(t *testing.T, s *Store, id flexoffer.ID, mutate func(*OfferRecord)) {
	t.Helper()
	if _, err := s.UpdateOffer(id, mutate); err != nil {
		t.Fatal(err)
	}
}

// sameOffers fails the test unless both stores hold the same offer
// records, field by field and schedule energy by schedule energy.
func sameOffers(t *testing.T, got, want *Store) {
	t.Helper()
	g, w := got.Offers(OfferFilter{}), want.Offers(OfferFilter{})
	if !reflect.DeepEqual(g, w) {
		t.Errorf("recovered offers differ\n got %s\nwant %s", describeOffers(g), describeOffers(w))
	}
	if gc, wc := got.CountOffersByState(), want.CountOffersByState(); !reflect.DeepEqual(gc, wc) {
		t.Errorf("recovered state index %v, want %v", gc, wc)
	}
}

func describeOffers(recs []OfferRecord) string {
	var b strings.Builder
	for _, r := range recs {
		fmt.Fprintf(&b, "[%d %s %s schedule=%v] ", r.Offer.ID, r.Owner, r.State, r.Schedule)
	}
	return b.String()
}

// TestReplayEqualsPreCrashState writes, then "crashes" (reopens without
// Close) and checks the recovered state equals the pre-crash state
// exactly: offers that run their whole life, a state-only step whose
// schedule an earlier transition logged, and a prune.
func TestReplayEqualsPreCrashState(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s.SetIntakeHandoff(ignoreIntake)
	for slot := flexoffer.Time(0); slot < 50; slot++ {
		if err := putMeasurements(s, Measurement{Actor: "p1", EnergyType: "demand", Slot: slot, KWh: float64(slot)}); err != nil {
			t.Fatal(err)
		}
	}
	for id := flexoffer.ID(7); id <= 9; id++ {
		if err := s.PutOffer(OfferRecord{Offer: testOffer(id), Owner: "p1", State: OfferAccepted}); err != nil {
			t.Fatal(err)
		}
	}
	transition(t, s, 7, scheduleOffer)
	transition(t, s, 8, scheduleOffer)
	transition(t, s, 8, executeOffer)
	transition(t, s, 7, executeOffer)
	transition(t, s, 9, scheduleOffer)
	transition(t, s, 9, executeOffer)
	if err := putMeasurements(s, Measurement{Actor: "p1", EnergyType: "demand", Slot: 100, KWh: 9}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.PruneMeasurements(10); err != nil {
		t.Fatal(err)
	}
	want := sumBySlot(s, MeasurementFilter{})
	// No Close — this is the crash; every commit is flushed to the OS.

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := sumBySlot(s2, MeasurementFilter{}); !reflect.DeepEqual(got, want) {
		t.Errorf("recovered measurements %v, want %v", got, want)
	}
	if got := s2.Stats().Measurements; got != 41 { // 50 - 10 pruned + 1 later
		t.Errorf("measurements = %d, want 41", got)
	}
	if got := s2.CountOffersByState()[OfferExecuted]; got != 3 {
		t.Errorf("executed offers after recovery = %d, want 3", got)
	}
	sameOffers(t, s2, s)
}

func TestOpenReadOnly(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s.SetIntakeHandoff(ignoreIntake)
	if err := s.PutOffer(OfferRecord{Offer: testOffer(5), Owner: "p1", State: OfferAccepted}); err != nil {
		t.Fatal(err)
	}
	if err := putMeasurements(s, Measurement{Actor: "p1", EnergyType: "demand", Slot: 1, KWh: 2}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	ro, err := OpenReadOnly(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Close()
	if _, ok := ro.GetOffer(5); !ok {
		t.Error("read-only open lost the offer")
	}
	if got := sumBySlot(ro, MeasurementFilter{})[1]; got != 2 {
		t.Errorf("read-only measurement = %g, want 2", got)
	}
	for name, err := range map[string]error{
		"AppendIntake": ro.AppendIntake(Intake{Meas: []Measurement{{Actor: "x", EnergyType: "demand"}}}),
		"PutOffer":     ro.PutOffer(OfferRecord{Offer: testOffer(1)}),
		"ApplyBatch": func() error {
			b := NewBatch()
			b.PutOffer(OfferRecord{Offer: testOffer(1)})
			return ro.ApplyBatch(b)
		}(),
	} {
		if !errors.Is(err, ErrReadOnly) {
			t.Errorf("%s on read-only store: err = %v, want ErrReadOnly", name, err)
		}
	}
	if _, err := ro.UpdateOffer(1, func(*OfferRecord) {}); !errors.Is(err, ErrReadOnly) {
		t.Errorf("UpdateOffer = %v, want ErrReadOnly", err)
	}
	if _, err := ro.PruneMeasurements(10); !errors.Is(err, ErrReadOnly) {
		t.Errorf("PruneMeasurements = %v, want ErrReadOnly", err)
	}

	// The writable files are untouched: the store reopens writable with
	// the same contents.
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if _, ok := s2.GetOffer(5); !ok {
		t.Error("writable reopen after read-only lost data")
	}
}

// TestOpenReadOnlyRejectsMissingStore is the mirabel-inspect guard: a
// mistyped path must error, not fabricate an empty store.
func TestOpenReadOnlyRejectsMissingStore(t *testing.T) {
	if _, err := OpenReadOnly(t.TempDir() + "/nope"); err == nil {
		t.Error("read-only open of a missing dir succeeded")
	}
	empty := t.TempDir() // exists, but holds no store artifacts
	if _, err := OpenReadOnly(empty); err == nil {
		t.Error("read-only open of a dir without store artifacts succeeded")
	}
	if entries, err := os.ReadDir(empty); err != nil || len(entries) != 0 {
		t.Errorf("read-only open touched the directory: %v, %v", entries, err)
	}
}

func TestPruneMeasurements(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s.SetIntakeHandoff(ignoreIntake)
	for slot := flexoffer.Time(0); slot < 20; slot++ {
		for _, actor := range []string{"p1", "p2"} {
			if err := putMeasurements(s, Measurement{Actor: actor, EnergyType: "demand", Slot: slot, KWh: 1}); err != nil {
				t.Fatal(err)
			}
		}
	}
	n, err := s.PruneMeasurements(12)
	if err != nil {
		t.Fatal(err)
	}
	if n != 24 {
		t.Errorf("pruned %d, want 24", n)
	}
	if got := s.Stats().Measurements; got != 16 {
		t.Errorf("remaining = %d, want 16", got)
	}
	if ms := s.Measurements(MeasurementFilter{Actor: "p1", EnergyType: "demand"}); len(ms) != 8 || ms[0].Slot != 12 {
		t.Errorf("post-prune series = %+v", ms)
	}
	// Pruning again is a no-op.
	if n, err := s.PruneMeasurements(12); err != nil || n != 0 {
		t.Errorf("re-prune = %d, %v, want 0, nil", n, err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// The sweep is WAL-logged: recovery replays puts then the prune and
	// converges to the swept state.
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.Stats().Measurements; got != 16 {
		t.Errorf("recovered measurements = %d, want 16", got)
	}
	if ms := s2.Measurements(MeasurementFilter{Actor: "p2", EnergyType: "demand"}); len(ms) != 8 || ms[0].Slot != 12 {
		t.Errorf("recovered series = %+v", ms)
	}
}

// TestApplyBatchMixedTables: an offer batch and a measurement intake
// event, each one WAL group, keep same-key order within the group, and
// recovery restores both tables.
func TestApplyBatchMixedTables(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s.SetIntakeHandoff(ignoreIntake)
	b := NewBatch()
	b.PutOffer(OfferRecord{Offer: testOffer(9), Owner: "p1", State: OfferReceived})
	b.PutOffer(OfferRecord{Offer: testOffer(8), Owner: "p2", State: OfferAccepted})
	b.PutOffer(OfferRecord{Offer: testOffer(9), Owner: "p1", State: OfferAccepted}) // same-key: last wins
	if err := s.ApplyBatch(b); err != nil {
		t.Fatal(err)
	}
	if err := putMeasurements(s,
		Measurement{Actor: "p1", EnergyType: "demand", Slot: 1, KWh: 2},
		Measurement{Actor: "p1", EnergyType: "demand", Slot: 1, KWh: 3}, // same-key: last wins
		Measurement{Actor: "p2", EnergyType: "solar", Slot: 1, KWh: -1},
	); err != nil {
		t.Fatal(err)
	}
	if got := s.Measurements(MeasurementFilter{Actor: "p1"}); len(got) != 1 || got[0].KWh != 3 {
		t.Errorf("same-key intake order broken: %+v, want one fact of 3 kWh", got)
	}
	if got := s.CountOffersByState(); got[OfferAccepted] != 2 || got[OfferReceived] != 0 {
		t.Errorf("state counts after batch: %v, want 2 accepted", got)
	}
	st := s.Stats()
	if st.Measurements != 2 || st.Offers != 2 {
		t.Errorf("stats after batch: %+v", st)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.Stats(); got != st {
		t.Errorf("recovered stats %+v != %+v", got, st)
	}
}

func TestApplyBatchValidation(t *testing.T) {
	s := NewInMemory()
	b := NewBatch()
	b.PutOffer(OfferRecord{Owner: "p1"}) // invalid: no offer
	b.PutOffer(OfferRecord{Offer: testOffer(1), Owner: "p1"})
	if err := s.ApplyBatch(b); err == nil {
		t.Error("batch with invalid op applied")
	}
	if _, ok := s.GetOffer(1); ok {
		t.Error("invalid batch partially applied")
	}
	if err := s.ApplyBatch(NewBatch()); err != nil {
		t.Errorf("empty batch: %v", err)
	}
}

// TestUpdateOffersBatch: a batch applies all or nothing. One whose
// update names an unknown id, or leaves a record without an offer,
// fails whole with nothing changed or logged; without them it applies,
// same-id updates chaining.
func TestUpdateOffersBatch(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for id := flexoffer.ID(1); id <= 3; id++ {
		if err := s.PutOffer(OfferRecord{Offer: testOffer(id), Owner: fmt.Sprintf("p%d", id), State: OfferAccepted}); err != nil {
			t.Fatal(err)
		}
	}
	batch := []OfferUpdate{
		{ID: 1, Mutate: func(r *OfferRecord) { r.State = OfferScheduled }},
		{ID: 2, Mutate: func(r *OfferRecord) { r.State = OfferScheduled }},
		{ID: 2, Mutate: func(r *OfferRecord) { // chained: sees the scheduled state
			if r.State == OfferScheduled {
				r.State = OfferExecuted
			}
		}},
	}
	before, counts, records := s.Offers(OfferFilter{}), s.CountOffersByState(), s.WALStats().Records
	for _, bad := range []OfferUpdate{
		{ID: 99, Mutate: func(r *OfferRecord) { r.State = OfferScheduled }},
		{ID: 3, Mutate: func(r *OfferRecord) { r.Offer = nil }},
	} {
		failed, err := s.UpdateOffers(append(slices.Clone(batch), bad))
		if err == nil || failed != nil {
			t.Fatalf("batch with update of offer %d = %v, %v; want an error alone", bad.ID, failed, err)
		}
		if unknown := bad.ID == 99; errors.Is(err, ErrUnknownOffer) != unknown {
			t.Errorf("batch with update of offer %d: %v; ErrUnknownOffer should match: %v", bad.ID, err, unknown)
		}
		if after := s.Offers(OfferFilter{}); !reflect.DeepEqual(after, before) {
			t.Errorf("records after a failed batch = %s, want %s", describeOffers(after), describeOffers(before))
		}
		if after := s.CountOffersByState(); !reflect.DeepEqual(after, counts) {
			t.Errorf("state index after a failed batch = %v, want %v", after, counts)
		}
		if got := s.WALStats().Records; got != records {
			t.Errorf("a failed batch logged %d records", got-records)
		}
	}
	if failed, err := s.UpdateOffers(batch); err != nil || failed != nil {
		t.Fatalf("batch = %v, %v", failed, err)
	}
	if rec, _ := s.GetOffer(1); rec.State != OfferScheduled {
		t.Errorf("offer 1 = %+v, want scheduled", rec)
	}
	if rec, _ := s.GetOffer(2); rec.State != OfferExecuted {
		t.Errorf("chained offer 2 = %+v, want executed", rec)
	}
	counts = s.CountOffersByState()
	if counts[OfferScheduled] != 1 || counts[OfferExecuted] != 1 || counts[OfferAccepted] != 1 {
		t.Errorf("counts after batch = %+v", counts)
	}
}

// TestOfferIndexConsistency drives records through the lifecycle and
// checks the secondary indexes agree with the base table at each step.
func TestOfferIndexConsistency(t *testing.T) {
	s := NewInMemory()
	for id := flexoffer.ID(1); id <= 10; id++ {
		owner := fmt.Sprintf("p%d", id%3)
		if err := s.PutOffer(OfferRecord{Offer: testOffer(id), Owner: owner, State: OfferReceived}); err != nil {
			t.Fatal(err)
		}
	}
	for id := flexoffer.ID(1); id <= 5; id++ {
		if _, err := s.UpdateOffer(id, func(r *OfferRecord) { r.State = OfferScheduled }); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(s.Offers(OfferFilter{State: OfferScheduled})); got != 5 {
		t.Errorf("scheduled = %d, want 5", got)
	}
	if got := len(s.Offers(OfferFilter{State: OfferReceived})); got != 5 {
		t.Errorf("received = %d, want 5", got)
	}
	byOwner := s.Offers(OfferFilter{Owner: "p1"})
	if len(byOwner) != 4 { // ids 1,4,7,10
		t.Errorf("owner p1 = %d records, want 4", len(byOwner))
	}
	both := s.Offers(OfferFilter{Owner: "p1", State: OfferScheduled})
	if len(both) != 2 { // ids 1, 4
		t.Errorf("owner+state = %d records (%+v), want 2", len(both), both)
	}
	for i := 1; i < len(byOwner); i++ {
		if byOwner[i].Offer.ID < byOwner[i-1].Offer.ID {
			t.Error("indexed query lost ID order")
		}
	}
	counts := s.CountOffersByState()
	if counts[OfferScheduled] != 5 || counts[OfferReceived] != 5 || counts[OfferAccepted] != 0 {
		t.Errorf("counts = %+v", counts)
	}
}

// TestGroupCommitCoalesces checks that concurrent single-record writers
// share physical log flushes (and fsyncs under SyncAlways).
func TestGroupCommitCoalesces(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, WithSyncPolicy(SyncAlways))
	if err != nil {
		t.Fatal(err)
	}
	s.SetIntakeHandoff(ignoreIntake)
	const writers, each = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			actor := fmt.Sprintf("p%d", w)
			for i := 0; i < each; i++ {
				if err := putMeasurements(s, Measurement{Actor: actor, EnergyType: "demand", Slot: flexoffer.Time(i), KWh: 1}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	ls := s.WALStats()
	if ls.Records != writers*each {
		t.Errorf("records = %d, want %d", ls.Records, writers*each)
	}
	if ls.Groups > ls.Records || ls.Groups == 0 {
		t.Errorf("groups = %d out of %d records", ls.Groups, ls.Records)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.Stats().Measurements; got != writers*each {
		t.Errorf("recovered %d measurements, want %d", got, writers*each)
	}
}

// walTags lists the tags of the frames in the WAL file at path.
func walTags(t *testing.T, path string) []byte {
	t.Helper()
	var tags []byte
	if _, err := ReplayFrames(path, WALMagic, func(_ int64, tag byte, _ []byte) error {
		tags = append(tags, tag)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return tags
}

// walTagsOf lists the tags of the frames in a WAL image.
func walTagsOf(t *testing.T, img []byte) []byte {
	t.Helper()
	path := WALPath(t.TempDir())
	if err := os.WriteFile(path, img, 0o644); err != nil {
		t.Fatal(err)
	}
	return walTags(t, path)
}

// TestParentFormatWALReopens: a WAL in either earlier format — every
// offer update logged as the whole record, or as a transition that
// carries its schedule even when it kept it — opens to the same store
// the current write path builds, and takes a state-only step behind its
// old frames under the same magic.
func TestParentFormatWALReopens(t *testing.T) {
	for _, format := range []struct {
		name   string
		update func(img []byte, rec *OfferRecord) []byte
		tags   []byte // of the frames the steps below log
	}{
		{"whole records", func(img []byte, rec *OfferRecord) []byte { return appendOfferFrame(img, rec) }, bytes.Repeat([]byte{tagOffer}, 6)},
		// Framed against a record without a schedule, every transition
		// carries its schedule, as the previous writer logged it.
		{"transitions with schedules", func(img []byte, rec *OfferRecord) []byte {
			return appendUpdateFrame(img, &OfferRecord{Offer: rec.Offer, Owner: rec.Owner}, rec)
		}, bytes.Repeat([]byte{tagOfferState}, 6)},
	} {
		t.Run(format.name, func(t *testing.T) {
			dir := t.TempDir()
			ref := NewInMemory()
			img := []byte(WALMagic)
			for id := flexoffer.ID(1); id <= 6; id++ {
				rec := OfferRecord{Offer: testOffer(id), Owner: fmt.Sprintf("p%d", id%2), State: OfferAccepted}
				if err := ref.PutOffer(rec); err != nil {
					t.Fatal(err)
				}
				img = appendOfferFrame(img, &rec)
			}
			for _, step := range []struct {
				ids    []flexoffer.ID
				mutate func(*OfferRecord)
			}{{[]flexoffer.ID{1, 2, 3, 4}, scheduleOffer}, {[]flexoffer.ID{1, 2}, executeOffer}} {
				for _, id := range step.ids {
					rec, err := ref.UpdateOffer(id, step.mutate)
					if err != nil {
						t.Fatal(err)
					}
					img = format.update(img, &rec)
				}
			}
			if err := os.WriteFile(WALPath(dir), img, 0o644); err != nil {
				t.Fatal(err)
			}

			s, err := Open(dir)
			if err != nil {
				t.Fatalf("open a WAL of %s: %v", format.name, err)
			}
			sameOffers(t, s, ref)
			transition(t, s, 3, executeOffer)
			transition(t, ref, 3, executeOffer)
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			s2, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer s2.Close()
			sameOffers(t, s2, ref)
			want := append(append(bytes.Repeat([]byte{tagOffer}, 6), format.tags...), tagOfferStateOnly)
			if tags := walTags(t, WALPath(dir)); !bytes.Equal(tags, want) {
				t.Errorf("wal tags = %v, want %v", tags, want)
			}
		})
	}
}

// TestTransitionForUnknownOfferFailsOpen: a transition names an offer an
// earlier record stored. One that names no stored offer — with its
// schedule or as a state-only step — means the log is not this store's
// history, so opening fails at the frame's offset and leaves the file
// exactly as it was, torn tail included.
func TestTransitionForUnknownOfferFailsOpen(t *testing.T) {
	known := OfferRecord{Offer: testOffer(1), Owner: "p1", State: OfferAccepted}
	stray := OfferRecord{Offer: testOffer(99), Owner: "p1", State: OfferAccepted}
	scheduled := stray
	scheduleOffer(&scheduled)
	executed := scheduled
	executeOffer(&executed)
	for _, step := range []struct {
		tag      byte
		old, now *OfferRecord
	}{{tagOfferState, &stray, &scheduled}, {tagOfferStateOnly, &scheduled, &executed}} {
		dir := t.TempDir()
		img := appendOfferFrame([]byte(WALMagic), &known)
		at := len(img)
		img = appendUpdateFrame(img, step.old, step.now)
		if img[at+frameHeaderLen] != step.tag {
			t.Fatalf("stray frame has tag %d, want %d", img[at+frameHeaderLen], step.tag)
		}
		img = append(img, 1, 2, 3) // a torn tail a successful open would cut
		if err := os.WriteFile(WALPath(dir), img, 0o644); err != nil {
			t.Fatal(err)
		}
		for name, open := range map[string]func(string) (*Store, error){"Open": func(d string) (*Store, error) { return Open(d) }, "OpenReadOnly": OpenReadOnly} {
			s, err := open(dir)
			if err == nil {
				s.Close()
				t.Fatalf("%s accepted a %s frame for an offer no record stored", name, tagNames[step.tag])
			}
			if !errors.Is(err, ErrUnknownOffer) || !strings.Contains(err.Error(), fmt.Sprintf("offset %d ", at)) {
				t.Errorf("%s, %s frame: err = %v, want ErrUnknownOffer at offset %d", name, tagNames[step.tag], err, at)
			}
			if after, err := os.ReadFile(WALPath(dir)); err != nil || !bytes.Equal(after, img) {
				t.Fatalf("%s changed the WAL (%v)", name, err)
			}
		}
	}
}

// TestUpdateLogsOnlyWhatChanged: an update that keeps the offer, the
// owner and the Schedule pointer logs the state alone, one that keeps the
// offer and the owner but sets a new schedule logs a transition with it,
// one that changes the owner logs the whole record, and one that changes
// nothing — the same Offer pointer, owner, state and Schedule pointer —
// logs and applies nothing, on the single and the batch path alike.
func TestUpdateLogsOnlyWhatChanged(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.PutOffer(OfferRecord{Offer: testOffer(1), Owner: "p1", State: OfferAccepted}); err != nil {
		t.Fatal(err)
	}
	noop := func(*OfferRecord) {}
	sameState := func(r *OfferRecord) { r.State = OfferAccepted }
	transition(t, s, 1, noop)
	transition(t, s, 1, sameState)
	if _, err := s.UpdateOffers([]OfferUpdate{{ID: 1, Mutate: noop}, {ID: 1, Mutate: sameState}}); err != nil {
		t.Fatalf("no-op batch: %v", err)
	}
	if rec, _ := s.GetOffer(1); rec.State != OfferAccepted {
		t.Fatalf("after the no-op batch: %+v, want accepted", rec)
	}
	if got := s.WALStats().Records; got != 1 {
		t.Fatalf("no-op updates logged: %d records, want the put alone", got)
	}

	fi, err := os.Stat(WALPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	putBytes := fi.Size() - LogHeaderLen
	transition(t, s, 1, scheduleOffer)
	if fi, err = os.Stat(WALPath(dir)); err != nil {
		t.Fatal(err)
	}
	scheduledBytes := fi.Size() - LogHeaderLen - putBytes
	if scheduledBytes >= putBytes {
		t.Errorf("a transition with a schedule logged %d bytes, the whole record %d", scheduledBytes, putBytes)
	}
	if _, err := s.UpdateOffers([]OfferUpdate{{ID: 1, Mutate: executeOffer}}); err != nil {
		t.Fatal(err)
	}
	if fi, err = os.Stat(WALPath(dir)); err != nil {
		t.Fatal(err)
	}
	if step := fi.Size() - LogHeaderLen - putBytes - scheduledBytes; step != frameHeaderLen+3 { // tag, one-byte ID, state code
		t.Errorf("a state-only step logged %d bytes, want %d", step, frameHeaderLen+3)
	}
	transition(t, s, 1, func(r *OfferRecord) { r.Owner = "p2" })
	if tags := walTags(t, WALPath(dir)); !bytes.Equal(tags, []byte{tagOffer, tagOfferState, tagOfferStateOnly, tagOffer}) {
		t.Errorf("wal tags = %v, want offer, transition, state-only step, offer", tags)
	}
	if got := s.Offers(OfferFilter{Owner: "p2", State: OfferExecuted}); len(got) != 1 || got[0].Schedule == nil {
		t.Errorf("indexes after the owner change = %+v", got)
	}
	want, _ := s.GetOffer(1)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got, _ := s2.GetOffer(1); !reflect.DeepEqual(got, want) {
		t.Errorf("reopened record = %+v, want %+v", got, want)
	}
}

// TestUpdateOffersLogFailureChangesNothing: when the group commit fails,
// UpdateOffers returns the error and every record — chained same-id
// updates included — is as it was, in the table and in the indexes.
func TestUpdateOffersLogFailureChangesNothing(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for id := flexoffer.ID(1); id <= 2; id++ {
		if err := s.PutOffer(OfferRecord{Offer: testOffer(id), Owner: "p1", State: OfferAccepted}); err != nil {
			t.Fatal(err)
		}
	}
	before, counts := s.Offers(OfferFilter{}), s.CountOffersByState()
	if err := s.w.Close(); err != nil { // every later commit fails
		t.Fatal(err)
	}
	if _, err := s.UpdateOffers([]OfferUpdate{{ID: 1, Mutate: scheduleOffer}, {ID: 2, Mutate: scheduleOffer}, {ID: 1, Mutate: executeOffer}}); err == nil {
		t.Fatal("UpdateOffers on a closed WAL succeeded")
	}
	if after := s.Offers(OfferFilter{}); !reflect.DeepEqual(after, before) {
		t.Errorf("records after a failed commit = %s, want %s", describeOffers(after), describeOffers(before))
	}
	if after := s.CountOffersByState(); !reflect.DeepEqual(after, counts) {
		t.Errorf("state index after a failed commit = %v, want %v", after, counts)
	}
}

// TestInsertOfferKeepsStoredRecord: intake stores a rejected record
// only under a free id (the offers_if_absent rule), and the one it
// declines leaves no trace in the table or the indexes.
func TestInsertOfferKeepsStoredRecord(t *testing.T) {
	s := NewInMemory()
	s.SetIntakeHandoff(ignoreIntake)
	first := OfferRecord{Offer: testOffer(1), Owner: "p1", State: OfferAccepted}
	if err := ingest(s, Intake{Offer: &first}); err != nil {
		t.Fatal(err)
	}
	if err := ingest(s, Intake{Offer: &OfferRecord{Offer: testOffer(1), Owner: "p2", State: OfferRejected}}); err != nil {
		t.Fatal(err)
	}
	if rec, _ := s.GetOffer(1); rec != first {
		t.Errorf("record = %+v, want %+v", rec, first)
	}
	if got := s.Offers(OfferFilter{Owner: "p2"}); len(got) != 0 {
		t.Errorf("declined insert indexed under its owner: %+v", got)
	}
	if got := s.CountOffersByState(); got[OfferRejected] != 0 || got[OfferAccepted] != 1 {
		t.Errorf("state counts = %v", got)
	}
}
