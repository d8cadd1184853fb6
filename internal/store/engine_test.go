package store

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"testing"

	"mirabel/internal/flexoffer"
)

// TestSnapshotNonBlocking proves the acceptance property directly:
// while Snapshot() is serializing the image (the long part), readers
// and writers make progress. The serialize hook parks the snapshot
// between the per-shard copy and the marshal; every store operation
// issued in that window must complete before the snapshot is released.
func TestSnapshotNonBlocking(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for slot := flexoffer.Time(0); slot < 1000; slot++ {
		if err := s.PutMeasurement(Measurement{Actor: "p1", EnergyType: "demand", Slot: slot, KWh: 1}); err != nil {
			t.Fatal(err)
		}
	}

	enter := make(chan struct{})
	release := make(chan struct{})
	s.serializeHook = func() {
		close(enter)
		<-release
	}
	snapDone := make(chan error, 1)
	go func() { snapDone <- s.Snapshot() }()
	<-enter // snapshot copied its view and is now "serializing"

	// Writes across every table flavour, reads via every index — all
	// while the snapshot is mid-flight. No goroutines, no timeouts: if
	// any of these blocked on the snapshot, the test would hang.
	if err := s.PutMeasurement(Measurement{Actor: "p1", EnergyType: "demand", Slot: 5000, KWh: 2}); err != nil {
		t.Fatal(err)
	}
	if err := s.PutOffer(OfferRecord{Offer: testOffer(41), Owner: "p1", State: OfferAccepted}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.UpdateOffer(41, func(r *OfferRecord) { r.State = OfferScheduled }); err != nil {
		t.Fatal(err)
	}
	if err := s.PutMeasurementsBatch([]Measurement{
		{Actor: "p2", EnergyType: "demand", Slot: 1, KWh: 3},
		{Actor: "p2", EnergyType: "demand", Slot: 2, KWh: 4},
	}); err != nil {
		t.Fatal(err)
	}
	if got := len(s.Measurements(MeasurementFilter{Actor: "p1", EnergyType: "demand", FromSlot: 4999, ToSlot: 5001})); got != 1 {
		t.Errorf("read during snapshot = %d rows, want 1", got)
	}
	if got := s.CountOffersByState()[OfferScheduled]; got != 1 {
		t.Errorf("scheduled count during snapshot = %d, want 1", got)
	}
	select {
	case err := <-snapDone:
		t.Fatalf("snapshot finished before release: %v", err)
	default:
	}

	close(release)
	if err := <-snapDone; err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// The mid-snapshot writes landed in the post-rotation WAL: recovery
	// must see the snapshot image plus all of them.
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.Stats().Measurements; got != 1003 {
		t.Errorf("measurements after recovery = %d, want 1003", got)
	}
	if r, ok := s2.GetOffer(41); !ok || r.State != OfferScheduled {
		t.Errorf("offer after recovery = %+v, %v", r, ok)
	}
}

// TestSnapshotPlusTailEqualsPreCrashState writes, snapshots, writes
// more (the tail), then "crashes" (reopens without Close) and checks
// the recovered state equals the pre-crash state exactly.
func TestSnapshotPlusTailEqualsPreCrashState(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for slot := flexoffer.Time(0); slot < 50; slot++ {
		if err := s.PutMeasurement(Measurement{Actor: "p1", EnergyType: "demand", Slot: slot, KWh: float64(slot)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.PutOffer(OfferRecord{Offer: testOffer(7), Owner: "p1", State: OfferAccepted}); err != nil {
		t.Fatal(err)
	}
	if err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	// Tail: post-snapshot mutations, including a state transition of a
	// snapshotted record and a prune.
	if _, err := s.UpdateOffer(7, func(r *OfferRecord) { r.State = OfferScheduled }); err != nil {
		t.Fatal(err)
	}
	if err := s.PutMeasurement(Measurement{Actor: "p1", EnergyType: "demand", Slot: 100, KWh: 9}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.PruneMeasurements(10); err != nil {
		t.Fatal(err)
	}
	want := s.dump()
	if err := s.Sync(); err != nil { // flush the tail; no Close — this is the crash
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	got := s2.dump()
	if len(got.Measurements) != len(want.Measurements) {
		t.Errorf("recovered %d measurements, want %d", len(got.Measurements), len(want.Measurements))
	}
	if got := s2.SumEnergyBySlot(MeasurementFilter{})[100]; got != 9 {
		t.Errorf("tail measurement lost: %g", got)
	}
	if got := s2.Stats().Measurements; got != 41 { // 50 - 10 pruned + 1 tail
		t.Errorf("measurements = %d, want 41", got)
	}
	if r, ok := s2.GetOffer(7); !ok || r.State != OfferScheduled {
		t.Errorf("offer transition lost: %+v, %v", r, ok)
	}
}

// TestCrashBetweenSnapshotAndWALRetire simulates dying after the new
// snapshot is in place but before wal.old is removed: the sealed tail
// must replay idempotently over a snapshot that already contains it.
func TestCrashBetweenSnapshotAndWALRetire(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.PutActor(Actor{ID: "brp1", Role: RoleBRP}); err != nil {
		t.Fatal(err)
	}
	if err := s.PutMeasurement(Measurement{Actor: "p1", EnergyType: "demand", Slot: 3, KWh: 7}); err != nil {
		t.Fatal(err)
	}
	if err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Recreate wal.old as if the retire step never ran: the records it
	// seals are exactly the ones the snapshot covers.
	sealed := []byte(WALMagic)
	for _, rec := range []struct {
		tag byte
		val any
	}{
		{tagActor, Actor{ID: "brp1", Role: RoleBRP}},
		{tagMeasurement, Measurement{Actor: "p1", EnergyType: "demand", Slot: 3, KWh: 7}},
	} {
		if sealed, err = appendRecord(sealed, rec.tag, rec.val); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(walOldPath(dir), sealed, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatalf("recovery with leftover wal.old: %v", err)
	}
	if got := s2.Stats(); got.Actors != 1 || got.Measurements != 1 {
		t.Errorf("idempotent replay broke counts: %+v", got)
	}
	// A snapshot from this state must seal the leftover tail away for
	// good (the rotate path appends to an existing wal.old).
	if err := s2.PutActor(Actor{ID: "p9", Role: RoleProsumer}); err != nil {
		t.Fatal(err)
	}
	if err := s2.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	s3, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if _, ok := s3.GetActor("p9"); !ok {
		t.Error("post-recovery write lost")
	}
	if got := s3.Stats(); got.Actors != 2 || got.Measurements != 1 {
		t.Errorf("counts after second snapshot: %+v", got)
	}
}

// TestCrashBeforeSnapshotWriteKeepsSealedTail simulates dying between
// the WAL rotation and the snapshot rename: the sealed tail is the only
// copy of its records and must be replayed.
func TestCrashBeforeSnapshotWriteKeepsSealedTail(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.PutActor(Actor{ID: "only-in-tail", Role: RoleBRP}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// The crashed snapshot rotated wal.log to wal.old and died before
	// writing snapshot.json.
	if err := os.Rename(walPath(dir), walOldPath(dir)); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if _, ok := s2.GetActor("only-in-tail"); !ok {
		t.Error("sealed tail not replayed")
	}
}

func TestOpenReadOnly(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.PutActor(Actor{ID: "brp1", Role: RoleBRP}); err != nil {
		t.Fatal(err)
	}
	if err := s.PutMeasurement(Measurement{Actor: "p1", EnergyType: "demand", Slot: 1, KWh: 2}); err != nil {
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
	if _, ok := ro.GetActor("brp1"); !ok {
		t.Error("read-only open lost the actor")
	}
	if got := ro.SumEnergyBySlot(MeasurementFilter{})[1]; got != 2 {
		t.Errorf("read-only measurement = %g, want 2", got)
	}
	for name, err := range map[string]error{
		"PutActor":       ro.PutActor(Actor{ID: "x"}),
		"PutMeasurement": ro.PutMeasurement(Measurement{Actor: "x", EnergyType: "demand"}),
		"PutOffer":       ro.PutOffer(OfferRecord{Offer: testOffer(1)}),
		"ApplyBatch": func() error {
			b := NewBatch()
			b.PutActor(Actor{ID: "x"})
			return ro.ApplyBatch(b)
		}(),
		"Snapshot": ro.Snapshot(),
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
	if _, ok := s2.GetActor("brp1"); !ok {
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
	for slot := flexoffer.Time(0); slot < 20; slot++ {
		for _, actor := range []string{"p1", "p2"} {
			if err := s.PutMeasurement(Measurement{Actor: actor, EnergyType: "demand", Slot: slot, KWh: 1}); err != nil {
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

func TestApplyBatchMixedTables(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	b := NewBatch()
	b.PutActor(Actor{ID: "brp1", Role: RoleBRP})
	b.PutEnergyType(EnergyType{ID: "demand", Kind: "consumption"})
	b.PutMarketArea(MarketArea{ID: "dk1"})
	b.PutMeasurement(Measurement{Actor: "p1", EnergyType: "demand", Slot: 1, KWh: 2})
	b.PutMeasurement(Measurement{Actor: "p1", EnergyType: "demand", Slot: 1, KWh: 3}) // same-key: last wins
	b.PutOffer(OfferRecord{Offer: testOffer(9), Owner: "p1", State: OfferAccepted})
	b.PutForecast(ForecastRecord{Actor: "brp1", EnergyType: "demand", Slot: 4, Horizon: 1, KWh: 5})
	b.PutPrice(PriceRecord{MarketArea: "dk1", Hour: 7, EURPerMWh: 55})
	b.PutContract(Contract{Prosumer: "p1", BRP: "brp1", FlexPremium: 0.02})
	b.PutModelParams(ModelParams{Actor: "brp1", EnergyType: "demand", ModelName: "HWT", Params: []float64{1}})
	if b.Len() != 10 {
		t.Fatalf("batch len = %d", b.Len())
	}
	if err := s.ApplyBatch(b); err != nil {
		t.Fatal(err)
	}
	if got := s.SumEnergyBySlot(MeasurementFilter{})[1]; got != 3 {
		t.Errorf("same-key batch order broken: %g, want 3", got)
	}
	st := s.Stats()
	if st.Actors != 1 || st.EnergyTypes != 1 || st.MarketAreas != 1 || st.Measurements != 1 ||
		st.Offers != 1 || st.Forecasts != 1 || st.Prices != 1 || st.Contracts != 1 || st.ModelParamsEntries != 1 {
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
	b.PutActor(Actor{}) // invalid: no id
	b.PutActor(Actor{ID: "ok"})
	if err := s.ApplyBatch(b); err == nil {
		t.Error("batch with invalid op applied")
	}
	if _, ok := s.GetActor("ok"); ok {
		t.Error("invalid batch partially applied")
	}
	if err := s.ApplyBatch(NewBatch()); err != nil {
		t.Errorf("empty batch: %v", err)
	}
}

func TestUpdateOffersBatch(t *testing.T) {
	s := NewInMemory()
	for id := flexoffer.ID(1); id <= 3; id++ {
		if err := s.PutOffer(OfferRecord{Offer: testOffer(id), Owner: fmt.Sprintf("p%d", id), State: OfferAccepted}); err != nil {
			t.Fatal(err)
		}
	}
	results, err := s.UpdateOffers([]OfferUpdate{
		{ID: 1, Mutate: func(r *OfferRecord) { r.State = OfferScheduled }},
		{ID: 99, Mutate: func(r *OfferRecord) { r.State = OfferScheduled }},
		{ID: 2, Mutate: func(r *OfferRecord) { r.State = OfferScheduled }},
		{ID: 2, Mutate: func(r *OfferRecord) { // chained: sees the scheduled state
			if r.State == OfferScheduled {
				r.State = OfferExecuted
			}
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Err != nil || results[0].Record.State != OfferScheduled {
		t.Errorf("result[0] = %+v", results[0])
	}
	if !errors.Is(results[1].Err, ErrUnknownOffer) {
		t.Errorf("result[1].Err = %v, want ErrUnknownOffer", results[1].Err)
	}
	if results[3].Err != nil || results[3].Record.State != OfferExecuted {
		t.Errorf("chained result = %+v", results[3])
	}
	counts := s.CountOffersByState()
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
	const writers, each = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			actor := fmt.Sprintf("p%d", w)
			for i := 0; i < each; i++ {
				if err := s.PutMeasurement(Measurement{Actor: actor, EnergyType: "demand", Slot: flexoffer.Time(i), KWh: 1}); err != nil {
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
