package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"mirabel/internal/agg"
	"mirabel/internal/comm"
	"mirabel/internal/flexoffer"
	"mirabel/internal/ingest"
	"mirabel/internal/sched"
	"mirabel/internal/store"
)

// storeSnapshot is everything a store shows through its queries: every
// offer record, the state index (count and ids per state), every fact
// and the table cardinalities.
func storeSnapshot(st *store.Store) map[string]any {
	index := make(map[store.OfferState][]flexoffer.ID)
	counts := st.CountOffersByState()
	for state := range counts {
		for _, rec := range st.Offers(store.OfferFilter{State: state}) {
			index[state] = append(index[state], rec.Offer.ID)
		}
	}
	return map[string]any{
		"offers":       st.Offers(store.OfferFilter{}),
		"state counts": counts,
		"state index":  index,
		"facts":        st.Measurements(store.MeasurementFilter{}),
		"stats":        st.Stats(),
	}
}

// TestLiveEqualsReplay: the applier applies acked events in WAL order,
// so the store a node shows after its intake barrier is the store a
// replay of its WAL rebuilds. Concurrent producers race on shared keys
// — meter producers rewrite the same (actor, energy type, slot) facts
// at once, an offer id is refused as a duplicate while pending,
// another is rejected twice by different owners — around a scheduling
// cycle that commits in the middle of the stream. After the barrier the
// live store is snapshotted, the node is killed, and the reopened store
// must equal the snapshot.
func TestLiveEqualsReplay(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	brp, err := NewNode(Config{
		Name: "brp1", Store: st, Transport: comm.NewBus(),
		AggParams: agg.ParamsP3,
		SchedOpts: sched.Options{MaxIterations: 3, Seed: 1},
		Ingest:    &ingest.Config{Queue: 64, MaxBatch: 16},
	})
	if err != nil {
		t.Fatal(err)
	}

	const rounds, producers = 1000, 4
	var wg sync.WaitGroup
	fail := make(chan error, 8)
	// Four meter producers write the same four facts in every round, at
	// once, each with its own values: which value a fact keeps is
	// decided by the order the writes reach the log.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for r := 0; r < rounds; r++ {
			var round sync.WaitGroup
			for p := 0; p < producers; p++ {
				round.Add(1)
				go func(p int) {
					defer round.Done()
					ms := make([]store.Measurement, 4)
					for i := range ms {
						ms[i] = store.Measurement{Actor: "m", EnergyType: "elec", Slot: flexoffer.Time(4*r + i), KWh: float64(p + producers*i)}
					}
					if err := brp.ingest.SubmitMeasurements(context.Background(), ms); err != nil {
						fail <- err
					}
				}(p)
			}
			round.Wait()
		}
	}()
	baseline := make([]float64, flexoffer.SlotsPerDay)
	for i := 40; i < 56; i++ {
		baseline[i] = -8
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for id := flexoffer.ID(1); id <= 120; id++ {
			owner := fmt.Sprintf("p%d", id%3)
			switch {
			case id%10 == 0: // past its assignment deadline: rejected, by two owners
				for _, o := range []string{"p1", "p2"} {
					if d := brp.AcceptOffer(testOffer(id, 9, 16, 4, 5), o); d.Accept {
						fail <- fmt.Errorf("offer %d from %s accepted past its deadline", id, o)
						return
					}
				}
			default:
				if d := brp.AcceptOffer(testOffer(id, 40, 16, 4, 5), owner); !d.Accept {
					fail <- fmt.Errorf("offer %d rejected: %s", id, d.Reason)
					return
				}
				if id%7 == 0 { // a refused duplicate of a pending id
					if d := brp.AcceptOffer(testOffer(id, 42, 12, 4, 5), "intruder"); d.Accept {
						fail <- fmt.Errorf("duplicate of pending offer %d accepted", id)
						return
					}
				}
			}
			if id == 60 {
				if _, err := brp.RunSchedulingCycle(context.Background(), 0, StaticForecast(baseline), nil, nil); err != nil {
					fail <- err
					return
				}
			}
		}
	}()
	wg.Wait()
	close(fail)
	for err := range fail {
		t.Fatal(err)
	}
	drain(t, brp)
	live := storeSnapshot(st)
	if c := live["state counts"].(map[store.OfferState]int); c[store.OfferScheduled] == 0 || c[store.OfferAccepted] == 0 || c[store.OfferRejected] == 0 {
		t.Fatalf("state counts %v: want scheduled, accepted and rejected offers", c)
	}
	for _, id := range []flexoffer.ID{7, 70} {
		if rec, _ := st.GetOffer(id); rec.Owner == "intruder" {
			t.Fatalf("offer %d is the intruder's after a refused duplicate", id)
		}
	}
	brp.Kill()

	re, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	replayed := storeSnapshot(re)
	for name, want := range live {
		if got := replayed[name]; !reflect.DeepEqual(got, want) {
			t.Errorf("replayed %s differ from the live store's", name)
		}
	}
}

// TestAckedOfferIsOneWALFrame pins the intake's write: acking an offer
// appends exactly one frame to wal.log, applying it appends nothing, and
// the node creates no other file — not even at the ingest path the
// deprecated Config.Path names.
func TestAckedOfferIsOneWALFrame(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	brp := mustNode(t, nil, Config{
		Name: "brp1", Store: st, AggParams: agg.ParamsP3,
		Ingest: &ingest.Config{Path: filepath.Join(dir, "ingest.log")},
	})
	frames := func() int {
		t.Helper()
		n := 0 // every commit is flushed to the OS: the file has it
		if _, err := store.ReplayFrames(store.WALPath(dir), store.WALMagic, func(int64, byte, []byte) error { n++; return nil }); err != nil {
			t.Fatal(err)
		}
		return n
	}
	before := frames()
	if d := brp.AcceptOffer(testOffer(1, 40, 16, 4, 5), "p1"); !d.Accept {
		t.Fatalf("rejected: %s", d.Reason)
	}
	if got := frames() - before; got != 1 {
		t.Fatalf("acking one offer added %d WAL frames, want 1", got)
	}
	drain(t, brp)
	if got := frames() - before; got != 1 {
		t.Fatalf("after the barrier the offer is %d WAL frames, want 1", got)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "wal.log" {
		t.Errorf("the node directory holds %v, want wal.log alone", entries)
	}
}

// TestLegacyJournalRefusedUntouched: a node directory an older build
// left with a non-empty ingest journal — ingest.log, or the sealed
// ingest.log.old of a compaction — may hold acked events that exist
// nowhere else. Opening the node over it fails with an error that names
// the file, and the file is left as it was; an empty journal holds
// nothing and is no obstacle.
func TestLegacyJournalRefusedUntouched(t *testing.T) {
	// What an older build's journal started with: its magic and one
	// frame.
	dst, mark := store.BeginFrame([]byte("MRBLJNL\x01"), 1)
	journal := store.EndFrame(append(dst, "acked offer"...), mark)
	openNode := func(dir string) error {
		st, err := store.Open(dir)
		if err != nil {
			return err
		}
		defer st.Close()
		n, err := NewNode(Config{Name: "brp1", Store: st, AggParams: agg.ParamsP3})
		if err != nil {
			return err
		}
		return n.Close()
	}
	for _, tc := range []struct {
		file  string
		image []byte
		ok    bool
	}{
		{"ingest.log", journal, false},
		{"ingest.log.old", journal, false},
		{"ingest.log", nil, true},
	} {
		dir := t.TempDir()
		path := filepath.Join(dir, tc.file)
		if err := os.WriteFile(path, tc.image, 0o644); err != nil {
			t.Fatal(err)
		}
		err := openNode(dir)
		if tc.ok {
			if err != nil {
				t.Errorf("%s of %d bytes: %v", tc.file, len(tc.image), err)
			}
			continue
		}
		if !errors.Is(err, store.ErrLogFormat) || !strings.Contains(err.Error(), path) {
			t.Errorf("%s: opening the node returned %v, want store.ErrLogFormat naming the file", tc.file, err)
		}
		if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, tc.image) {
			t.Errorf("%s changed under a refused open (%v)", tc.file, err)
		}
		if _, err := os.Stat(store.WALPath(dir)); !os.IsNotExist(err) {
			t.Errorf("%s: the refused open created wal.log (%v)", tc.file, err)
		}
	}
}
