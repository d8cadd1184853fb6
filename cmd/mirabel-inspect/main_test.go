package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"mirabel/internal/flexoffer"
	"mirabel/internal/ingest"
	"mirabel/internal/settle"
	"mirabel/internal/store"
)

// putOffer stores one record as a one-record batch, one WAL group.
func putOffer(st *store.Store, rec store.OfferRecord) error {
	b := store.NewBatch()
	b.PutOffer(rec)
	return st.ApplyBatch(b)
}

// TestDumpLogs writes a small node directory through the store, the
// ingest queue and the ledger, then checks that -dump lists every record
// of the two binary logs as one JSON object each — the intake's among
// the WAL's — and leaves a torn tail where it is.
func TestDumpLogs(t *testing.T) {
	dir := t.TempDir()
	offer := &flexoffer.FlexOffer{ID: 7, Prosumer: "p1", EarliestStart: 40, LatestStart: 44, AssignBefore: 32, Profile: []flexoffer.Slice{{EnergyMin: 1, EnergyMax: 3}}}

	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	q, err := ingest.Open(ingest.Config{Store: st})
	if err != nil {
		t.Fatal(err)
	}
	scheduled := func(r *store.OfferRecord) { r.State, r.Schedule = store.OfferScheduled, offer.DefaultSchedule() }
	executed := func(r *store.OfferRecord) { r.State = store.OfferExecuted }
	for _, err := range []error{
		putOffer(st, store.OfferRecord{Offer: offer, Owner: "p1", State: store.OfferAccepted}),
		func() error { _, err := st.UpdateOffers([]store.OfferUpdate{{ID: 7, Mutate: scheduled}}); return err }(), // logged as a transition with its schedule
		func() error { _, err := st.UpdateOffers([]store.OfferUpdate{{ID: 7, Mutate: executed}}); return err }(),  // logged as a state-only step
		q.SubmitMeasurements(context.Background(), []store.Measurement{{Actor: "p1", EnergyType: "demand", Slot: 3, KWh: 1.5}}),
		q.Drain(context.Background()),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	if _, err := st.PruneMeasurements(2); err != nil {
		t.Fatal(err)
	}
	if err := q.SubmitOffer(context.Background(), store.OfferRecord{Offer: offer, Owner: "p2", State: store.OfferRejected}); err != nil {
		t.Fatal(err)
	}
	if err := q.SubmitMeasurements(context.Background(), []store.Measurement{{Actor: "p1", EnergyType: "demand", Slot: 4, KWh: 2}, {Actor: "p1", EnergyType: "demand", Slot: 5, KWh: 3}}); err != nil {
		t.Fatal(err)
	}
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	ledger, err := settle.OpenLedger(settle.LedgerConfig{Path: filepath.Join(dir, "ledger.log")})
	if err != nil {
		t.Fatal(err)
	}
	sealed, err := ledger.Append([]settle.Entry{
		{Kind: settle.EntryLine, Actor: "p1", OfferID: 7, Slot: 40, KWh: 2, AmountEUR: 0.4, Compliant: true},
		{Kind: settle.EntryPenalty, Actor: "p1", OfferID: 7, AmountEUR: -0.25, Memo: "late"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := ledger.Close(); err != nil {
		t.Fatal(err)
	}

	// A torn tail on the WAL: reported, not cut.
	walPath := store.WALPath(dir)
	f, err := os.OpenFile(walPath, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{9, 0, 0, 0, 1, 2})
	f.Close()
	before, _ := os.ReadFile(walPath)

	for _, tc := range []struct {
		which string
		tags  []string
		want  []string // a substring of each line's record
	}{
		{"wal", []string{"offers", "offer_transitions", "offer_states", "measurements", "prune", "offers_if_absent", "measurements", "measurements"}, []string{
			`"state":"accepted"`, `{"id":7,"state":"scheduled","schedule":{"OfferID":7,"Start":40,`, `{"id":7,"state":"executed"}`, `"kwh":1.5`, `"before":2`,
			`"owner":"p2","state":"rejected"`, `"slot":4`, `"slot":5`,
		}},
		{"ledger", []string{"line", "penalty"}, []string{`"hash":"` + sealed[0].Hash + `"`, `"memo":"late","prev":"` + sealed[0].Hash + `"`}},
	} {
		var out, notes bytes.Buffer
		if err := dumpLog(&out, &notes, dir, tc.which); err != nil {
			t.Fatalf("-dump %s: %v", tc.which, err)
		}
		sc := bufio.NewScanner(&out)
		var lastOff int64
		for i := 0; sc.Scan(); i++ {
			if i >= len(tc.tags) {
				t.Fatalf("-dump %s: extra line %s", tc.which, sc.Text())
			}
			var line struct {
				File   string          `json:"file"`
				Offset int64           `json:"offset"`
				Tag    string          `json:"tag"`
				Record json.RawMessage `json:"record"`
			}
			if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
				t.Fatalf("-dump %s line %d is not JSON: %v\n%s", tc.which, i, err, sc.Text())
			}
			if line.Tag != tc.tags[i] || line.Offset <= lastOff || line.File == "" || !strings.Contains(string(line.Record), tc.want[i]) {
				t.Errorf("-dump %s line %d = %s, want tag %q with %s past offset %d", tc.which, i, sc.Text(), tc.tags[i], tc.want[i], lastOff)
			}
			lastOff = line.Offset
		}
		if lastOff == 0 {
			t.Errorf("-dump %s printed nothing", tc.which)
		}
		if torn := strings.Contains(notes.String(), "6 bytes of torn tail"); torn != (tc.which == "wal") {
			t.Errorf("-dump %s notes = %q", tc.which, notes.String())
		}
	}
	if after, _ := os.ReadFile(walPath); !bytes.Equal(before, after) {
		t.Error("-dump changed the WAL")
	}
	if err := dumpLog(&bytes.Buffer{}, &bytes.Buffer{}, dir, "snapshot"); err == nil {
		t.Error("-dump snapshot accepted")
	}
}

// writeWAL writes a WAL of one offer record followed by a frame of the
// given tag and payload, as an older or a newer build could have left it.
func writeWAL(t *testing.T, tag byte, payload string) (dir string, img []byte) {
	t.Helper()
	dir = t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	offer := &flexoffer.FlexOffer{ID: 7, Prosumer: "p1", EarliestStart: 40, LatestStart: 44, AssignBefore: 32, Profile: []flexoffer.Slice{{EnergyMin: 1, EnergyMax: 3}}}
	if err := putOffer(st, store.OfferRecord{Offer: offer, Owner: "p1", State: store.OfferAccepted}); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	img, err = os.ReadFile(store.WALPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	img, mark := store.BeginFrame(img, tag)
	img = store.EndFrame(append(img, payload...), mark)
	if err := os.WriteFile(store.WALPath(dir), img, 0o644); err != nil {
		t.Fatal(err)
	}
	return dir, img
}

// TestDumpLegacyActorsRow: -dump wal lists an actors row an older
// build's node start logged as an "actors" record holding the row's
// payload text as it is.
func TestDumpLegacyActorsRow(t *testing.T) {
	const row = `{"id":"brp1","name":"brp1","role":"brp"}`
	dir, _ := writeWAL(t, 1, row)
	var out bytes.Buffer
	if err := dumpLog(&out, &bytes.Buffer{}, dir, "wal"); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var last struct {
		Tag    string `json:"tag"`
		Record string `json:"record"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatal(err)
	}
	if len(lines) != 2 || last.Tag != "actors" || last.Record != row {
		t.Errorf("-dump wal = %s, want an offers line and the actors row %s", out.String(), row)
	}
}

// TestDumpRefusedTag: -dump wal stops at a frame of a retired table's
// tag or of one this build does not know with the store's ErrLogFormat
// error, naming the file and the frame, and changes nothing.
func TestDumpRefusedTag(t *testing.T) {
	for _, tag := range []byte{2, 3, 6, 7, 8, 9, 14, 0} {
		dir, img := writeWAL(t, tag, `{"id":"dk1"}`)
		err := dumpLog(&bytes.Buffer{}, &bytes.Buffer{}, dir, "wal")
		if !errors.Is(err, store.ErrLogFormat) || !strings.Contains(err.Error(), store.WALPath(dir)+" offset ") {
			t.Errorf("tag %d: -dump wal err = %v, want ErrLogFormat naming the frame", tag, err)
		}
		if after, _ := os.ReadFile(store.WALPath(dir)); !bytes.Equal(after, img) {
			t.Errorf("tag %d: -dump changed the WAL", tag)
		}
	}
}

// TestSummaryCountsEveryState: the lifecycle lines of the summary sum to
// the offer count, a cancelled offer among them, and the energy-per-actor
// lines come in actor order.
func TestSummaryCountsEveryState(t *testing.T) {
	st := store.NewInMemory()
	states := []store.OfferState{
		store.OfferReceived, store.OfferAccepted, store.OfferScheduled, store.OfferExecuted,
		store.OfferExpired, store.OfferRejected, store.OfferCancelled, store.OfferCancelled,
	}
	for i, state := range states {
		offer := &flexoffer.FlexOffer{ID: flexoffer.ID(i + 1), Prosumer: "p1", EarliestStart: 40, LatestStart: 44, Profile: []flexoffer.Slice{{EnergyMin: 1, EnergyMax: 3}}}
		if err := putOffer(st, store.OfferRecord{Offer: offer, Owner: "p1", State: state}); err != nil {
			t.Fatal(err)
		}
	}
	actors := []string{"p07", "p02", "p11", "p00", "p05", "p09", "p03", "p10", "p01", "p08", "p04", "p06"}
	ms := make([]store.Measurement, len(actors))
	for i, actor := range actors {
		ms[i] = store.Measurement{Actor: actor, EnergyType: "demand", Slot: flexoffer.Time(i), KWh: 1}
	}
	// A volatile store hands each acked event off at once: apply it there.
	st.SetIntakeHandoff(func(ev store.Intake) { st.ApplyIntake([]store.Intake{ev}) })
	if err := st.AppendIntake(store.Intake{Meas: ms}); err != nil {
		t.Fatal(err)
	}

	var out bytes.Buffer
	summarize(&out, st, "mem", false, true)
	lines := strings.Split(out.String(), "\n")
	var sum int
	var listed []string
	section := ""
	for _, line := range lines {
		switch {
		case strings.HasPrefix(line, "  ") && !strings.HasPrefix(line, "    "):
			section = strings.TrimSpace(line)
		case section == "flex-offer lifecycle:":
			var state string
			var n int
			if _, err := fmt.Sscanf(line, "%s %d", &state, &n); err != nil {
				t.Fatalf("lifecycle line %q: %v", line, err)
			}
			if state == string(store.OfferCancelled) && n != 2 {
				t.Errorf("cancelled line %q, want 2", line)
			}
			sum += n
		case section == "energy per actor:" && strings.HasSuffix(line, "kWh"):
			listed = append(listed, strings.Fields(line)[0])
		}
	}
	if sum != len(states) {
		t.Errorf("lifecycle lines sum to %d, want the %d offers:\n%s", sum, len(states), out.String())
	}
	if !sort.StringsAreSorted(listed) || len(listed) != len(actors) {
		t.Errorf("actor lines %v, want all %d in order", listed, len(actors))
	}
}
