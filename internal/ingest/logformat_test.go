package ingest

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"mirabel/internal/flexoffer"
	"mirabel/internal/settle"
	"mirabel/internal/store"
)

// binaryLog is one of the frame logs — the WAL, written by the store or
// by intake, and the ledger — driven through its owner's public surface
// only: the torn-tail and foreign-format rules live in
// store/frame.go once, and these tests hold every log to them.
type binaryLog struct {
	name  string
	magic string
	// refusesDamage: a frame broken mid-log fails the reopen with
	// store.ErrDamaged and the file untouched, instead of being cut with
	// everything behind it.
	refusesDamage bool
	// file is the log's path under a node directory.
	file func(dir string) string
	// write durably logs offers (the ledger: their settlement lines)
	// first..last into dir and stops.
	write func(t *testing.T, dir string, first, last int)
	// reopen recovers dir and returns how many offers came back, leaving
	// the log as recovery left it (open for appends, then stopped).
	reopen func(t *testing.T, dir string) (recovered int, err error)
}

func binaryLogs() []binaryLog {
	wal := binaryLog{
		name: "wal", magic: store.WALMagic,
		file: func(dir string) string { return store.WALPath(dir) },
		write: func(t *testing.T, dir string, first, last int) {
			s, err := store.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			for id := first; id <= last; id++ {
				b := store.NewBatch()
				b.PutOffer(offerRec(uint64(id), "p1", store.OfferAccepted))
				if err := s.ApplyBatch(b); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
		},
		reopen: func(t *testing.T, dir string) (int, error) {
			s, err := store.Open(dir)
			if err != nil {
				return 0, err
			}
			defer s.Close()
			return s.Stats().Offers, nil
		},
	}
	// The WAL again, written the way a node acks intake: through the
	// queue, killed before its applier reached the events.
	intake := wal
	intake.name = "intake"
	intake.write = func(t *testing.T, dir string, first, last int) {
		s, err := store.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		q, err := Open(Config{Store: s})
		if err != nil {
			t.Fatal(err)
		}
		for id := first; id <= last; id++ {
			if err := q.SubmitOffer(context.Background(), offerRec(uint64(id), "p1", store.OfferAccepted)); err != nil {
				t.Fatal(err)
			}
		}
		q.Kill()
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
	openLedger := func(dir string) (*settle.Ledger, error) {
		return settle.OpenLedger(settle.LedgerConfig{Path: filepath.Join(dir, "ledger.log")})
	}
	ledger := binaryLog{
		name: "ledger", magic: settle.LedgerMagic, refusesDamage: true,
		file: func(dir string) string { return filepath.Join(dir, "ledger.log") },
		write: func(t *testing.T, dir string, first, last int) {
			l, err := openLedger(dir)
			if err != nil {
				t.Fatal(err)
			}
			for id := first; id <= last; id++ {
				if _, err := l.Append([]settle.Entry{{Kind: settle.EntryLine, Actor: "p1", OfferID: flexoffer.ID(id), AmountEUR: 0.5}}); err != nil {
					t.Fatal(err)
				}
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
		},
		reopen: func(t *testing.T, dir string) (int, error) {
			l, err := openLedger(dir)
			if err != nil {
				return 0, err
			}
			defer l.Close()
			if v, err := l.Verify(); err != nil || !v.OK {
				t.Errorf("ledger reopened over a chain that does not verify: %+v, %v", v, err)
			}
			return int(l.Stats().RecoveredEntries), nil
		},
	}
	return []binaryLog{wal, intake, ledger}
}

// frameOffsets returns where each frame of a log image starts, plus the
// image's length as the final element.
func frameOffsets(t *testing.T, path, magic string) []int64 {
	t.Helper()
	var offs []int64
	end, err := store.ReplayFrames(path, magic, func(off int64, _ byte, _ []byte) error {
		offs = append(offs, off)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return append(offs, end)
}

// TestTornTailRecovery is the one torn-tail test of every frame log.
// A log of five records is damaged in every way a crash or a bad sector
// can damage it — cut at every byte offset of its last frame (and inside
// the header), or one byte flipped in a middle frame — and each time
// recovery must return exactly the records before the damage, cut the
// file back to them, and leave a log whose next append is not hidden
// behind leftover garbage. The ledger differs in the one way its owner
// chose: a frame broken mid-log has entries behind it, which are
// evidence, so its reopen fails and changes nothing.
func TestTornTailRecovery(t *testing.T) {
	const records = 5
	for _, lg := range binaryLogs() {
		t.Run(lg.name, func(t *testing.T) {
			master := t.TempDir()
			lg.write(t, master, 1, records)
			image, err := os.ReadFile(lg.file(master))
			if err != nil {
				t.Fatal(err)
			}
			offs := frameOffsets(t, lg.file(master), lg.magic)
			if len(offs) != records+1 || offs[records] != int64(len(image)) {
				t.Fatalf("master log has frames at %v in %d bytes, want %d frames", offs, len(image), records)
			}

			type damage struct {
				name   string
				image  []byte
				intact int  // records that must survive
				midLog bool // frames follow the damage
			}
			var cases []damage
			for cut := offs[records-1]; cut < int64(len(image)); cut++ {
				cases = append(cases, damage{fmt.Sprintf("cut at %d", cut), image[:cut], records - 1, false})
			}
			for cut := int64(0); cut < store.LogHeaderLen; cut++ {
				cases = append(cases, damage{fmt.Sprintf("cut at %d (inside the header)", cut), image[:cut], 0, false})
			}
			for _, at := range []int64{offs[2], offs[2] + 4, offs[2] + 8, (offs[2] + offs[3]) / 2, offs[3] - 1} {
				flipped := bytes.Clone(image)
				flipped[at] ^= 0x40
				cases = append(cases, damage{fmt.Sprintf("byte %d flipped (third frame)", at), flipped, 2, true})
			}

			for _, dc := range cases {
				dir := t.TempDir()
				if err := os.WriteFile(lg.file(dir), dc.image, 0o644); err != nil {
					t.Fatal(err)
				}
				got, err := lg.reopen(t, dir)
				if dc.midLog && lg.refusesDamage {
					if !errors.Is(err, store.ErrDamaged) {
						t.Fatalf("%s: reopen returned %v, want store.ErrDamaged", dc.name, err)
					}
					if after, rerr := os.ReadFile(lg.file(dir)); rerr != nil || !bytes.Equal(after, dc.image) {
						t.Fatalf("%s: file changed under a refused reopen (%v)", dc.name, rerr)
					}
					continue
				}
				if err != nil {
					t.Fatalf("%s: recovery failed: %v", dc.name, err)
				}
				if got != dc.intact {
					t.Fatalf("%s: recovered %d records, want %d", dc.name, got, dc.intact)
				}
				wantSize := int64(0)
				if dc.intact > 0 {
					wantSize = offs[dc.intact]
				}
				if fi, err := os.Stat(lg.file(dir)); err != nil || fi.Size() > wantSize || (dc.intact > 0 && fi.Size() != wantSize) {
					t.Fatalf("%s: log is %d bytes after recovery, want the %d-byte intact prefix", dc.name, fi.Size(), wantSize)
				}
				// An append after recovery lands where the next recovery
				// finds it.
				lg.write(t, dir, 100, 100)
				if got, err := lg.reopen(t, dir); err != nil || got != dc.intact+1 {
					t.Fatalf("%s: after one more append recovery returns %d records (%v), want %d", dc.name, got, err, dc.intact+1)
				}
			}
		})
	}
}

// TestForeignLogIsRefusedUntouched: a non-empty log that does not start
// with the magic — here the JSON-lines files the node wrote before each
// log's binary format — is an "unsupported log format" error from Open,
// never a torn tail that gets cut to zero.
func TestForeignLogIsRefusedUntouched(t *testing.T) {
	legacyWAL := []byte(`{"table":"actors","op":"put","data":{"id":"brp1","name":"","role":"brp"},"crc":2742563069}` + "\n")
	legacyLedger := []byte(`{"seq":0,"kind":"line","actor":"p1","offer_id":1,"kwh":20,"amount_eur":0.4,"compliant":true,"prev":"","hash":"5f2b0c0e3d9a4c1e8b7a6f5e4d3c2b1a09f8e7d6c5b4a39281706f5e4d3c2b1a"}` + "\n")
	futureWAL := append([]byte(store.WALMagic[:store.LogHeaderLen-1]), 0x7f, 1, 0, 0, 0, 0, 0, 0, 0, 1)
	wal, ledger := binaryLogs()[0], binaryLogs()[2]
	for _, tc := range []struct {
		name  string
		log   binaryLog
		file  func(dir string) string
		image []byte
	}{
		{"legacy wal.log", wal, wal.file, legacyWAL},
		{"wal.log of another version", wal, wal.file, futureWAL},
		{"legacy ledger.log", ledger, ledger.file, legacyLedger},
		{"a WAL where the ledger belongs", ledger, ledger.file, futureWAL},
	} {
		dir := t.TempDir()
		if err := os.WriteFile(tc.file(dir), tc.image, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := tc.log.reopen(t, dir)
		if !errors.Is(err, store.ErrLogFormat) {
			t.Errorf("%s: Open returned %v, want store.ErrLogFormat", tc.name, err)
		}
		if after, rerr := os.ReadFile(tc.file(dir)); rerr != nil || !bytes.Equal(after, tc.image) {
			t.Errorf("%s: file changed under a refused Open (%d bytes, was %d; %v)", tc.name, len(after), len(tc.image), rerr)
		}
	}
}

// TestSubmitMeasurementsRejectsNonFinite: raw float bits can carry what
// JSON never could; the intake funnel refuses them.
func TestSubmitMeasurementsRejectsNonFinite(t *testing.T) {
	s := store.NewInMemory()
	q, err := Open(Config{Store: s})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	ctx := context.Background()
	for name, kwh := range map[string]float64{"NaN": math.NaN(), "+Inf": math.Inf(1), "-Inf": math.Inf(-1)} {
		err := q.SubmitMeasurements(ctx, []store.Measurement{meas("p1", 1, 2), meas("p1", 2, kwh)})
		if err == nil {
			t.Errorf("%s kWh accepted", name)
		}
	}
	if err := q.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if n := s.Stats().Measurements; n != 0 {
		t.Errorf("%d facts of refused batches reached the store", n)
	}
}
