package settle

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"mirabel/internal/flexoffer"
	"mirabel/internal/store"
)

func openTestLedger(t *testing.T, path string) *Ledger {
	t.Helper()
	l, err := OpenLedger(LedgerConfig{Path: path, Sync: store.SyncFlush})
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestLedgerAppendChainsAndVerifies(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ledger.log")
	l := openTestLedger(t, path)
	defer l.Close()

	first, err := l.Append([]Entry{
		{Kind: EntryLine, Actor: "p1", OfferID: 1, KWh: 20, AmountEUR: 0.4, Compliant: true},
		{Kind: EntryPenalty, Actor: "p2", OfferID: 2, KWh: 1.5, AmountEUR: -0.3},
	})
	if err != nil {
		t.Fatal(err)
	}
	second, err := l.Append([]Entry{
		{Kind: EntryShare, Actor: "p1", OfferID: 1, AmountEUR: 5},
	})
	if err != nil {
		t.Fatal(err)
	}

	if first[0].Seq != 0 || first[1].Seq != 1 || second[0].Seq != 2 {
		t.Errorf("sequence = %d,%d,%d", first[0].Seq, first[1].Seq, second[0].Seq)
	}
	if first[0].PrevHash != "" {
		t.Errorf("genesis prev = %q, want empty", first[0].PrevHash)
	}
	if first[1].PrevHash != first[0].Hash || second[0].PrevHash != first[1].Hash {
		t.Error("chain links broken across batches")
	}

	res, err := l.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK || res.Entries != 3 {
		t.Errorf("verify = %+v", res)
	}

	b, ok := l.Balance("p1")
	if !ok || math.Abs(b.NetEUR-5.4) > 1e-12 || b.Entries != 2 || b.Compliant != 1 {
		t.Errorf("p1 balance = %+v", b)
	}
	b, _ = l.Balance("p2")
	if math.Abs(b.NetEUR+0.3) > 1e-12 || b.Deviations != 1 {
		t.Errorf("p2 balance = %+v", b)
	}
	if !l.HasSettled(1) || l.HasSettled(2) {
		t.Error("settled index: offer 1 settled via line, offer 2 only penalized")
	}
}

func TestLedgerReopenRebuildsIndexes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ledger.log")
	l := openTestLedger(t, path)
	for i := 0; i < 10; i++ {
		if _, err := l.Append([]Entry{{
			Kind: EntryLine, Actor: fmt.Sprintf("p%d", i%3), OfferID: flexoffer.ID(100 + i), AmountEUR: 1, Compliant: true,
		}}); err != nil {
			t.Fatal(err)
		}
	}
	want := l.Balances()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	re := openTestLedger(t, path)
	defer re.Close()
	st := re.Stats()
	if st.Entries != 10 || st.RecoveredEntries != 10 || st.DroppedBytes != 0 {
		t.Errorf("stats after reopen = %+v", st)
	}
	got := re.Balances()
	if len(got) != len(want) {
		t.Fatalf("balances: %d actors, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("balance[%d] = %+v, want %+v", i, got[i], want[i])
		}
	}
	for i := 0; i < 10; i++ {
		if !re.HasSettled(flexoffer.ID(100 + i)) {
			t.Errorf("offer %d lost from settled index", 100+i)
		}
	}

	// The chain must continue seamlessly across the reopen.
	if _, err := re.Append([]Entry{{Kind: EntryTrade, Actor: "market", AmountEUR: -2}}); err != nil {
		t.Fatal(err)
	}
	res, err := re.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK || res.Entries != 11 {
		t.Errorf("verify after reopen+append = %+v", res)
	}
}

// frameAt returns the offset and a copy of the payload of the ledger's
// n-th frame.
func frameAt(t *testing.T, path string, n int) (off int64, payload []byte) {
	t.Helper()
	i := 0
	if _, err := store.ReplayFrames(path, LedgerMagic, func(o int64, _ byte, p []byte) error {
		if i == n {
			off, payload = o, bytes.Clone(p)
		}
		i++
		return nil
	}); err != nil || payload == nil {
		t.Fatalf("frame %d of %s: found %d frames, err %v", n, path, i, err)
	}
	return off, payload
}

// TestLedgerDetectsCorruptedEntry: the ledger never cuts evidence. An
// entry changed after the fact — whether by someone careful enough to
// fix the frame checksum, or by a bad sector that was not — is reported
// by the audit with its sequence number and offset, and makes the next
// open fail with the file left exactly as it was; the 13 entries behind
// it are not "a torn tail".
func TestLedgerDetectsCorruptedEntry(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ledger.log")
	l := openTestLedger(t, path)
	for i := 0; i < 20; i++ {
		if _, err := l.Append([]Entry{{
			Kind: EntryLine, Actor: "p", OfferID: flexoffer.ID(i), AmountEUR: float64(i), Compliant: true,
		}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	clean, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	off, payload := frameAt(t, path, 7)
	var e Entry
	prev, sum, err := decodeEntry(tagEntry, payload, &e, nil)
	if err != nil || e.Seq != 7 || e.AmountEUR != 7 {
		t.Fatalf("frame 7 decodes as %+v, %v", e, err)
	}

	// Entry 7 pays 9 instead of 7, re-framed with a valid checksum and
	// its old hash: only the content hash can catch it.
	e.AmountEUR = 9
	dst, mark := store.BeginFrame(nil, tagEntry)
	forged := store.EndFrame(append(appendBody(dst, &e, prev), sum...), mark)
	tampered := bytes.Clone(clean)
	if copy(tampered[off:], forged) != len(forged) || len(forged) != len(payload)+9 {
		t.Fatalf("forged frame is %d bytes, the original payload %d", len(forged), len(payload))
	}
	// The same entry hit by a bad sector: nothing fixed the checksum.
	rotted := bytes.Clone(clean)
	rotted[off+int64(len(forged))/2] ^= 0x40

	for _, tc := range []struct {
		name   string
		image  []byte
		reason string
		err    error
	}{
		{"forged amount", tampered, "content hash mismatch", ErrChainBroken},
		{"bit rot", rotted, "fails its checksum", store.ErrDamaged},
	} {
		if err := os.WriteFile(path, tc.image, 0o644); err != nil {
			t.Fatal(err)
		}
		res, err := VerifyFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if res.OK || res.Entries != 7 || res.FirstBadSeq != 7 || res.Offset != off || !strings.Contains(res.Reason, tc.reason) {
			t.Errorf("%s: verify = %+v, want a divergence at seq 7, offset %d (%s)", tc.name, res, off, tc.reason)
		}
		if re, err := OpenLedger(LedgerConfig{Path: path}); !errors.Is(err, tc.err) {
			if re != nil {
				re.Close()
			}
			t.Errorf("%s: OpenLedger returned %v, want %v", tc.name, err, tc.err)
		}
		if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, tc.image) {
			t.Errorf("%s: a refused open changed the file (err %v)", tc.name, err)
		}
	}
}

func TestLedgerTornTailTruncated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ledger.log")
	l := openTestLedger(t, path)
	if _, err := l.Append([]Entry{
		{Kind: EntryLine, Actor: "p", OfferID: 1, AmountEUR: 1, Compliant: true},
		{Kind: EntryLine, Actor: "p", OfferID: 2, AmountEUR: 2, Compliant: true},
	}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate a crash mid-batch: the first half of the next entry's
	// frame at the tail (TestTornTailRecovery walks every cut point).
	_, last := frameAt(t, path, 1)
	dst, mark := store.BeginFrame(nil, tagEntry)
	next := store.EndFrame(append(dst, last...), mark)
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(next[:len(next)/2]); err != nil {
		t.Fatal(err)
	}
	f.Close()

	re := openTestLedger(t, path)
	defer re.Close()
	st := re.Stats()
	if st.Entries != 2 || st.RecoveredEntries != 2 || st.DroppedBytes == 0 {
		t.Errorf("recovery stats = %+v", st)
	}
	if _, err := re.Append([]Entry{{Kind: EntryLine, Actor: "p", OfferID: 3, AmountEUR: 3}}); err != nil {
		t.Fatal(err)
	}
	res, err := re.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK || res.Entries != 3 {
		t.Errorf("verify after torn-tail recovery = %+v", res)
	}
}

// TestLedgerConcurrentAppendRace hammers Append from many goroutines
// and checks the chain stays a single verifiable total order.
func TestLedgerConcurrentAppendRace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ledger.log")
	l := openTestLedger(t, path)
	defer l.Close()

	const workers, batches, perBatch = 8, 25, 4
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			actor := fmt.Sprintf("p%d", w)
			for b := 0; b < batches; b++ {
				entries := make([]Entry, perBatch)
				for i := range entries {
					entries[i] = Entry{Kind: EntryTrade, Actor: actor, AmountEUR: 0.25}
				}
				if _, err := l.Append(entries); err != nil {
					t.Error(err)
					return
				}
				if b%5 == 0 {
					l.Balance(actor)
					l.Stats()
				}
			}
		}(w)
	}
	wg.Wait()

	res, err := l.Verify()
	if err != nil {
		t.Fatal(err)
	}
	const total = workers * batches * perBatch
	if !res.OK || res.Entries != total {
		t.Errorf("verify = %+v, want OK with %d entries", res, total)
	}
	for w := 0; w < workers; w++ {
		b, ok := l.Balance(fmt.Sprintf("p%d", w))
		if !ok || b.Entries != batches*perBatch || math.Abs(b.NetEUR-batches*perBatch*0.25) > 1e-9 {
			t.Errorf("worker %d balance = %+v", w, b)
		}
	}
}

// TestLedgerVolatile: an empty Path opens a memory-only ledger with the
// durable one's chain, index and stats behaviour.
func TestLedgerVolatile(t *testing.T) {
	l, err := OpenLedger(LedgerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	out, err := l.Append([]Entry{
		{Kind: EntryLine, Actor: "p1", OfferID: 1, AmountEUR: 0.4, Compliant: true},
		{Kind: EntryShare, Actor: "p1", OfferID: 1, AmountEUR: 5},
	})
	if err != nil || len(out) != 2 || out[1].PrevHash != out[0].Hash {
		t.Fatalf("append = %+v, %v", out, err)
	}
	if b, ok := l.Balance("p1"); !ok || math.Abs(b.NetEUR-5.4) > 1e-9 || !l.HasSettled(1) {
		t.Errorf("balance = %+v (ok=%v), settled(1) = %v", b, ok, l.HasSettled(1))
	}
	if st := l.Stats(); st.Entries != 2 || st.HeadHash != out[1].Hash {
		t.Errorf("stats = %+v, want 2 entries headed by %s", st, out[1].Hash)
	}
	if res, err := l.Verify(); err != nil || !res.OK || res.Entries != 2 {
		t.Errorf("verify = %+v, %v", res, err)
	}
	if err := l.Close(); err != nil {
		t.Errorf("close = %v", err)
	}
}

func TestLedgerEmptyAppendAndMissingFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fresh.log")
	l := openTestLedger(t, path)
	defer l.Close()
	if out, err := l.Append(nil); err != nil || out != nil {
		t.Errorf("empty append = %v, %v", out, err)
	}
	res, err := l.Verify()
	if err != nil || !res.OK || res.Entries != 0 {
		t.Errorf("verify empty ledger = %+v, %v", res, err)
	}
}
