package settle

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// encodeEntry is the inverse of DecodeLedgerRecord: the body encoding,
// over the raw form of the previous hash the entry names, followed by
// the hash the entry carries.
func encodeEntry(t *testing.T, e *Entry) []byte {
	t.Helper()
	prev, err := hex.DecodeString(e.PrevHash)
	if err != nil || (len(prev) != 0 && len(prev) != sha256.Size) {
		t.Fatalf("decoded entry carries previous hash %q", e.PrevHash)
	}
	sum, err := hex.DecodeString(e.Hash)
	if err != nil || len(sum) != sha256.Size {
		t.Fatalf("decoded entry carries hash %q", e.Hash)
	}
	return append(appendBody(nil, e, prev), sum...)
}

// FuzzDecodeLedgerEntry: whatever bytes a ledger frame holds, the
// decoder neither panics nor builds a string a length prefix promised
// but the input did not deliver, and what it accepts survives a round
// trip through the raw-hash encoder unchanged. The in-repo corpus
// (testdata/fuzz) pins the inputs that need a specific check to refuse.
func FuzzDecodeLedgerEntry(f *testing.F) {
	first := Entry{Kind: EntryLine, Actor: "p1", OfferID: 7, Slot: 480, KWh: 20, AmountEUR: 0.4, Compliant: true}
	body := appendBody(nil, &first, nil)
	sum := sha256.Sum256(body)
	second := Entry{Seq: 1, Kind: EntryClose, Actor: "household-17", AmountEUR: -3.25, Memo: "left mid-contract"}
	f.Add(tagEntry, append(body, sum[:]...))
	f.Add(tagEntry, append(appendBody(nil, &second, sum[:]), sum[:]...))
	f.Add(tagEntry, body[:len(body)/2])
	f.Add(byte(0x81), append(body, sum[:]...))
	f.Fuzz(func(t *testing.T, tag byte, payload []byte) {
		e, err := DecodeLedgerRecord(tag, payload)
		if err != nil {
			return
		}
		if size := len(e.Kind) + len(e.Actor) + len(e.Memo) + len(e.PrevHash)/2 + len(e.Hash)/2; size > len(payload) {
			t.Fatalf("entry of %d content bytes decoded from %d input bytes", size, len(payload))
		}
		again, err := DecodeLedgerRecord(tag, encodeEntry(t, &e))
		if err != nil {
			t.Fatalf("re-encoded entry %+v does not decode: %v", e, err)
		}
		// Compare encodings, not structs: NaN amounts are legal bytes.
		if !bytes.Equal(encodeEntry(t, &again), encodeEntry(t, &e)) {
			t.Fatalf("round trip changed the entry: %+v → %+v", e, again)
		}
	})
}
