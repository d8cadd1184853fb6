package settle

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// encodeEntry is the inverse of DecodeLedgerRecord: the body encoding
// followed by the hash the entry carries.
func encodeEntry(t *testing.T, e *Entry) []byte {
	t.Helper()
	sum, err := hex.DecodeString(e.Hash)
	if err != nil || len(sum) != sha256.Size {
		t.Fatalf("decoded entry carries hash %q", e.Hash)
	}
	return append(appendBody(nil, e), sum...)
}

// FuzzDecodeLedgerEntry: whatever bytes a ledger frame holds, the
// decoder neither panics nor builds a string a length prefix promised
// but the input did not deliver, and what it accepts survives a round
// trip through the encoder unchanged. The in-repo corpus
// (testdata/fuzz) pins the inputs that need a specific check to refuse.
func FuzzDecodeLedgerEntry(f *testing.F) {
	first := Entry{Kind: EntryLine, Actor: "p1", OfferID: 7, Slot: 480, KWh: 20, AmountEUR: 0.4, Compliant: true}
	body := appendBody(nil, &first)
	sum := sha256.Sum256(body)
	first.Hash = hex.EncodeToString(sum[:])
	second := Entry{Seq: 1, Kind: EntryClose, Actor: "household-17", AmountEUR: -3.25, Memo: "left mid-contract", PrevHash: first.Hash, Hash: first.Hash}
	f.Add(tagEntry, append(body, sum[:]...))
	f.Add(tagEntry, append(appendBody(nil, &second), sum[:]...))
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
