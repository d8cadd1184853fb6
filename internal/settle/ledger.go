package settle

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"mirabel/internal/flexoffer"
	"mirabel/internal/obs"
	"mirabel/internal/store"
	"mirabel/internal/wire"
)

// EntryKind classifies one ledger entry.
type EntryKind string

// The ledger's entry kinds: everything the BRP's settlement and market
// activity produces as an auditable money or energy flow.
const (
	// EntryLine is a settlement line: the flexibility premium paid for
	// one executed flex-offer. Exactly one per settled offer — the
	// dedup anchor for idempotent re-settlement.
	EntryLine EntryKind = "line"
	// EntryPenalty charges a deviation (imbalance) penalty.
	EntryPenalty EntryKind = "penalty"
	// EntryShare distributes a slice of the BRP's realized profit.
	EntryShare EntryKind = "share"
	// EntryTrade records a market trade by the BRP.
	EntryTrade EntryKind = "trade"
	// EntryNegotiation records the outcome of a negotiation session.
	EntryNegotiation EntryKind = "negotiation"
	// EntryCancel voids one open flex-offer of a prosumer leaving
	// mid-contract, charging the cancellation penalty. Like EntryLine it
	// marks the offer settled on the chain, so a crashed cancellation
	// run never charges an offer twice.
	EntryCancel EntryKind = "cancel"
	// EntryClose zeroes a departing prosumer's net balance — the final
	// cash movement of the contract, after which the actor's NetEUR is 0.
	EntryClose EntryKind = "close"
)

// Entry is one immutable line of the settlement ledger. Hash is the
// SHA-256 of the entry's binary encoding (which includes PrevHash), so
// every entry seals the whole chain before it: flipping any byte of any
// earlier entry — or reordering entries — breaks verification from that
// point on. The JSON tags are how mirabel-inspect -dump ledger prints an
// entry; the ledger file itself holds the binary encoding only.
type Entry struct {
	Seq     uint64         `json:"seq"`
	Kind    EntryKind      `json:"kind"`
	Actor   string         `json:"actor"`
	OfferID flexoffer.ID   `json:"offer_id,omitempty"`
	Slot    flexoffer.Time `json:"slot,omitempty"`
	KWh     float64        `json:"kwh,omitempty"`
	// AmountEUR is the signed cash flow from the ledger owner (the BRP)
	// to the entry's actor: positive credits the actor, negative
	// charges them.
	AmountEUR float64 `json:"amount_eur"`
	Compliant bool    `json:"compliant,omitempty"`
	Memo      string  `json:"memo,omitempty"`
	PrevHash  string  `json:"prev"` // hex; "" on the first entry
	Hash      string  `json:"hash"` // hex
}

// LedgerMagic heads ledger.log; the last byte is the format version
// (rule in store/frame.go).
const LedgerMagic = "MRBLLGR\x01"

// The ledger is a store frame log with one frame per entry:
//
//	payload = body | hash
//	body    = Seq uvarint | Kind string | Actor string | OfferID uvarint |
//	          Slot varint | KWh float64 | AmountEUR float64 |
//	          Compliant bool | Memo string | PrevHash string
//	hash    = SHA-256(body), 32 bytes
//
// in the primitives of package wire; PrevHash is carried raw (32 bytes,
// none on the first entry). body is at once what is hashed and what is
// stored, so an audit hashes the bytes on disk — there is no second,
// "canonical" encoding to keep in step with the stored one.
const tagEntry byte = 1

// appendBody appends e's body encoding to dst; prev is the raw hash of
// the entry before (empty on the first entry), which the body carries in
// place of e.PrevHash.
func appendBody(dst []byte, e *Entry, prev []byte) []byte {
	dst = binary.AppendUvarint(dst, e.Seq)
	dst = wire.AppendString(dst, string(e.Kind))
	dst = wire.AppendString(dst, e.Actor)
	dst = binary.AppendUvarint(dst, uint64(e.OfferID))
	dst = binary.AppendVarint(dst, int64(e.Slot))
	dst = wire.AppendFloat64(dst, e.KWh)
	dst = wire.AppendFloat64(dst, e.AmountEUR)
	dst = wire.AppendBool(dst, e.Compliant)
	dst = wire.AppendString(dst, e.Memo)
	dst = binary.AppendUvarint(dst, uint64(len(prev)))
	return append(dst, prev...)
}

// decodeEntry decodes one ledger frame into e, leaving its hash fields
// alone, and returns the raw previous hash the body carries (empty on
// the first entry) and the hash the frame carries; both alias payload.
// Kind and Actor come from names (nil: fresh copies); a memo is mostly
// one of a kind, so it is always copied.
func decodeEntry(tag byte, payload []byte, e *Entry, names wire.Interner) (prev, sum []byte, err error) {
	if tag != tagEntry {
		return nil, nil, fmt.Errorf("settle: unknown ledger tag %#x", tag)
	}
	if len(payload) < sha256.Size {
		return nil, nil, fmt.Errorf("settle: decode ledger entry: %w", wire.ErrShort)
	}
	body, sum := payload[:len(payload)-sha256.Size], payload[len(payload)-sha256.Size:]
	r := wire.NewInterningReader(body, names)
	e.Seq = r.Uvarint()
	e.Kind = EntryKind(r.String())
	e.Actor = r.String()
	e.OfferID = flexoffer.ID(r.Uvarint())
	e.Slot = flexoffer.Time(r.Varint())
	e.KWh = r.Float64()
	e.AmountEUR = r.Float64()
	e.Compliant = r.Bool()
	e.Memo = string(r.Bytes())
	prev = r.Bytes()
	if len(prev) != 0 && len(prev) != sha256.Size {
		r.Fail(wire.ErrMalformed)
	}
	if err := r.Done(); err != nil {
		return nil, nil, fmt.Errorf("settle: decode ledger entry: %w", err)
	}
	return prev, sum, nil
}

// DecodeLedgerRecord decodes one ledger frame without judging it: Hash
// is the hash the frame carries, which the chain walk compares with the
// one its body actually has.
func DecodeLedgerRecord(tag byte, payload []byte) (Entry, error) {
	var e Entry
	prev, sum, err := decodeEntry(tag, payload, &e, nil)
	if err != nil {
		return Entry{}, err
	}
	e.PrevHash = hex.EncodeToString(prev)
	e.Hash = hex.EncodeToString(sum)
	return e, nil
}

// Balance is the running per-actor index the ledger maintains
// incrementally on append and rebuilds from the chain on open.
type Balance struct {
	Actor string
	// NetEUR is the actor's running net position against the BRP
	// (Σ AmountEUR over the actor's entries).
	NetEUR float64
	// Entries counts the actor's ledger entries.
	Entries int
	// Compliant counts settlement lines executed within tolerance;
	// Deviations counts penalty entries.
	Compliant  int
	Deviations int
	// LastSeq is the sequence number of the actor's latest entry.
	LastSeq uint64
}

// LedgerConfig parameterizes OpenLedger.
type LedgerConfig struct {
	// Path is the ledger file (created if missing). Empty means a
	// volatile ledger — the rule ingest.Config.Path follows: the chain,
	// balances and settled-offer index live in memory only, appends are
	// acked immediately, and nothing survives the process.
	Path string
	// Sync is the group-commit fsync policy (store.SyncFlush default).
	Sync store.SyncPolicy
}

// LedgerStats snapshots the ledger's counters.
type LedgerStats struct {
	Entries       uint64
	Actors        int
	SettledOffers int
	// HeadHash is the hash of the latest entry ("" on an empty chain):
	// it seals the whole history, so two ledgers with equal heads hold
	// identical chains.
	HeadHash string
	// Appends counts Append batches; AppendP50/P95/P99 are batch append
	// latencies (staging + group commit) since open, bucketed: each
	// reads high by at most 1/8.
	Appends             uint64
	AppendP50, P95, P99 time.Duration
	// RecoveredEntries is how many entries the last Open replayed;
	// DroppedBytes how many bytes of torn tail it cut.
	RecoveredEntries uint64
	DroppedBytes     int64
	Log              store.LogStats
}

// VerifyResult reports a chain verification walk.
type VerifyResult struct {
	// Entries verified up to the first divergence (all of them when OK).
	Entries uint64
	OK      bool
	// FirstBadSeq / Offset / Reason locate the first divergence when
	// !OK: the expected sequence number, the byte offset of the frame,
	// and what failed (decode, sequence, chain link or content hash).
	// On an intact chain Offset is where it ends.
	FirstBadSeq uint64
	Offset      int64
	Reason      string
}

// Ledger is an append-only, hash-chained settlement ledger on a
// group-committed log: concurrent appenders batch into shared fsync
// rounds, an Append return is the durability ack, and the chain of
// PrevHash links makes the history tamper-evident end to end. Per-actor
// balances and the settled-offer index are maintained incrementally and
// rebuilt from the chain on open. All methods are safe for concurrent
// use.
type Ledger struct {
	mu  sync.Mutex
	log *store.GroupLog // nil for a volatile ledger

	// head is the raw hash of entry nextSeq-1; it means nothing while the
	// chain is empty (nextSeq == 0).
	head    [sha256.Size]byte
	nextSeq uint64

	balances map[string]*Balance
	settled  map[flexoffer.ID]struct{}

	appendLat obs.Histogram // one sample (ns) per successful Append
	recovered uint64
	dropped   int64
}

// ErrChainBroken is wrapped by OpenLedger when a frame that is intact as
// written does not continue the chain.
var ErrChainBroken = errors.New("settle: ledger chain broken")

// OpenLedger opens (or creates) the ledger at cfg.Path, rebuilding the
// balance and settled-offer indexes from the chain. It never cuts
// evidence. The one thing it cuts is what a crash mid-batch leaves: a
// last frame that is short or fails its checksum (the torn-tail rule of
// store/frame.go). A frame that fails its checksum with entries behind
// it (store.ErrDamaged), or that is intact as written but does not
// decode or breaks the sequence, the chain link or its own content hash
// (ErrChainBroken), is bit rot, tampering or a bug: OpenLedger fails,
// naming the entry and offset, and leaves the file exactly as it is for
// VerifyFile and mirabel-inspect -dump ledger to read.
func OpenLedger(cfg LedgerConfig) (*Ledger, error) {
	l := &Ledger{
		balances: make(map[string]*Balance),
		settled:  make(map[flexoffer.ID]struct{}),
	}
	if cfg.Path == "" {
		return l, nil
	}
	log, cut, err := store.OpenGroupLog(cfg.Path, LedgerMagic, cfg.Sync, false, l.chainWalk())
	if err != nil {
		return nil, fmt.Errorf("settle: open ledger %s: %w", cfg.Path, err)
	}
	l.log, l.recovered, l.dropped = log, l.nextSeq, cut
	return l, nil
}

// headHash returns the raw hash the next entry links to: none on an
// empty chain.
func (l *Ledger) headHash() []byte {
	if l.nextSeq == 0 {
		return nil
	}
	return l.head[:]
}

// chainWalk returns the chain walk's ReplayFrames callback, for Open and
// for the audit alike: check one frame against the chain position
// (l.nextSeq, l.head) and apply it. The hashes are compared raw, and the
// walk owns one string table, so each actor's name is allocated once.
// Caller holds mu (or owns l exclusively, as during Open) for the whole
// walk.
func (l *Ledger) chainWalk() func(off int64, tag byte, payload []byte) error {
	names := wire.Interner{}
	return func(off int64, tag byte, payload []byte) error {
		return l.replay(off, tag, payload, names)
	}
}

func (l *Ledger) replay(off int64, tag byte, payload []byte, names wire.Interner) error {
	broken := func(reason string) error {
		return fmt.Errorf("%w at entry %d, offset %d: %s", ErrChainBroken, l.nextSeq, off, reason)
	}
	var e Entry
	prev, sum, err := decodeEntry(tag, payload, &e, names)
	if err != nil {
		return broken("undecodable entry: " + err.Error())
	}
	if e.Seq != l.nextSeq {
		return broken(fmt.Sprintf("sequence %d, want %d", e.Seq, l.nextSeq))
	}
	if !bytes.Equal(prev, l.headHash()) {
		return broken("chain link does not match previous hash")
	}
	if got := sha256.Sum256(payload[:len(payload)-sha256.Size]); !bytes.Equal(got[:], sum) {
		return broken("content hash mismatch")
	}
	copy(l.head[:], sum)
	l.applyEntry(&e)
	return nil
}

// applyEntry advances the sequence and the incremental indexes by one
// verified entry; the caller moves the head hash. Caller holds mu (or
// owns l exclusively).
func (l *Ledger) applyEntry(e *Entry) {
	l.nextSeq = e.Seq + 1
	if e.Kind == EntryLine || e.Kind == EntryCancel {
		l.settled[e.OfferID] = struct{}{}
	}
	b := l.balances[e.Actor]
	if b == nil {
		b = &Balance{Actor: e.Actor}
		l.balances[e.Actor] = b
	}
	b.NetEUR += e.AmountEUR
	b.Entries++
	b.LastSeq = e.Seq
	switch e.Kind {
	case EntryLine:
		if e.Compliant {
			b.Compliant++
		}
	case EntryPenalty, EntryCancel:
		b.Deviations++
	}
}

// Append seals the entries onto the chain — assigning Seq, PrevHash and
// Hash in order — and commits them to the log as one WAL group. The
// return is the durability ack: per the fsync policy, the batch is on
// disk when Append comes back, and only then may dependent state (offer
// transitions) move. The returned entries carry their assigned chain
// fields.
func (l *Ledger) Append(entries []Entry) ([]Entry, error) {
	if len(entries) == 0 {
		return nil, nil
	}
	start := time.Now()
	l.mu.Lock()
	defer l.mu.Unlock()
	// One pooled buffer takes the batch's frames back to back. frames[i]
	// stays valid when a later append grows the buffer: growing copies.
	buf := wire.GetBuf()
	defer wire.PutBuf(buf)
	frames := make([][]byte, len(entries))
	seq, head := l.nextSeq, l.head
	prev, prevHex := l.headHash(), hex.EncodeToString(l.headHash())
	for i := range entries {
		e := &entries[i]
		e.Seq, e.PrevHash = seq, prevHex
		dst, mark := store.BeginFrame(*buf, tagEntry)
		body := len(dst)
		dst = appendBody(dst, e, prev)
		head = sha256.Sum256(dst[body:])
		*buf = store.EndFrame(append(dst, head[:]...), mark)
		frames[i] = (*buf)[mark:]
		e.Hash = hex.EncodeToString(head[:])
		prev, prevHex = head[:], e.Hash // read by the next body before head moves
		seq++
	}
	// The chain order must equal the file order, so the group commit
	// happens under the ledger lock: batches — not single entries — are
	// the append throughput unit.
	if l.log != nil {
		if err := l.log.Append(frames); err != nil {
			return nil, fmt.Errorf("settle: append ledger batch: %w", err)
		}
	}
	for i := range entries {
		l.applyEntry(&entries[i])
	}
	l.head = head
	l.appendLat.Record(int64(time.Since(start)))
	return entries, nil
}

// HasSettled reports whether the chain already holds the settlement
// line of the given offer — the idempotency anchor for re-settlement
// after a crash.
func (l *Ledger) HasSettled(id flexoffer.ID) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	_, ok := l.settled[id]
	return ok
}

// Balance returns the running per-actor index entry; ok is false for an
// actor without ledger entries.
func (l *Ledger) Balance(actor string) (Balance, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	b, ok := l.balances[actor]
	if !ok {
		return Balance{}, false
	}
	return *b, true
}

// Balances lists every actor's balance, sorted by actor.
func (l *Ledger) Balances() []Balance {
	l.mu.Lock()
	out := make([]Balance, 0, len(l.balances))
	for _, b := range l.balances {
		out = append(out, *b)
	}
	l.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Actor < out[j].Actor })
	return out
}

// Stats snapshots the ledger's counters.
func (l *Ledger) Stats() LedgerStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := LedgerStats{
		Entries:          l.nextSeq,
		Actors:           len(l.balances),
		SettledOffers:    len(l.settled),
		HeadHash:         hex.EncodeToString(l.headHash()),
		Appends:          l.appendLat.Count(),
		AppendP50:        time.Duration(l.appendLat.Quantile(0.50)),
		P95:              time.Duration(l.appendLat.Quantile(0.95)),
		P99:              time.Duration(l.appendLat.Quantile(0.99)),
		RecoveredEntries: l.recovered,
		DroppedBytes:     l.dropped,
	}
	if l.log != nil {
		s.Log = l.log.Stats()
	}
	return s
}

// Verify re-walks the whole chain from disk and reports the first
// divergence, if any. It is the audit operation: the walk recomputes
// every content hash and re-checks every chain link against the bytes
// actually on disk, holding the ledger lock so the chain is a
// consistent point-in-time snapshot (appends wait). A volatile ledger
// has no bytes to audit: its chain exists only as the state Append
// itself sealed, which Verify reports as intact.
func (l *Ledger) Verify() (VerifyResult, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.log == nil {
		return VerifyResult{Entries: l.nextSeq, OK: true}, nil
	}
	if err := l.log.Sync(); err != nil {
		return VerifyResult{}, err
	}
	return VerifyFile(l.log.Path())
}

// VerifyFile verifies the hash chain of a ledger file without opening
// it for appends — the offline audit used by tooling. A torn tail is not
// a divergence: the chain is intact up to it.
func VerifyFile(path string) (VerifyResult, error) {
	walk := &Ledger{balances: make(map[string]*Balance), settled: make(map[flexoffer.ID]struct{})}
	end, err := store.ReplayFrames(path, LedgerMagic, walk.chainWalk())
	res := VerifyResult{Entries: walk.nextSeq, OK: err == nil, Offset: end}
	if errors.Is(err, ErrChainBroken) || errors.Is(err, store.ErrDamaged) {
		// The divergence is the result, not a failure to audit.
		res.FirstBadSeq, res.Reason, err = walk.nextSeq, err.Error(), nil
	}
	return res, err
}

// Close flushes, fsyncs and closes the ledger. Further appends to a
// durable ledger fail.
func (l *Ledger) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.log == nil {
		return nil
	}
	return l.log.Close()
}
