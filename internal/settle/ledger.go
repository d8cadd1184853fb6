package settle

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"sync"
	"time"

	"mirabel/internal/flexoffer"
	"mirabel/internal/store"
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
// SHA-256 of the entry's canonical encoding (which includes PrevHash),
// so every entry seals the whole chain before it: flipping any byte of
// any earlier entry — or reordering entries — breaks verification from
// that point on.
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
	PrevHash  string  `json:"prev"`
	Hash      string  `json:"hash"`
}

// appendCanonical builds the deterministic byte encoding the hash
// covers: every field except Hash itself, strings length-prefixed so no
// crafted value can shift bytes across field boundaries.
func appendCanonical(buf []byte, e *Entry) []byte {
	buf = append(buf, '|')
	buf = strconv.AppendUint(buf, e.Seq, 10)
	buf = appendCanonString(buf, string(e.Kind))
	buf = appendCanonString(buf, e.Actor)
	buf = append(buf, '|')
	buf = strconv.AppendUint(buf, uint64(e.OfferID), 10)
	buf = append(buf, '|')
	buf = strconv.AppendInt(buf, int64(e.Slot), 10)
	buf = append(buf, '|')
	buf = strconv.AppendUint(buf, math.Float64bits(e.KWh), 16)
	buf = append(buf, '|')
	buf = strconv.AppendUint(buf, math.Float64bits(e.AmountEUR), 16)
	if e.Compliant {
		buf = append(buf, '|', '1')
	} else {
		buf = append(buf, '|', '0')
	}
	buf = appendCanonString(buf, e.Memo)
	buf = appendCanonString(buf, e.PrevHash)
	return buf
}

func appendCanonString(buf []byte, s string) []byte {
	buf = append(buf, '|')
	buf = strconv.AppendInt(buf, int64(len(s)), 10)
	buf = append(buf, ':')
	return append(buf, s...)
}

// entryHash computes the hex SHA-256 of the entry's canonical encoding.
func entryHash(e *Entry, scratch []byte) (string, []byte) {
	scratch = appendCanonical(scratch[:0], e)
	sum := sha256.Sum256(scratch)
	return hex.EncodeToString(sum[:]), scratch
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
	// Sync is the group-commit fsync policy (store.SyncFlush default);
	// SyncInterval is the cadence under store.SyncInterval.
	Sync         store.SyncPolicy
	SyncInterval time.Duration
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
	// latencies (staging + group commit) over a sliding window.
	Appends             uint64
	AppendP50, P95, P99 time.Duration
	// RecoveredEntries is how many entries the last Open replayed;
	// DroppedBytes how many trailing bytes (torn or divergent) it cut.
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
	// !OK: the expected sequence number, the byte offset of the line,
	// and what failed (decode, sequence, chain link or content hash).
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

	lastHash string
	nextSeq  uint64

	balances map[string]*Balance
	settled  map[flexoffer.ID]struct{}

	appends   uint64
	latRing   [512]time.Duration
	latCount  int
	recovered uint64
	dropped   int64

	scratch []byte
}

var errStopReplay = errors.New("settle: stop replay")

// OpenLedger opens (or creates) the ledger at cfg.Path, rebuilding the
// balance and settled-offer indexes from the chain. Recovery mirrors
// the ingest journal: the intact prefix — every entry whose decode,
// sequence, chain link and content hash check out — is kept, and
// everything after the first divergence (a torn tail from a crash
// mid-batch, or trailing corruption) is cut off so new appends never
// land behind a broken link.
func OpenLedger(cfg LedgerConfig) (*Ledger, error) {
	l := &Ledger{
		balances: make(map[string]*Balance),
		settled:  make(map[flexoffer.ID]struct{}),
	}
	if cfg.Path == "" {
		return l, nil
	}
	intact, err := store.ReplayLines(cfg.Path, func(line []byte) error {
		e, _, ok := l.checkNext(line)
		if !ok {
			return errStopReplay
		}
		l.applyEntry(e)
		return nil
	})
	if err != nil && !errors.Is(err, errStopReplay) {
		return nil, err
	}
	l.recovered = l.nextSeq
	if fi, serr := os.Stat(cfg.Path); serr == nil && fi.Size() > intact {
		l.dropped = fi.Size() - intact
		if terr := os.Truncate(cfg.Path, intact); terr != nil {
			return nil, fmt.Errorf("settle: truncate broken ledger tail: %w", terr)
		}
	}
	log, err := store.OpenGroupLog(cfg.Path, "", cfg.Sync, cfg.SyncInterval) // headerless: the hash chain is its own format check
	if err != nil {
		return nil, err
	}
	l.log = log
	return l, nil
}

// checkNext validates one line against the chain position (l.nextSeq,
// l.lastHash) without applying it. Caller holds mu (or owns l
// exclusively, as during Open).
func (l *Ledger) checkNext(line []byte) (*Entry, string, bool) {
	var e Entry
	if err := json.Unmarshal(line, &e); err != nil {
		return nil, "undecodable entry", false
	}
	if e.Seq != l.nextSeq {
		return nil, fmt.Sprintf("sequence %d, want %d", e.Seq, l.nextSeq), false
	}
	if e.PrevHash != l.lastHash {
		return nil, "chain link does not match previous hash", false
	}
	var h string
	h, l.scratch = entryHash(&e, l.scratch)
	if h != e.Hash {
		return nil, "content hash mismatch", false
	}
	return &e, "", true
}

// applyEntry advances the chain state and the incremental indexes by
// one verified entry. Caller holds mu (or owns l exclusively).
func (l *Ledger) applyEntry(e *Entry) {
	l.lastHash = e.Hash
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
	lines := make([][]byte, len(entries))
	prev, seq := l.lastHash, l.nextSeq
	for i := range entries {
		e := &entries[i]
		e.Seq = seq
		e.PrevHash = prev
		e.Hash, l.scratch = entryHash(e, l.scratch)
		data, err := json.Marshal(e)
		if err != nil {
			return nil, fmt.Errorf("settle: marshal ledger entry: %w", err)
		}
		lines[i] = append(data, '\n')
		prev = e.Hash
		seq++
	}
	// The chain order must equal the file order, so the group commit
	// happens under the ledger lock: batches — not single entries — are
	// the append throughput unit.
	if l.log != nil {
		if err := l.log.Append(lines); err != nil {
			return nil, fmt.Errorf("settle: append ledger batch: %w", err)
		}
	}
	for i := range entries {
		l.applyEntry(&entries[i])
	}
	l.appends++
	l.latRing[l.latCount%len(l.latRing)] = time.Since(start)
	l.latCount++
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
		HeadHash:         l.lastHash,
		Appends:          l.appends,
		RecoveredEntries: l.recovered,
		DroppedBytes:     l.dropped,
	}
	if l.log != nil {
		s.Log = l.log.Stats()
	}
	n := l.latCount
	if n > len(l.latRing) {
		n = len(l.latRing)
	}
	if n > 0 {
		lats := append([]time.Duration(nil), l.latRing[:n]...)
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		s.AppendP50 = lats[n/2]
		s.P95 = lats[n*95/100]
		s.P99 = lats[n*99/100]
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
// it for appends — the offline audit used by tooling.
func VerifyFile(path string) (VerifyResult, error) {
	res := VerifyResult{OK: true}
	walk := &Ledger{} // chain cursor only; indexes stay nil
	walk.balances = make(map[string]*Balance)
	walk.settled = make(map[flexoffer.ID]struct{})
	end, err := store.ReplayLines(path, func(line []byte) error {
		e, reason, ok := walk.checkNext(line)
		if !ok {
			res.OK = false
			res.FirstBadSeq = walk.nextSeq
			res.Reason = reason
			return errStopReplay
		}
		walk.applyEntry(e)
		res.Entries++
		return nil
	})
	res.Offset = end
	if err != nil && !errors.Is(err, errStopReplay) {
		return res, err
	}
	return res, nil
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
