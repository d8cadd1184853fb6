package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"mirabel/internal/flexoffer"
	"mirabel/internal/wire"
)

// ErrUnknownOffer is wrapped by an UpdateOffers result when no record
// exists for the given ID. Match with errors.Is.
var ErrUnknownOffer = errors.New("store: unknown offer")

// ErrReadOnly is returned by every mutator of a store opened with
// OpenReadOnly.
var ErrReadOnly = errors.New("store: read-only")

// SyncPolicy selects when logged records are fsynced to stable storage.
type SyncPolicy int

const (
	// SyncFlush (the default) flushes every group commit to the OS but
	// fsyncs only on Close: a crash of the process loses nothing, a crash
	// of the machine can lose the tail since the last fsync. This is the
	// seed engine's behaviour, made explicit.
	SyncFlush SyncPolicy = iota
	// SyncAlways fsyncs every group commit: machine-crash durable, one
	// fsync amortized over all writers in the group.
	SyncAlways
	// SyncInterval fsyncs in the background every 100ms: bounded
	// machine-crash loss window at near SyncFlush throughput.
	SyncInterval
)

// Option configures Open.
type Option func(*options)

type options struct {
	policy SyncPolicy
}

// WithSyncPolicy selects the WAL fsync policy.
func WithSyncPolicy(p SyncPolicy) Option {
	return func(o *options) { o.policy = p }
}

// Store is the node-local store of the two fact tables the node writes:
// flex-offer records and measurements. All methods are safe for
// concurrent use. A Store opened with a directory is durable (a
// write-ahead log); NewInMemory gives a volatile store for simulations.
//
// Internally the offer table keeps its records in per-stripe slabs
// behind a pointer-free ID → slot index (shard.go) and carries a
// by-state secondary index; measurements are clustered into
// per-(actor, energy type) slot-sorted series (index.go). So the hot
// queries read only matching rows, and a writer that holds a record's
// Slot reaches it without a look-up. Durable writers append through a
// group committer (wal.go) while holding only their stripe's or
// series' lock.
type Store struct {
	readOnly bool
	w        *GroupLog
	handoff  func(Intake) // a volatile store's intake handoff; see SetIntakeHandoff

	offers   *shardedTable[flexoffer.ID, OfferRecord]
	meas     *measurementIndex
	offerIdx *offerIndex

	pruneMu sync.Mutex // one retention sweep at a time
}

func newStore() *Store {
	return &Store{
		offers:   newShardedTable[flexoffer.ID, OfferRecord](hashOfferID),
		meas:     newMeasurementIndex(),
		offerIdx: newOfferIndex(),
	}
}

// NewInMemory returns a volatile store (no durability), used by
// simulations and tests.
func NewInMemory() *Store { return newStore() }

// Open loads (or creates) a durable store in dir by replaying its WAL.
// A log in another format fails recovery (ErrLogFormat) with its file
// untouched, and so does an ingest journal an older build left in dir.
func Open(dir string, opts ...Option) (*Store, error) {
	var o options
	for _, opt := range opts {
		opt(&o)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: create dir: %w", err)
	}
	if err := refuseLegacyJournal(dir); err != nil {
		return nil, err
	}
	s := newStore()
	rp := s.startReplay(WALPath(dir))
	log, _, err := OpenGroupLog(WALPath(dir), WALMagic, o.policy, true, rp.frame)
	rp.finish()
	if err != nil {
		return nil, err
	}
	s.offerIdx.build(s.offers)
	s.w = log
	return s, nil
}

// legacyJournals are the ingest journal's files in a node directory of a
// build that acked intake there before logging it to the WAL.
var legacyJournals = [...]string{"ingest.log.old", "ingest.log"}

// refuseLegacyJournal fails when dir holds a non-empty ingest journal:
// its acked events may exist nowhere else, and no reader of this build
// replays them. The file is left as it is.
func refuseLegacyJournal(dir string) error {
	for _, name := range legacyJournals {
		path := filepath.Join(dir, name)
		if fi, err := os.Stat(path); err == nil && fi.Size() > 0 {
			return fmt.Errorf("%w: %s is an ingest journal of an older build and may hold acked events the WAL lacks; replay it with that build", ErrLogFormat, path)
		}
	}
	return nil
}

// OpenReadOnly loads an existing durable store without creating,
// appending to or truncating anything on disk: the inspection mode.
// It fails if dir does not exist or holds no store artifacts (so
// inspecting a mistyped path reports the mistake instead of fabricating
// an empty store), and every mutator returns ErrReadOnly.
func OpenReadOnly(dir string) (*Store, error) {
	fi, err := os.Stat(dir)
	if err != nil {
		return nil, fmt.Errorf("store: open read-only: %w", err)
	}
	if !fi.IsDir() {
		return nil, fmt.Errorf("store: open read-only: %s is not a directory", dir)
	}
	if _, err := os.Stat(WALPath(dir)); err != nil {
		return nil, fmt.Errorf("store: open read-only: no store artifacts in %s", dir)
	}
	if err := refuseLegacyJournal(dir); err != nil {
		return nil, err
	}
	s := newStore()
	s.readOnly = true
	rp := s.startReplay(WALPath(dir))
	_, err = ReplayFrames(WALPath(dir), WALMagic, rp.frame)
	rp.finish()
	if err != nil && !errors.Is(err, ErrDamaged) {
		return nil, err
	}
	s.offerIdx.build(s.offers)
	return s, nil
}

// Close flushes and closes the WAL. The store must not be used after.
func (s *Store) Close() error {
	if s.w == nil {
		return nil
	}
	return s.w.Close()
}

// WALStats reports the group committer's record/group/fsync counters
// (zero for in-memory and read-only stores).
func (s *Store) WALStats() LogStats {
	if s.w == nil {
		return LogStats{}
	}
	return s.w.Stats()
}

// applyPut is the lock-taking, log-free upsert used by recovery. It
// leaves the offer index alone: recovery builds it once, when the
// last file is in.
func applyPut[K comparable, V any](t *shardedTable[K, V], k K, v V) {
	st := &t.stripes[t.stripeOf(k)]
	st.mu.Lock()
	t.put(k, v)
	st.mu.Unlock()
}

// applyIfAbsent is applyPut for a key no record holds yet: a record
// already there stays.
func applyIfAbsent[K comparable, V any](t *shardedTable[K, V], k K, v V) {
	st := &t.stripes[t.stripeOf(k)]
	st.mu.Lock()
	if _, had := st.ids[k]; !had {
		t.put(k, v)
	}
	st.mu.Unlock()
}

// applyMeasurement inserts one measurement into its series (log-free).
func (s *Store) applyMeasurement(m Measurement) {
	ss := s.meas.ensure(seriesKey{m.Actor, m.EnergyType})
	ss.mu.Lock()
	ss.insertLocked(m.Slot, m.KWh)
	ss.mu.Unlock()
}

// commitLogged commits the prune sweep's frame and recycles its
// buffer; a nil frame (volatile store) is a no-op.
func (s *Store) commitLogged(buf *[]byte) error {
	if buf == nil {
		return nil
	}
	_, err := s.w.commit([][]byte{*buf}, 1, nil)
	wire.PutBuf(buf)
	return err
}

// --- intake ----------------------------------------------------------

// Intake is one acked intake event: an offer record or a batch of meter
// readings. Exactly one of Offer and Meas is set.
type Intake struct {
	Offer *OfferRecord
	Meas  []Measurement
	// Slot is where ApplyIntake puts the offer record: the slot
	// AppendIntake reserved for it when its group was written. With
	// NoSlot (an event built by hand) the record is put by ID.
	Slot Slot
}

// SetIntakeHandoff names the function AppendIntake hands each acked
// event to. Set it once, before the first AppendIntake.
func (s *Store) SetIntakeHandoff(fn func(Intake)) {
	s.handoff = fn
	if s.w != nil {
		s.w.handoff = s.acked
	}
}

// acked places an acked event — it reserves the slot its offer record
// will be applied into — and hands it to the intake handoff. The WAL's
// group leader calls it in log order, the order a replay fills the
// slabs in.
func (s *Store) acked(ev *Intake) {
	if ev.Offer != nil {
		ev.Slot = s.offers.reserve(ev.Offer.Offer.ID)
	}
	s.handoff(*ev)
}

// AppendIntake is the durability ack of an intake event: it appends ev's
// WAL frames (AppendIntakeFrames) through the group committer and
// returns once they are written under the store's SyncPolicy. Nothing is
// applied to the tables here. When the group holding ev is written
// without error, its leader reserves the slot of ev's offer record and
// hands ev to the intake handoff — in log order across every appender,
// and before AppendIntake returns — so the handoff's consumer can apply
// acked events in the order a replay will (ApplyIntake); an event whose
// write failed takes no slot and is never handed off. A volatile store,
// having no log, does both at once. Table writers that share a key with
// acked but unapplied events must wait for those to apply first (the
// node's intake barrier), or memory order and log order part.
func (s *Store) AppendIntake(ev Intake) error {
	_, err := s.appendIntake(ev)
	return err
}

// AppendOffer is AppendIntake for one offer record. It returns the Slot
// the record will live in once applied, for OfferUpdate.Slot.
func (s *Store) AppendOffer(rec *OfferRecord) (Slot, error) {
	return s.appendIntake(Intake{Offer: rec})
}

func (s *Store) appendIntake(ev Intake) (Slot, error) {
	if s.readOnly {
		return NoSlot, ErrReadOnly
	}
	if s.w == nil {
		s.acked(&ev)
		return ev.Slot, nil
	}
	buf := wire.GetBuf()
	var records int
	*buf, records = AppendIntakeFrames(*buf, &ev)
	slot, err := s.w.commit([][]byte{*buf}, records, &ev)
	wire.PutBuf(buf)
	return slot, err
}

// ApplyIntake applies acked intake events to the tables in the given
// order — the log order the handoff delivered — and logs nothing, since
// AppendIntake logged them at the ack. An offer is upserted into its
// Slot, except that a rejected record is stored only if no record holds
// its ID, the rule the offers_if_absent frame replays under: then the
// stored record keeps its slot and the rejected one's stays empty.
// Facts are upserted.
func (s *Store) ApplyIntake(evs []Intake) {
	for i := range evs {
		ev := &evs[i]
		if ev.Offer == nil {
			for _, m := range ev.Meas {
				s.applyMeasurement(m)
			}
			continue
		}
		rec := *ev.Offer
		id := rec.Offer.ID
		st := &s.offers.stripes[s.offers.stripeOf(id)]
		st.mu.Lock()
		if _, had := st.ids[id]; !had || rec.State != OfferRejected {
			old, had := s.offers.place(id, rec, ev.Slot)
			s.offerIdx.update(id, old, had, rec)
		}
		st.mu.Unlock()
	}
}

// GetOffer returns a flex-offer record by ID.
func (s *Store) GetOffer(id flexoffer.ID) (OfferRecord, bool) {
	return s.offers.get(id)
}

// PruneMeasurements drops every measurement with Slot < before — the
// retention sweep that keeps long-running nodes' fact tables bounded.
// The sweep is WAL-logged (one record) and returns how many facts fell.
// While the prune record commits, all measurement series are locked:
// the sweep is a short stop-the-measurement-world, which is what makes
// a replayed log converge to the swept state.
func (s *Store) PruneMeasurements(before flexoffer.Time) (int, error) {
	if s.readOnly {
		return 0, ErrReadOnly
	}
	s.pruneMu.Lock()
	defer s.pruneMu.Unlock()
	var frame *[]byte
	if s.w != nil {
		frame = wire.GetBuf()
		*frame = appendPruneFrame(*frame, before)
	}
	// Freeze series creation, then take every series in creation order.
	// Every other writer holds one series lock at a time, so the sweep
	// cannot deadlock with them.
	s.meas.mu.RLock()
	defer s.meas.mu.RUnlock()
	series := make([]*slotSeries, 0, len(s.meas.series))
	for _, ss := range s.meas.series {
		series = append(series, ss)
	}
	sortSeriesByID(series)
	for _, ss := range series {
		ss.mu.Lock()
	}
	defer func() {
		for i := len(series) - 1; i >= 0; i-- {
			series[i].mu.Unlock()
		}
	}()
	if err := s.commitLogged(frame); err != nil {
		return 0, err
	}
	n := 0
	for _, ss := range series {
		n += ss.pruneLocked(before)
	}
	return n, nil
}
