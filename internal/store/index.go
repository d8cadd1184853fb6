package store

import (
	"math/bits"
	"sort"
	"sync"

	"mirabel/internal/flexoffer"
)

// --- offer secondary indexes -------------------------------------------

// offerIndex maintains the secondary index over the offer fact table:
// state → ids. Offers, CountOffersByState and the settlement sweep read
// only the matching ids instead of scanning every offer record.
//
// The index is updated while the offer's table stripe is write-locked
// (stripe lock → index lock, never the reverse), so an index hit always
// refers to a record that existed at some point; readers re-check the
// filter against the record they fetch, which absorbs the brief window
// between releasing the index lock and locking the record's stripe.
type offerIndex struct {
	mu      sync.RWMutex
	byState map[OfferState]*idSet
}

func newOfferIndex() *offerIndex {
	return &offerIndex{byState: make(map[OfferState]*idSet)}
}

// set returns state's id set, creating it on first use. Caller holds mu.
func (ix *offerIndex) set(state OfferState) *idSet {
	s := ix.byState[state]
	if s == nil {
		s = &idSet{words: make(map[flexoffer.ID]uint64)}
		ix.byState[state] = s
	}
	return s
}

// update moves id between state sets after an upsert: an update that
// keeps the state does not take the index lock. Caller holds the
// offer's stripe write lock.
func (ix *offerIndex) update(id flexoffer.ID, old OfferRecord, had bool, now OfferRecord) {
	if had && old.State == now.State {
		return
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if had {
		ix.set(old.State).remove(id)
	}
	ix.set(now.State).add(id)
}

// move records the state transitions of an applied UpdateOffers batch
// under one index lock, resolving the from/to sets once per run of
// equal state pairs and moving the ids of a run that share a set word
// together. Caller holds the write locks of every stripe the changed
// ids live on.
func (ix *offerIndex) move(changes []offerChange) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	var (
		fromState, toState OfferState
		from, to           *idSet
		word               flexoffer.ID
		mask               uint64 // the ids of word still to move
	)
	flush := func() {
		if mask != 0 {
			from.removeWord(word, mask)
			to.addWord(word, mask)
			mask = 0
		}
	}
	for i := range changes {
		c := &changes[i]
		if c.prev.State == c.now {
			continue
		}
		if to == nil || c.prev.State != fromState || c.now != toState {
			flush()
			fromState, toState = c.prev.State, c.now
			from, to = ix.set(fromState), ix.set(toState)
		}
		if w := c.id >> 6; w != word {
			flush()
			word = w
		}
		mask |= 1 << (c.id & 63)
	}
	flush()
}

// build fills the empty index from the offers table in one pass. The
// recovery paths apply records without touching the index — only the
// final state of each offer matters — and call build once, after the
// last file, before the store is shared.
func (ix *offerIndex) build(offers *shardedTable[flexoffer.ID, OfferRecord]) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	offers.scan(func(id flexoffer.ID, r OfferRecord) {
		ix.set(r.State).add(id)
	})
}

// idsByState copies the ids currently recorded in state.
func (ix *offerIndex) idsByState(state OfferState) []flexoffer.ID {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	s := ix.byState[state]
	if s == nil {
		return nil
	}
	out := make([]flexoffer.ID, 0, s.n)
	for w, word := range s.words {
		for ; word != 0; word &= word - 1 {
			out = append(out, w<<6|flexoffer.ID(bits.TrailingZeros64(word)))
		}
	}
	return out
}

// countByState reads the per-state cardinalities straight off the
// index: O(states), not O(offers).
func (ix *offerIndex) countByState() map[OfferState]int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	out := make(map[OfferState]int, len(ix.byState))
	for state, s := range ix.byState {
		if s.n > 0 {
			out[state] = s.n
		}
	}
	return out
}

// idSet is a sparse bitset of offer ids: one map word per 64 consecutive
// ids. A node's offers arrive with runs of nearby ids, so a batch that
// moves thousands of them between states touches a few hundred words of
// a state's set, not thousands of entries of a map keyed by id.
type idSet struct {
	words map[flexoffer.ID]uint64 // id>>6 → bit id&63
	n     int
}

func (s *idSet) add(id flexoffer.ID) { s.addWord(id>>6, 1<<(id&63)) }

// addWord adds the ids whose bits are set in mask to word w.
func (s *idSet) addWord(w flexoffer.ID, mask uint64) {
	old := s.words[w]
	if fresh := mask &^ old; fresh != 0 {
		s.words[w] = old | mask
		s.n += bits.OnesCount64(fresh)
	}
}

func (s *idSet) has(id flexoffer.ID) bool {
	return s.words[id>>6]&(uint64(1)<<(id&63)) != 0
}

func (s *idSet) remove(id flexoffer.ID) { s.removeWord(id>>6, 1<<(id&63)) }

// removeWord removes the ids whose bits are set in mask from word w.
func (s *idSet) removeWord(w flexoffer.ID, mask uint64) {
	old := s.words[w]
	gone := old & mask
	switch {
	case gone == 0:
	case gone == old:
		delete(s.words, w)
	default:
		s.words[w] = old &^ mask
	}
	s.n -= bits.OnesCount64(gone)
}

// --- measurement series storage ----------------------------------------

// seriesKey is the dimension pair a measurement series hangs off.
type seriesKey struct {
	Actor      string
	EnergyType string
}

// slotSeries holds one (actor, energy type) measurement series as two
// parallel slices kept sorted by slot — the clustered layout behind
// Measurements. A slot-range query is a binary search plus a contiguous
// copy: cost scales with the result, not with the fact table.
//
// Meter streams arrive in slot order, so the insert fast path is an
// append; backdated corrections pay one memmove.
type slotSeries struct {
	key seriesKey
	// id is the series' creation sequence number: unique and stable, so
	// the prune sweep, which locks every series, takes them in one total
	// order.
	id uint64

	mu    sync.RWMutex
	slots []flexoffer.Time // sorted ascending, unique
	kwh   []float64        // kwh[i] is the value at slots[i]
}

// insertLocked upserts one value. Caller holds mu.
func (ss *slotSeries) insertLocked(slot flexoffer.Time, kwh float64) {
	n := len(ss.slots)
	if n == 0 || slot > ss.slots[n-1] { // in-order meter stream
		ss.slots = append(ss.slots, slot)
		ss.kwh = append(ss.kwh, kwh)
		return
	}
	i := sort.Search(n, func(j int) bool { return ss.slots[j] >= slot })
	if i < n && ss.slots[i] == slot { // upsert (meter correction)
		ss.kwh[i] = kwh
		return
	}
	ss.slots = append(ss.slots, 0)
	ss.kwh = append(ss.kwh, 0)
	copy(ss.slots[i+1:], ss.slots[i:])
	copy(ss.kwh[i+1:], ss.kwh[i:])
	ss.slots[i] = slot
	ss.kwh[i] = kwh
}

// rangeLocked returns the index bounds [lo, hi) of the half-open slot
// window [from, to); to == 0 means unbounded. Caller holds mu (read).
func (ss *slotSeries) rangeLocked(from, to flexoffer.Time) (int, int) {
	lo := sort.Search(len(ss.slots), func(j int) bool { return ss.slots[j] >= from })
	hi := len(ss.slots)
	if to != 0 {
		hi = sort.Search(len(ss.slots), func(j int) bool { return ss.slots[j] >= to })
	}
	return lo, hi
}

// pruneLocked drops every slot < before and returns how many fell.
// Caller holds mu. The survivors move to fresh slices so the pruned
// prefix is actually released.
func (ss *slotSeries) pruneLocked(before flexoffer.Time) int {
	i := sort.Search(len(ss.slots), func(j int) bool { return ss.slots[j] >= before })
	if i == 0 {
		return 0
	}
	ss.slots = append(make([]flexoffer.Time, 0, len(ss.slots)-i), ss.slots[i:]...)
	ss.kwh = append(make([]float64, 0, len(ss.kwh)-i), ss.kwh[i:]...)
	return i
}

// measurementIndex is the measurement fact table itself: series
// partitioned by (actor, energy type) with one lock per series — the
// finest useful stripe for a fact whose writers are per-meter streams.
// The outer map only grows (a series with all slots pruned stays as an
// empty shell), guarded by mu; each series guards its own slices.
type measurementIndex struct {
	mu     sync.RWMutex
	series map[seriesKey]*slotSeries
	nextID uint64
}

func newMeasurementIndex() *measurementIndex {
	return &measurementIndex{series: make(map[seriesKey]*slotSeries)}
}

// lookup returns the series for k if it exists.
func (ix *measurementIndex) lookup(k seriesKey) (*slotSeries, bool) {
	ix.mu.RLock()
	ss, ok := ix.series[k]
	ix.mu.RUnlock()
	return ss, ok
}

// ensure returns the series for k, creating it if needed.
func (ix *measurementIndex) ensure(k seriesKey) *slotSeries {
	if ss, ok := ix.lookup(k); ok {
		return ss
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if ss, ok := ix.series[k]; ok {
		return ss
	}
	ss := &slotSeries{key: k, id: ix.nextID}
	ix.nextID++
	ix.series[k] = ss
	return ss
}

// match collects the series whose dimensions satisfy the (possibly
// empty) actor / energy type equality filters. O(series), never
// O(measurements): the series population is actors × energy types.
func (ix *measurementIndex) match(actor, energyType string) []*slotSeries {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	if actor != "" && energyType != "" {
		if ss, ok := ix.series[seriesKey{actor, energyType}]; ok {
			return []*slotSeries{ss}
		}
		return nil
	}
	var out []*slotSeries
	for k, ss := range ix.series {
		if actor != "" && k.Actor != actor {
			continue
		}
		if energyType != "" && k.EnergyType != energyType {
			continue
		}
		out = append(out, ss)
	}
	return out
}

// all returns every series, sorted by creation id — the canonical
// acquisition order for operations that lock many series (prune).
func (ix *measurementIndex) all() []*slotSeries {
	ix.mu.RLock()
	out := make([]*slotSeries, 0, len(ix.series))
	for _, ss := range ix.series {
		out = append(out, ss)
	}
	ix.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// count sums the series lengths under brief read locks.
func (ix *measurementIndex) count() int {
	n := 0
	for _, ss := range ix.all() {
		ss.mu.RLock()
		n += len(ss.slots)
		ss.mu.RUnlock()
	}
	return n
}
