package store

import (
	"sync"
	"sync/atomic"

	"mirabel/internal/flexoffer"
)

// numShards is the stripe count of the offer table. Power of two so
// stripe selection is a mask. 32 stripes keep writer collisions rare at
// the node's concurrency levels (handler goroutines + one cycle) while
// the per-table footprint stays small.
const (
	stripeBits = 5
	numShards  = 1 << stripeBits
)

// slabChunk is how many records one slab chunk holds. A chunk never
// moves once allocated, so a record's address is stable for the life
// of the table.
const slabChunk = 256

// Slot names where a record lives in a table: its stripe and its index
// in the stripe's slab. A writer that holds a record's Slot (the one
// AppendOffer returned for it) reaches the record without looking its
// key up. The zero Slot, NoSlot, names no record.
type Slot uint64

// NoSlot is the Slot of no record: an update carrying it finds its
// record by ID.
const NoSlot Slot = 0

func makeSlot(stripe int, index uint64) Slot {
	return Slot((index+1)<<stripeBits | uint64(stripe))
}

func (s Slot) stripe() int   { return int(s & (numShards - 1)) }
func (s Slot) index() uint64 { return uint64(s>>stripeBits) - 1 }

// slabEntry is one slot of a stripe's slab: the record and its key, or
// nothing (live false) — a slot reserved but not yet written, or one
// whose record moved to a later slot. Q's drop frame will put such
// slots on a free list; today they stay empty.
type slabEntry[K comparable, V any] struct {
	key  K
	live bool
	val  V
}

// tableStripe is one stripe of a table: its records in a slab, in the
// order their slots were reserved, and an index from key to slab index.
// The index holds no pointers, so the collector never scans it. Writers
// hold the stripe's write lock across the WAL commit of the record they
// are about to apply, which is what keeps the log order and the memory
// order of any single key identical (recovery replays the log and must
// converge to the same state).
type tableStripe[K comparable, V any] struct {
	mu   sync.RWMutex
	ids  map[K]uint64
	slab []*[slabChunk]slabEntry[K, V]
	// next counts the slab indexes handed out. reserve takes one
	// without the lock, so a slot may be reserved before the chunk
	// that holds it exists.
	next atomic.Uint64
}

// shardedTable is the offer table: records striped by key hash, each
// stripe a slab behind a key index (tableStripe). Independent keys land
// on independent stripes, so intake and offer transitions stop
// contending on one lock, and a writer holding a record's Slot mutates
// it in place.
type shardedTable[K comparable, V any] struct {
	hash    func(K) uint64
	stripes [numShards]tableStripe[K, V]
}

func newShardedTable[K comparable, V any](hash func(K) uint64) *shardedTable[K, V] {
	t := &shardedTable[K, V]{hash: hash}
	for i := range t.stripes {
		t.stripes[i].ids = make(map[K]uint64)
	}
	return t
}

// stripeOf returns the stripe number owning k (its bit in a
// lockStripes mask).
func (t *shardedTable[K, V]) stripeOf(k K) int {
	return int(t.hash(k) & (numShards - 1))
}

// reserve hands out the next slot of k's stripe. It takes no lock: the
// WAL's group leader reserves the slots of the intake events it writes,
// in log order, while table writers may hold stripe locks and wait on
// that very group. A free list of empty slots (ROADMAP Q) must keep it
// that way: a lock of its own, never the stripe's.
func (t *shardedTable[K, V]) reserve(k K) Slot {
	s := t.stripeOf(k)
	return makeSlot(s, t.stripes[s].next.Add(1)-1)
}

// entry returns slab entry i, allocating chunks up to it. Caller holds
// the stripe's write lock.
func (st *tableStripe[K, V]) entry(i uint64) *slabEntry[K, V] {
	for int(i/slabChunk) >= len(st.slab) {
		st.slab = append(st.slab, new([slabChunk]slabEntry[K, V]))
	}
	return &st.slab[i/slabChunk][i%slabChunk]
}

// peek returns slab entry i, or nil when no chunk holds it yet. Caller
// holds the stripe's lock.
func (st *tableStripe[K, V]) peek(i uint64) *slabEntry[K, V] {
	if int(i/slabChunk) >= len(st.slab) {
		return nil
	}
	return &st.slab[i/slabChunk][i%slabChunk]
}

func (t *shardedTable[K, V]) get(k K) (V, bool) {
	st := &t.stripes[t.stripeOf(k)]
	st.mu.RLock()
	defer st.mu.RUnlock()
	if i, ok := st.ids[k]; ok {
		return st.slab[i/slabChunk][i%slabChunk].val, true
	}
	var zero V
	return zero, false
}

// locate returns k's record for an in-place update: at slot when slot
// still holds k, else through the key index; nil when no record holds
// k. Caller holds the write lock of k's stripe.
func (t *shardedTable[K, V]) locate(k K, slot Slot) *V {
	s := t.stripeOf(k)
	st := &t.stripes[s]
	if slot != NoSlot && slot.stripe() == s {
		if e := st.peek(slot.index()); e != nil && e.live && e.key == k {
			return &e.val
		}
	}
	i, ok := st.ids[k]
	if !ok {
		return nil
	}
	return &st.entry(i).val
}

// put upserts k's record: in place when k has one, else into a new
// slot. It returns the record it replaced. Caller holds the write lock
// of k's stripe.
func (t *shardedTable[K, V]) put(k K, v V) (old V, had bool) {
	return t.place(k, v, NoSlot)
}

// place upserts k's record into slot, which reserve handed out for it:
// a record k held elsewhere moves there, and its old slot is left
// empty. With NoSlot it is put. It returns the record it replaced.
// Caller holds the write lock of k's stripe.
func (t *shardedTable[K, V]) place(k K, v V, slot Slot) (old V, had bool) {
	s := t.stripeOf(k)
	st := &t.stripes[s]
	i, had := st.ids[k]
	if had {
		e := st.entry(i)
		old = e.val
		if slot == NoSlot || slot.stripe() != s || slot.index() == i {
			e.val = v
			return old, true
		}
		*e = slabEntry[K, V]{}
	}
	if slot == NoSlot || slot.stripe() != s {
		slot = t.reserve(k)
	}
	i = slot.index()
	*st.entry(i) = slabEntry[K, V]{key: k, live: true, val: v}
	st.ids[k] = i
	return old, had
}

// length sums the stripe sizes (each under a brief read lock).
func (t *shardedTable[K, V]) length() int {
	n := 0
	for i := range t.stripes {
		t.stripes[i].mu.RLock()
		n += len(t.stripes[i].ids)
		t.stripes[i].mu.RUnlock()
	}
	return n
}

// scan calls fn for every record, one stripe at a time under read
// locks, each stripe's in slot order. Used by the residual full-table
// reads (the unfiltered listing's keys, the index build) whose result
// is the table anyway.
func (t *shardedTable[K, V]) scan(fn func(K, V)) {
	for i := range t.stripes {
		st := &t.stripes[i]
		st.mu.RLock()
		for _, chunk := range st.slab {
			for j := range chunk {
				if e := &chunk[j]; e.live {
					fn(e.key, e.val)
				}
			}
		}
		st.mu.RUnlock()
	}
}

// --- key hashing -------------------------------------------------------

// hashUint64 is the splitmix64 finalizer: cheap avalanche for integer
// keys (offer IDs are often sequential, which would otherwise pile
// consecutive offers onto consecutive stripes of a weaker mix).
func hashUint64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

func hashOfferID(id flexoffer.ID) uint64 { return hashUint64(uint64(id)) }

// --- multi-stripe writers ----------------------------------------------

// lockStripes write-locks the stripes whose bits are set in touched, in
// index order, so multi-stripe writers (ApplyBatch, UpdateOffers) cannot
// deadlock each other; a writer that spans every stripe takes the locks
// without a sorted plan.
func (t *shardedTable[K, V]) lockStripes(touched uint64) {
	for i := range t.stripes {
		if touched&(1<<i) != 0 {
			t.stripes[i].mu.Lock()
		}
	}
}

// unlockStripes releases what lockStripes took, last first.
func (t *shardedTable[K, V]) unlockStripes(touched uint64) {
	for i := len(t.stripes) - 1; i >= 0; i-- {
		if touched&(1<<i) != 0 {
			t.stripes[i].mu.Unlock()
		}
	}
}
