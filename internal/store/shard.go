package store

import (
	"sync"

	"mirabel/internal/flexoffer"
)

// numShards is the stripe count of every hashed table. Power of two so
// shard selection is a mask. 32 stripes keep writer collisions rare at
// the node's concurrency levels (handler goroutines + one cycle) while
// the per-table footprint stays small.
const numShards = 32

// tableShard is one stripe of a hashed table: a mutex and the map it
// guards. Writers hold the stripe's write lock across the WAL commit of
// the record they are about to apply, which is what keeps the log order
// and the memory order of any single key identical (recovery replays
// the log and must converge to the same state).
type tableShard[K comparable, V any] struct {
	mu sync.RWMutex
	m  map[K]V
}

// shardedTable is a hash-striped map: the concurrent replacement for
// the seed engine's single map under the store-wide mutex. Independent
// keys land on independent stripes, so measurement ingestion, offer
// and offer transitions stop contending on one lock.
type shardedTable[K comparable, V any] struct {
	hash   func(K) uint64
	shards [numShards]tableShard[K, V]
}

func newShardedTable[K comparable, V any](hash func(K) uint64) *shardedTable[K, V] {
	t := &shardedTable[K, V]{hash: hash}
	for i := range t.shards {
		t.shards[i].m = make(map[K]V)
	}
	return t
}

// shard returns the stripe owning k.
func (t *shardedTable[K, V]) shard(k K) *tableShard[K, V] {
	return &t.shards[t.hash(k)&(numShards-1)]
}

// shardIndex returns the stripe number owning k (its bit in a
// lockStripes mask).
func (t *shardedTable[K, V]) shardIndex(k K) int {
	return int(t.hash(k) & (numShards - 1))
}

func (t *shardedTable[K, V]) get(k K) (V, bool) {
	sh := t.shard(k)
	sh.mu.RLock()
	v, ok := sh.m[k]
	sh.mu.RUnlock()
	return v, ok
}

// length sums the stripe sizes (each under a brief read lock).
func (t *shardedTable[K, V]) length() int {
	n := 0
	for i := range t.shards {
		t.shards[i].mu.RLock()
		n += len(t.shards[i].m)
		t.shards[i].mu.RUnlock()
	}
	return n
}

// scan calls fn for every entry, one stripe at a time under read locks.
// Used by the residual full-table queries (unfiltered listings, the
// index build) whose result is the table anyway.
func (t *shardedTable[K, V]) scan(fn func(K, V)) {
	for i := range t.shards {
		t.shards[i].mu.RLock()
		for k, v := range t.shards[i].m {
			fn(k, v)
		}
		t.shards[i].mu.RUnlock()
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
	for i := range t.shards {
		if touched&(1<<i) != 0 {
			t.shards[i].mu.Lock()
		}
	}
}

// unlockStripes releases what lockStripes took, last first.
func (t *shardedTable[K, V]) unlockStripes(touched uint64) {
	for i := len(t.shards) - 1; i >= 0; i-- {
		if touched&(1<<i) != 0 {
			t.shards[i].mu.Unlock()
		}
	}
}
