// Package ingest is the node's durable asynchronous intake path: the
// embedded analog of an event-log backbone (Kafka-style topics) for an
// EDMS whose BRPs take continuous flex-offer and measurement streams
// from millions of prosumers.
//
// Producers append offer and measurement-batch events to a Queue and
// are acked as soon as the event is committed to the ingest journal — a
// group-committed append-only log reusing the store's WAL committer
// (store.GroupLog), so concurrent producers coalesce into one physical
// write (and, under SyncAlways, one fsync) per round. The journal is a
// store frame log: checksummed binary frames behind a magic+version
// header, one frame per event in the store's own record encodings
// (queue.go has the tags). Consumer goroutines drain the queue into the
// striped store asynchronously; the store round-trip leaves the
// caller's critical path entirely. A consumer that takes an event off
// an idle queue does not apply it at once: it lingers until MaxBatch
// events are queued, batchWait (500µs) passes, a Drain or Close flushes
// it, or the queue is killed (which abandons the batch to the journal),
// then applies everything queued as one store round. A producer's
// event therefore lands in a buffered channel nobody is parked on, and
// a closed loop of one-at-a-time producers still feeds the store
// batches of many events. Lingering costs no durability, since the
// event is journaled before it is queued; it only delays when the
// store shows it. Drain is what defines "applied": it ends every
// linger, and the consumer that applies the last staged event wakes it.
//
// Only acked events are applied. A submission first takes a queue slot
// (the Policy acts here), then appends to the journal, and queues the
// event only once the append succeeded; a failed append gives the slot
// back and leaves nothing behind.
//
// The queue is bounded. When it fills, the configured Policy decides
// what backpressure looks like:
//
//   - PolicyBlock: the producer waits for space (honoring its context)
//     — pushback propagates to the transport;
//   - PolicyShed: the producer gets ErrOverloaded immediately and
//     nothing is journaled — load is shed explicitly, never silently.
//
// Durability and recovery: an ack means the event reached the journal
// under the journal's fsync policy. The journal is only ever appended
// to while the queue runs — every event a consumer applies came through
// memory — and is read exactly once: on restart, Open replays it and
// re-applies every recorded event before it returns. Applies are
// idempotent upserts (offer applies never downgrade a record that
// progressed to scheduled/executed, and a rejected offer never replaces
// a stored record), so re-applying events that had already reached the
// store converges — and an event the store already reflects is skipped,
// so such a replay writes nothing to the store. The journal is compacted —
// truncated to empty after an explicit store fsync — when a Drain or
// Close proves every event has been applied.
//
// One case of an errored ack remains applied: under SyncAlways, a frame
// that reached the file before its fsync failed is still replayed on
// restart.
package ingest

import (
	"errors"
	"fmt"
	"time"

	"mirabel/internal/store"
)

// ErrOverloaded is returned by submissions under PolicyShed when the
// queue is full. Match with errors.Is; callers turn it into typed
// pushback toward their own producers.
var ErrOverloaded = errors.New("ingest: queue overloaded")

// ErrClosed is returned by submissions to a closed (or killed) queue.
var ErrClosed = errors.New("ingest: queue closed")

// Policy selects what happens to a producer when the bounded queue is
// full.
type Policy int

const (
	// PolicyBlock makes the producer wait for space (default).
	PolicyBlock Policy = iota
	// PolicyShed fails the producer fast with ErrOverloaded.
	PolicyShed
)

// String names the policy as its -ingest-policy flag value.
func (p Policy) String() string {
	switch p {
	case PolicyBlock:
		return "block"
	case PolicyShed:
		return "shed"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// ParsePolicy maps a flag value to its Policy.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "block":
		return PolicyBlock, nil
	case "shed":
		return PolicyShed, nil
	default:
		return 0, fmt.Errorf("ingest: unknown policy %q (want block | shed)", s)
	}
}

// Config assembles a Queue.
type Config struct {
	// Store receives the drained events. Required.
	Store *store.Store
	// Path is the ingest journal file. Empty means a volatile queue:
	// no durability, acks are immediate, recovery is impossible.
	Path string
	// Sync is the journal's fsync policy (store.SyncFlush by default:
	// acks are flush-to-OS durable; store.SyncAlways makes every ack
	// machine-crash durable at one group fsync per coalesced round).
	Sync store.SyncPolicy
	// Queue bounds the in-memory event backlog (default 4096 events).
	Queue int
	// Policy picks the backpressure behaviour when the queue is full.
	Policy Policy
	// Consumers is the number of drain goroutines (default 2).
	Consumers int
	// MaxBatch bounds how many queued events one consumer coalesces
	// into a single store apply (default 256).
	MaxBatch int
	// CompactBytes, when positive, bounds the journal between drains: a
	// background compactor seals the journal into a side segment
	// (<Path>.old) once it outgrows this many bytes, and deletes the
	// segment as soon as every event recorded in it has been applied
	// and the store fsynced. Producers are only paused for the rename
	// itself, never for the wait. Zero disables mid-run compaction (the
	// journal is still truncated by Drain/Close).
	CompactBytes int64
	// CompactInterval is the compactor's polling cadence (default
	// 100ms). Only used when CompactBytes is positive.
	CompactInterval time.Duration
	// OnMeasurements, when set, observes every measurement batch as it
	// is applied to the store — the forecast-maintenance hook. Because
	// it hangs off the single apply funnel, it sees live consumed
	// batches and Open's journal recovery replay alike. It is called
	// from consumer goroutines (and, during recovery, from Open's
	// caller) and must be safe for concurrent use; the slice must not
	// be retained.
	OnMeasurements func([]store.Measurement)
}
