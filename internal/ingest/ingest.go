// Package ingest is the node's durable asynchronous intake path: the
// embedded analog of an event-log backbone (Kafka-style topics) for an
// EDMS whose BRPs take continuous flex-offer and measurement streams
// from millions of prosumers.
//
// The log is the store's own: producers hand a Queue offer and
// measurement-batch events, and are acked as soon as the event's frames
// are in the store's write-ahead log (store.AppendIntake) — the same
// offers and measurements frames any store write logs, appended through
// the WAL's group committer, so concurrent producers coalesce into one
// physical write (and, under SyncAlways, one fsync) per round. A
// rejected offer record is logged as offers_if_absent: it is stored only
// if no record holds its id when it applies, so a refused duplicate never
// replaces the original.
//
// Nothing is applied at the ack. The WAL's group leader hands every
// written group's events to the queue in log order before the group's
// producers return, and one applier goroutine applies them to the
// tables in that order (store.ApplyIntake) without logging them again,
// so the store's memory ends up where a replay of its WAL would. The
// applier does not apply an event at once: it lingers until MaxBatch
// events are queued, batchWait (500µs) passes, a Drain or Close flushes
// it, or the queue is killed (which abandons the batch to the WAL),
// then applies everything queued as one store round. A producer's event
// therefore lands in a buffered channel nobody is parked on, and a
// closed loop of one-at-a-time producers still feeds the store batches
// of many events. Lingering costs no durability, only the moment the
// store shows the event. Drain is what defines "applied": it ends the
// linger, and the apply that empties the queue wakes it.
//
// Only acked events are applied. A submission first takes a queue slot
// (the Policy acts here), then appends to the WAL; an event whose group
// write failed is never handed to the applier, and its submission gives
// the slot back.
//
// The queue is bounded. When it fills, the configured Policy decides
// what backpressure looks like:
//
//   - PolicyBlock: the producer waits for space (honoring its context)
//     — pushback propagates to the transport;
//   - PolicyShed: the producer gets ErrOverloaded immediately and
//     nothing is logged — load is shed explicitly, never silently.
//
// Durability and recovery: an ack means the event reached the WAL under
// the store's fsync policy, and store.Open replays it like every other
// frame — there is nothing for the queue to recover, and a barrier
// writes nothing. The events a crash left unapplied come back in the
// tables; they do not pass through OnMeasurements again, so a restarted
// node's forecast models start from the next live batch.
//
// One case of an errored ack remains applied: under SyncAlways, a frame
// that reached the file before its fsync failed is replayed on restart,
// though the live store never applied it.
package ingest

import (
	"errors"
	"fmt"

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
	// Store logs and receives the events. Required, and one queue per
	// store: Open makes the queue the store's intake handoff. A durable
	// store makes acks durable under its SyncPolicy; a volatile one acks
	// at once and recovers nothing.
	Store *store.Store
	// Deprecated: ignored; acked events live in the store's WAL.
	// ROADMAP B(3) deletes it together with bench/'s assignments.
	Path string
	// Queue bounds the in-memory event backlog (default 4096 events).
	Queue int
	// Policy picks the backpressure behaviour when the queue is full.
	Policy Policy
	// MaxBatch bounds how many queued events the applier coalesces into
	// a single store apply (default 256).
	MaxBatch int
	// OnMeasurements, when set, observes every measurement batch as it
	// is applied to the store — the forecast-maintenance hook. It is
	// called from the applier goroutine, in log order; the slice must not
	// be retained.
	OnMeasurements func([]store.Measurement)
}
