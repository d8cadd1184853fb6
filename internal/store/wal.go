// Package store implements the MIRABEL Data Management component (paper
// §3): the node-local persistent store. It keeps the two fact tables a
// node writes, flex-offer records and measurements. The paper's store
// also holds "forecasting model parameters, flex-offers, price and
// contracts" in a star/snowflake schema with actor, energy type and
// market area dimensions; here model parameters live only in the
// node's forecast registry, prices are the planner's input, and
// contracts are not modelled (the negotiated premium rides on the
// offer's CostPerKWh). Their old WAL tags stay reserved (codec.go).
//
// Durability follows the classic embedded-engine recipe: every mutation
// is appended to a write-ahead log before being applied in memory, and
// Open() recovers by replaying the log. The log is a sequence of
// length-prefixed, checksummed binary frames behind a magic+version
// header (frame.go), one frame per mutation (codec.go), so a torn final
// write is detected and dropped. Nothing compacts the log: it holds
// every mutation since the store was created.
//
// The node's intake writes through the same log. An acked offer or meter
// batch is its WAL frames (AppendIntake, AppendOffer), appended without a
// table lock; the group's leader reserves each acked offer record's slot
// in the offer table and hands the event to the intake queue in log
// order, and the queue's one applier applies it into that slot later
// without logging it again (ApplyIntake), so memory reaches the state a
// replay rebuilds.
//
// Recovery runs in two stages (replay.go). The goroutine that reads the
// log checks, decodes and validates each frame: offers, schedules and
// their profile and energy runs come from one slab per replay, a chunk
// per 256 offers or schedules, and names from one string table. One
// applier goroutine fills the tables in log order while the next frames
// decode.
// Every recovery error is the reading side's, so it surfaces at its
// frame before anything on disk changes. That includes the one check
// that needs earlier records, that a transition names an offer an
// earlier record stored: the reading side keeps the IDs of the offers it
// decoded, which is exact because the store never deletes an offer.
//
// The log is written by a group committer: concurrent writers coalesce
// into one buffered append (and, under SyncAlways, one fsync) per
// physical write — the first writer to arrive leads the group and
// flushes everyone who queued behind it. When the record should be made
// durable is the SyncPolicy (see Options): flush-to-OS per commit with an
// fsync at Close (the default, the seed engine's behaviour), fsync every
// group, or a background fsync interval.
package store

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
)

// LogStats counts the committer's work: Records is the number of logged
// mutations, Groups the number of physical write+flush rounds they
// coalesced into, Syncs the number of fsyncs. Records/Groups is the
// group-commit amortization factor.
type LogStats struct {
	Records uint64
	Groups  uint64
	Syncs   uint64
}

// GroupLog is the one append-only log file behind the store's WAL and
// the settlement ledger: a group committer over the frame format of
// frame.go, opened by OpenGroupLog (grouplog.go). It owns the file and
// turns concurrent appends into group commits. commit() is
// leader/follower: the first writer through takes the write path and
// flushes every record queued while it held the file; later writers
// just park on a completion channel. Completions are recycled and the
// queues double-buffered, so an append allocates nothing in steady
// state. An append returns only once its records are flushed (and
// fsynced, per policy), so the return is the caller's durability ack.
// The store's table writers hold their record's table-stripe lock while
// waiting, which serializes same-key log order with same-key memory
// order; cross-stripe writers are exactly the ones that coalesce. An
// intake append holds no table lock: its event reaches the tables later,
// through the handoff, in log order.
//
// The log does not look inside what it appends: callers hand it whole
// frames (BeginFrame/EndFrame) and own their tags and payloads.
type GroupLog struct {
	path     string
	policy   SyncPolicy
	records  atomic.Uint64
	groups   atomic.Uint64
	syncs    atomic.Uint64
	stopTick chan struct{} // closes the interval syncer, if any
	tickDone chan struct{}

	// header is the magic every file of this log starts with. It is
	// written with the first group that lands in an empty file, so an
	// empty log stays a zero-length file.
	header     string
	needHeader bool // guarded like f: only the goroutine that owns the file

	mu      sync.Mutex
	cond    *sync.Cond // signaled when writing goes false
	f       *os.File
	w       *bufio.Writer
	writing bool
	closed  bool
	// pending and waiters queue the next group's records and its
	// followers' completions, and intake the intake events among its
	// records, in log order; the spare slices are the other half of each
	// double buffer, swapped in while the leader writes.
	pending, spare        [][]byte
	waiters, spareWaiters []waiter
	intake, spareIntake   []Intake
	// handoff receives the intake events of every group written without
	// error, in log order, from the group's leader before it wakes the
	// group (Store.AppendIntake); the Slot it sets on an event goes back
	// to the event's appender. Set before the first intake append.
	handoff func(*Intake)
}

// waiter is a follower parked on its group: the channel its result
// comes back on, and whether it appended an intake event.
type waiter struct {
	done   chan committed
	intake bool
}

// committed is a follower's result: the group's write error and, for an
// intake event written without one, the Slot the handoff set on it.
type committed struct {
	slot Slot
	err  error
}

// completions recycles followers' completion channels. A channel goes
// back once its one result has been received, so it is empty whenever
// the pool hands it out.
var completions = sync.Pool{New: func() any { return make(chan committed, 1) }}

// newGroupLog opens the log at path for appending. A non-empty file is
// taken to carry header already: OpenGroupLog replays (and so validates)
// a log before it opens it for writing.
func newGroupLog(path string, policy SyncPolicy, header string) (*GroupLog, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: open wal: %w", err)
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("store: open wal: %w", err)
	}
	c := &GroupLog{path: path, policy: policy, header: header, needHeader: fi.Size() == 0, f: f, w: bufio.NewWriter(f)}
	c.cond = sync.NewCond(&c.mu)
	return c, nil
}

// commit appends chunks — together holding the given number of records
// — and returns once they are flushed (and fsynced, under SyncAlways),
// possibly as part of a larger group led by another writer. The chunks
// are the caller's again when commit returns. ev, when non-nil, is the
// intake event the chunks log: the leader hands it to c.handoff, after
// the group is written and before anyone in it returns, and commit
// returns the Slot the handoff set on it.
func (c *GroupLog) commit(chunks [][]byte, records int, ev *Intake) (Slot, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return NoSlot, fmt.Errorf("store: wal is closed")
	}
	c.pending = append(c.pending, chunks...)
	if ev != nil {
		c.intake = append(c.intake, *ev)
	}
	c.records.Add(uint64(records))
	if c.writing {
		// A leader is at the file; it will pick this batch up.
		done := completions.Get().(chan committed)
		c.waiters = append(c.waiters, waiter{done: done, intake: ev != nil})
		c.mu.Unlock()
		res := <-done
		completions.Put(done)
		return res.slot, res.err
	}
	c.writing = true
	var own committed
	for first := true; len(c.pending) > 0; first = false {
		batch, waiters, intake := c.pending, c.waiters, c.intake
		c.pending, c.waiters, c.intake = c.spare, c.spareWaiters, c.spareIntake
		c.mu.Unlock()
		err := c.writeGroup(batch)
		if err == nil {
			// Groups are written one at a time, and only by the leader
			// that holds writing, so the handoff sees log order.
			for i := range intake {
				c.handoff(&intake[i])
			}
		}
		// The group's intake events are in append order: the leader's
		// own first (its records are in the first group), then its
		// followers'. Each appender gets back the slot the handoff set.
		events := intake
		if first {
			own.err = err
			if ev != nil {
				own.slot, events = events[0].Slot, events[1:]
			}
		}
		for _, w := range waiters {
			res := committed{err: err}
			if w.intake {
				res.slot, events = events[0].Slot, events[1:]
			}
			if err != nil {
				res.slot = NoSlot
			}
			w.done <- res
		}
		clear(batch) // let go of the callers' buffers
		clear(waiters)
		clear(intake)
		c.mu.Lock()
		c.spare, c.spareWaiters, c.spareIntake = batch[:0], waiters[:0], intake[:0]
	}
	c.writing = false
	c.cond.Broadcast()
	c.mu.Unlock()
	if own.err != nil {
		return NoSlot, own.err
	}
	return own.slot, nil
}

// Append commits recs — one logged record each — as one group (possibly
// coalesced with concurrent appenders). The slices are the caller's to
// reuse once Append returns.
func (c *GroupLog) Append(recs [][]byte) error {
	_, err := c.commit(recs, len(recs), nil)
	return err
}

// writeGroup writes one coalesced batch. Called with writing == true
// (file access is exclusive even though mu is released).
func (c *GroupLog) writeGroup(batch [][]byte) error {
	if c.needHeader {
		if _, err := c.w.WriteString(c.header); err != nil {
			return err
		}
		c.needHeader = false
	}
	for _, chunk := range batch {
		if _, err := c.w.Write(chunk); err != nil {
			return err
		}
	}
	if err := c.w.Flush(); err != nil {
		return err
	}
	c.groups.Add(1)
	if c.policy == SyncAlways {
		return c.fsync()
	}
	return nil
}

// fsync is the log's only f.Sync call site, so LogStats.Syncs counts
// every fsync of the file. The caller has exclusive access to c.f.
func (c *GroupLog) fsync() error {
	c.syncs.Add(1)
	return c.f.Sync()
}

// quiesce waits until no group write is in flight. Caller holds mu and
// keeps it; the file is exclusively theirs until they release it.
func (c *GroupLog) quiesceLocked() {
	for c.writing {
		c.cond.Wait()
	}
}

// Sync flushes and fsyncs the log.
func (c *GroupLog) Sync() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.quiesceLocked()
	if c.closed {
		return nil
	}
	if err := c.w.Flush(); err != nil {
		return err
	}
	return c.fsync()
}

// Close flushes, fsyncs and closes the log. Further appends fail.
func (c *GroupLog) Close() error {
	if c.stopTick != nil {
		close(c.stopTick)
		<-c.tickDone
		c.stopTick = nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.quiesceLocked()
	if c.closed {
		return nil
	}
	c.closed = true
	if err := c.w.Flush(); err != nil {
		c.f.Close()
		return err
	}
	if err := c.fsync(); err != nil {
		c.f.Close()
		return err
	}
	return c.f.Close()
}

// Stats reports the log's record/group/fsync counters.
func (c *GroupLog) Stats() LogStats {
	return LogStats{
		Records: c.records.Load(),
		Groups:  c.groups.Load(),
		Syncs:   c.syncs.Load(),
	}
}

// WALMagic heads wal.log; the last byte is the format version (see
// frame.go for the rule).
const WALMagic = "MRBLWAL\x01"

// WALPath returns the path of the WAL of the store in dir.
func WALPath(dir string) string { return filepath.Join(dir, "wal.log") }
