package store

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"time"
)

// GroupLog exposes the WAL's leader/follower group committer as a
// reusable append-only log for other subsystems (the ingest journal and
// the settlement ledger). Concurrent Append calls coalesce into one
// buffered write — and, under SyncAlways, one fsync — per physical
// round, exactly like the store's own WAL; an Append returns only once
// its records are flushed (and fsynced, per policy), so the return is
// the caller's durability ack.
//
// The log does not look inside what it appends. The ingest journal
// appends the binary frames of frame.go behind a magic header and reads
// them back with ReplayFrames; the ledger appends '\n'-terminated JSON
// lines, headerless, and reads them back with ReplayLines. Either
// reader reports where the intact prefix ends, so a torn tail can be
// truncated before new appends land behind it.
type GroupLog struct {
	c    *committer
	path string
}

// OpenGroupLog opens (or creates) an append-only group-committed log at
// path. A non-empty header is the magic each file of the log starts
// with (written with the first append into an empty file — after a
// Truncate or Rotate too); an existing non-empty file must have been
// replayed, and so validated, by the caller. interval is only used
// under SyncInterval (0 means the default 100ms cadence).
func OpenGroupLog(path, header string, policy SyncPolicy, interval time.Duration) (*GroupLog, error) {
	c, err := newCommitter(path, policy, header)
	if err != nil {
		return nil, err
	}
	if policy == SyncInterval {
		if interval <= 0 {
			interval = defaultOptions().interval
		}
		startIntervalSync(c, interval)
	}
	return &GroupLog{c: c, path: path}, nil
}

// startIntervalSync runs the background fsync ticker of a SyncInterval
// committer (shared by Open and OpenGroupLog). close(c.stopTick) stops
// it; c.tickDone closes when it has exited.
func startIntervalSync(c *committer, interval time.Duration) {
	c.stopTick = make(chan struct{})
	c.tickDone = make(chan struct{})
	go func(stop, done chan struct{}) {
		defer close(done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				_ = c.sync()
			}
		}
	}(c.stopTick, c.tickDone)
}

// Path returns the log's file path.
func (g *GroupLog) Path() string { return g.path }

// Append commits recs — one logged record each — as one group (possibly
// coalesced with concurrent appenders) and returns once they are
// flushed — and fsynced, under SyncAlways. The slices are the caller's
// to reuse once Append returns.
func (g *GroupLog) Append(recs [][]byte) error { return g.c.commit(recs, len(recs)) }

// Sync flushes and fsyncs the log.
func (g *GroupLog) Sync() error { return g.c.sync() }

// Stats reports the committer's record/group/fsync counters.
func (g *GroupLog) Stats() LogStats { return g.c.stats() }

// Close flushes, fsyncs and closes the log. Further appends fail.
func (g *GroupLog) Close() error { return g.c.close() }

// Rotate seals the log's current contents at oldPath and continues
// appending to a fresh file at the original path. The sealed bytes are
// flushed and fsynced before the rename, so oldPath is a complete,
// immutable prefix of the log; the caller deletes it once every record
// in it is durable elsewhere. If oldPath already exists (an earlier
// rotation whose cleanup was interrupted), the current contents are
// appended to it instead, preserving replay order.
func (g *GroupLog) Rotate(oldPath string) error { return g.c.rotate(g.path, oldPath) }

// Truncate discards the log's entire contents: quiesce in-flight
// groups, fsync, then cut the file to length zero. Callers truncate
// only once every logged record has been applied and made durable
// elsewhere (e.g. after the ingest queue drained into the store and the
// store's WAL was synced).
func (g *GroupLog) Truncate() error { return g.c.truncate() }

// Size returns the log's current byte length (flushing buffered writes
// first so the answer covers every acked append).
func (g *GroupLog) Size() (int64, error) {
	g.c.mu.Lock()
	defer g.c.mu.Unlock()
	g.c.quiesceLocked()
	if !g.c.closed {
		if err := g.c.w.Flush(); err != nil {
			return 0, err
		}
	}
	fi, err := os.Stat(g.path)
	if err != nil {
		return 0, err
	}
	return fi.Size(), nil
}

// truncate cuts the committer's file to zero length under the committer
// lock.
func (c *committer) truncate() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.quiesceLocked()
	if c.closed {
		return fmt.Errorf("store: log is closed")
	}
	if err := c.w.Flush(); err != nil {
		return err
	}
	if err := c.f.Truncate(0); err != nil {
		return err
	}
	// O_APPEND writes follow the (now zero) end of file; resetting the
	// buffered writer drops any stale buffer state.
	c.w.Reset(c.f)
	c.needHeader = c.header != ""
	return c.f.Sync()
}

// ReplayLines streams every complete line of the file at path to apply
// and returns the byte offset just past the last intact line. A missing
// file is an empty log (offset 0). Scanning stops silently at the first
// torn line (no trailing newline at EOF) — the callers' checksums catch
// semantically corrupt but complete lines.
func ReplayLines(path string, apply func(line []byte) error) (int64, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("store: open log for replay: %w", err)
	}
	defer f.Close()
	r := bufio.NewReaderSize(f, 1<<20)
	var off int64
	for {
		line, err := r.ReadBytes('\n')
		if err == io.EOF {
			// A partial last line is a torn write: not replayed, not
			// counted into the intact prefix.
			return off, nil
		}
		if err != nil {
			return off, fmt.Errorf("store: scan log: %w", err)
		}
		if aerr := apply(line); aerr != nil {
			return off, aerr
		}
		off += int64(len(line))
	}
}
