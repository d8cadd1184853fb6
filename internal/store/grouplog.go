package store

import (
	"errors"
	"fmt"
	"os"
	"time"
)

// OpenGroupLog is the one way a log is opened, and the one time it is
// read: every file of files — sealed segments first, the live file last,
// any of them possibly absent — is replayed through apply in order, then
// each torn tail is cut off, then the live file is opened for appending.
// cut is how many torn bytes were dropped. magic heads every file of the
// log (written with the first append into an empty file — after a
// Truncate or Rotate too); a file in another format, or an error from
// apply, fails the open with every file untouched — and so does a
// damaged file (ErrDamaged) unless cutDamage says to treat the damage as
// a torn tail. Under SyncInterval the log fsyncs every syncCadence.
func OpenGroupLog(files []string, magic string, policy SyncPolicy, cutDamage bool,
	apply func(off int64, tag byte, payload []byte) error) (g *GroupLog, cut int64, err error) {
	intact := make([]int64, len(files))
	for i, path := range files {
		intact[i], err = ReplayFrames(path, magic, apply)
		if err != nil && !(cutDamage && errors.Is(err, ErrDamaged)) {
			return nil, 0, err
		}
	}
	// A torn tail goes before anything is appended: the replay scanner
	// stops at the first broken frame, so records written behind one
	// would be silently dropped by the next recovery.
	for i, path := range files {
		n, err := truncateTail(path, intact[i])
		if err != nil {
			return nil, 0, err
		}
		cut += n
	}
	g, err = newGroupLog(files[len(files)-1], policy, magic)
	if err != nil {
		return nil, 0, err
	}
	if policy == SyncInterval {
		startIntervalSync(g)
	}
	return g, cut, nil
}

// syncCadence is how often a SyncInterval log fsyncs in the background.
const syncCadence = 100 * time.Millisecond

// startIntervalSync runs the background fsync ticker of a SyncInterval
// log. close(c.stopTick) stops it; c.tickDone closes when it has exited.
func startIntervalSync(c *GroupLog) {
	c.stopTick = make(chan struct{})
	c.tickDone = make(chan struct{})
	go func(stop, done chan struct{}) {
		defer close(done)
		t := time.NewTicker(syncCadence)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				_ = c.Sync()
			}
		}
	}(c.stopTick, c.tickDone)
}

// Path returns the log's file path.
func (c *GroupLog) Path() string { return c.path }

// Size returns the log's current byte length (flushing buffered writes
// first so the answer covers every acked append).
func (c *GroupLog) Size() (int64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.quiesceLocked()
	if !c.closed {
		if err := c.w.Flush(); err != nil {
			return 0, err
		}
	}
	fi, err := os.Stat(c.path)
	if err != nil {
		return 0, err
	}
	return fi.Size(), nil
}

// Truncate discards the log's entire contents: quiesce in-flight
// groups, fsync, then cut the file to length zero. Callers truncate
// only once every logged record has been applied and made durable
// elsewhere (e.g. after the ingest queue drained into the store and the
// store's WAL was synced).
func (c *GroupLog) Truncate() error {
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
	c.needHeader = true
	return c.fsync()
}
