package store

import (
	"errors"
	"time"
)

// OpenGroupLog is the one way a log is opened, and the one time it is
// read: the file at path, which may be absent, is replayed through apply
// in order, then its torn tail is cut off, then it is opened for
// appending. cut is how many torn bytes were dropped. magic heads the
// file (written with the first append into an empty file); a file in
// another format, or an error from apply, fails the open with the file
// untouched — and so does a damaged file (ErrDamaged) unless cutDamage
// says to treat the damage as a torn tail. Under SyncInterval the log
// fsyncs every syncCadence.
func OpenGroupLog(path, magic string, policy SyncPolicy, cutDamage bool,
	apply func(off int64, tag byte, payload []byte) error) (g *GroupLog, cut int64, err error) {
	intact, err := ReplayFrames(path, magic, apply)
	if err != nil && !(cutDamage && errors.Is(err, ErrDamaged)) {
		return nil, 0, err
	}
	// A torn tail goes before anything is appended: the replay scanner
	// stops at the first broken frame, so records written behind one
	// would be silently dropped by the next recovery.
	if cut, err = truncateTail(path, intact); err != nil {
		return nil, 0, err
	}
	g, err = newGroupLog(path, policy, magic)
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
