package forecast

import (
	"sync"
	"sync/atomic"
	"time"

	"mirabel/internal/obs"
)

// sweeper is the bounded background re-estimation pool: maintainers
// whose re-estimation is due enqueue refit requests, workers refit against a history
// snapshot and publish the parameters back through the maintainer's
// atomic install slot — so a refit never holds a series lock for longer
// than the snapshot copy, and forecasts/updates keep serving the
// stale-but-live model while the (expensive) estimation runs.
type sweeper struct {
	q        chan *Series
	stop     chan struct{}
	stopOnce sync.Once // close is repeatable: a node is closed by its owner and again by deferred cleanup
	wg       sync.WaitGroup

	workers int
	// pending counts requests accepted but not yet finished (queued or
	// refitting) — incremented at enqueue so idle() has no window where
	// a dequeued-but-not-started refit is invisible.
	pending atomic.Int64

	enqueued  atomic.Uint64
	failed    atomic.Uint64
	overflows atomic.Uint64
	// lat holds one sample (ns) per completed refit, so its Count is
	// the refits done.
	lat obs.Histogram
}

func newSweeper(workers, depth int) *sweeper {
	w := &sweeper{
		q:       make(chan *Series, depth),
		stop:    make(chan struct{}),
		workers: workers,
	}
	w.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go w.run()
	}
	return w
}

// enqueue hands a series to the pool without ever blocking the caller
// (which holds the series' maintainer lock): a full queue drops the
// request, counts an overflow, and the caller stands its pending flag
// down so its next observation re-triggers.
func (w *sweeper) enqueue(s *Series) bool {
	select {
	case w.q <- s:
		w.enqueued.Add(1)
		w.pending.Add(1)
		return true
	default:
		w.overflows.Add(1)
		return false
	}
}

func (w *sweeper) run() {
	defer w.wg.Done()
	for {
		select {
		case <-w.stop:
			return
		case s := <-w.q:
			w.refit(s)
			w.pending.Add(-1)
		}
	}
}

// refit re-estimates one series' parameters. The maintainer lock is
// held only for the history snapshot; the estimation itself — by far
// the dominant cost — runs lock-free, and the result is published via
// an atomic pointer the next update/forecast swaps in.
func (w *sweeper) refit(s *Series) {
	mt := s.mt.Load()
	if mt == nil {
		return
	}
	history, periods, cfg := mt.refitSnapshot()
	start := time.Now()
	_, res, err := FitHWT(history, periods, cfg)
	if err != nil {
		w.failed.Add(1)
		mt.abortRefit()
		return
	}
	mt.completeRefit(res.X, res.Value)
	w.lat.Record(int64(time.Since(start)))
}

// fill populates the sweeper-owned fields of a stats snapshot.
func (w *sweeper) fill(st *RegistryStats) {
	st.RefitsEnqueued = w.enqueued.Load()
	st.RefitsDone = w.lat.Count()
	st.RefitsFailed = w.failed.Load()
	st.QueueOverflows = w.overflows.Load()
	st.QueueDepth = len(w.q)
	st.QueueCap = cap(w.q)
	st.Workers = w.workers
	st.RefitP50 = time.Duration(w.lat.Quantile(0.50))
	st.RefitP95 = time.Duration(w.lat.Quantile(0.95))
	st.RefitP99 = time.Duration(w.lat.Quantile(0.99))
}

// idle reports whether the queue is drained and no refit is running.
func (w *sweeper) idle() bool { return w.pending.Load() == 0 }

func (w *sweeper) close() {
	w.stopOnce.Do(func() { close(w.stop) })
	w.wg.Wait()
}
