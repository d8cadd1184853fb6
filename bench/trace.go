package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync/atomic"
	"time"
)

var epoch = time.Now()

// clock is the harness's monotonic time: every latency, span boundary
// and delivery timestamp is a reading of it.
func clock() time.Duration { return time.Since(epoch) }

// span is one timed call the harness made (or, with Source "report", a
// phase duration the node reported about itself, laid out back to back
// from its parent's start because the report carries no start times).
type span struct {
	ID     int64         `json:"id"`
	Parent int64         `json:"parent"` // 0 = root
	Round  int           `json:"round"`  // shared by every span of one round / reopen
	Track  int           `json:"track"`  // 0 = harness goroutine, c+1 = client c
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Source string        `json:"source"` // "harness" or "report"
}

// tracer hands out span IDs. Spans live in per-goroutine lanes, in
// memory, until the run ends; a nil lane records nothing, which is how
// an untraced run pays nothing.
type tracer struct {
	nextID atomic.Int64
	lanes  []*lane
}

type lane struct {
	t     *tracer
	track int
	spans []span
}

// newTracer returns a tracer with one lane per client plus the harness
// lane (index 0).
func newTracer(nclients int) *tracer {
	t := &tracer{}
	for i := 0; i <= nclients; i++ {
		t.lanes = append(t.lanes, &lane{t: t, track: i})
	}
	return t
}

// laneFor returns lane i, or nil when tracing is off.
func (t *tracer) laneFor(i int) *lane {
	if t == nil {
		return nil
	}
	return t.lanes[i]
}

// add records a finished span and returns its ID.
func (l *lane) add(name string, parent int64, round int, start, end time.Duration, source string) int64 {
	if l == nil {
		return 0
	}
	id := l.t.nextID.Add(1)
	l.spans = append(l.spans, span{ID: id, Parent: parent, Round: round, Track: l.track, Name: name, Start: start, End: end, Source: source})
	return id
}

// begin opens a span whose children need its ID before it ends.
func (l *lane) begin(name string, parent int64, round int) int64 {
	return l.add(name, parent, round, clock(), 0, "harness")
}

// end closes a span opened by begin on this lane.
func (l *lane) end(id int64) {
	if l == nil {
		return
	}
	now := clock()
	for i := len(l.spans) - 1; i >= 0; i-- {
		if l.spans[i].ID == id {
			l.spans[i].End = now
			return
		}
	}
}

// all merges the lanes in start order.
func (t *tracer) all() []span {
	var out []span
	for _, l := range t.lanes {
		out = append(out, l.spans...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// selfTimes returns, per span ID, the span's duration minus the part of
// it that its child spans cover. Children may overlap (the clients run
// in parallel), so coverage is the union of their intervals clipped to
// the parent.
func selfTimes(spans []span) map[int64]time.Duration {
	children := make(map[int64][]span)
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	self := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		var covered time.Duration
		edge := s.Start
		for _, k := range kids {
			lo, hi := k.Start, k.End
			if lo < edge {
				lo = edge
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = s.End - s.Start - covered
	}
	return self
}

// spanCost calibrates what recording one span costs, so a traced run
// can state its own overhead without a second, untraced run.
func spanCost() time.Duration {
	const n = 200000
	l := newTracer(0).laneFor(0)
	t0 := clock()
	for i := 0; i < n; i++ {
		a := clock()
		l.add("calibrate", 0, 0, a, clock(), "harness")
	}
	return (clock() - t0) / n
}

// writeSpans writes the spans one JSON object a line.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
