package chaos

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"
)

// PartitionWindow cuts one destination off for an inclusive cycle
// range: opened at the start of cycle From, healed at the start of
// cycle To+1.
type PartitionWindow struct {
	Dest     string
	From, To int
}

// CrashPlan kills one node at the start of cycle At and restarts it
// Down cycles later.
type CrashPlan struct {
	Node string
	At   int
	Down int
}

// Schedule is a parsed fault plan: static fault rates plus
// cycle-indexed partition and crash events.
type Schedule struct {
	Faults  Faults
	Parts   []PartitionWindow
	Crashes []CrashPlan
}

// ParseSchedule reads the compact fault-schedule syntax used by the
// simulator's -faults flag: comma-separated clauses of
//
//	drop=0.1            fraction of messages lost pre-wire
//	err=0.01            fraction delivered but failed ambiguously
//	spike=0.02:200ms    fraction:magnitude of latency spikes
//	lat=1ms:2ms         base latency : uniform jitter bound
//	part=NAME@3-4       partition NAME during cycles 3..4 inclusive
//	crash=NAME@3+2      kill NAME at cycle 3, restart at cycle 5
//
// part and crash may repeat; an empty string is an empty schedule.
func ParseSchedule(s string) (*Schedule, error) {
	sched := &Schedule{}
	if strings.TrimSpace(s) == "" {
		return sched, nil
	}
	for _, clause := range strings.Split(s, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(clause), "=")
		if !ok {
			return nil, fmt.Errorf("chaos: clause %q is not key=value", clause)
		}
		var err error
		switch key {
		case "drop":
			sched.Faults.DropFrac, err = parseFrac(val)
		case "err":
			sched.Faults.ErrFrac, err = parseFrac(val)
		case "spike":
			frac, dur, splitErr := splitPair(val)
			if splitErr != nil {
				err = splitErr
				break
			}
			if sched.Faults.SpikeFrac, err = parseFrac(frac); err != nil {
				break
			}
			sched.Faults.Spike, err = parseDur(dur)
		case "lat":
			base, jitter, splitErr := splitPair(val)
			if splitErr != nil {
				err = splitErr
				break
			}
			if sched.Faults.LatBase, err = parseDur(base); err != nil {
				break
			}
			sched.Faults.LatJitter, err = parseDur(jitter)
		case "part":
			var w PartitionWindow
			if w, err = parsePartition(val); err == nil {
				sched.Parts = append(sched.Parts, w)
			}
		case "crash":
			var c CrashPlan
			if c, err = parseCrash(val); err == nil {
				sched.Crashes = append(sched.Crashes, c)
			}
		default:
			err = fmt.Errorf("unknown fault kind %q", key)
		}
		if err != nil {
			return nil, fmt.Errorf("chaos: clause %q: %w", clause, err)
		}
	}
	return sched, nil
}

func parseFrac(s string) (float64, error) {
	f, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, err
	}
	if !(f >= 0 && f <= 1) { // also rejects NaN
		return 0, fmt.Errorf("fraction %g outside [0,1]", f)
	}
	return f, nil
}

func parseDur(s string) (time.Duration, error) {
	d, err := time.ParseDuration(s)
	if err != nil {
		return 0, err
	}
	if d < 0 {
		return 0, fmt.Errorf("negative duration %v", d)
	}
	return d, nil
}

func splitPair(s string) (string, string, error) {
	a, b, ok := strings.Cut(s, ":")
	if !ok {
		return "", "", fmt.Errorf("want a:b, got %q", s)
	}
	return a, b, nil
}

// parsePartition reads NAME@A-B. The @ splits name from window; the
// last - splits the cycle range, so names may themselves contain
// dashes ("brp-1").
func parsePartition(s string) (PartitionWindow, error) {
	name, window, ok := strings.Cut(s, "@")
	if !ok || name == "" {
		return PartitionWindow{}, fmt.Errorf("want NAME@from-to, got %q", s)
	}
	cut := strings.LastIndexByte(window, '-')
	if cut < 0 {
		return PartitionWindow{}, fmt.Errorf("want NAME@from-to, got %q", s)
	}
	from, err := strconv.Atoi(window[:cut])
	if err != nil {
		return PartitionWindow{}, err
	}
	to, err := strconv.Atoi(window[cut+1:])
	if err != nil {
		return PartitionWindow{}, err
	}
	// The window heals at cycle to+1, which must not overflow.
	if from < 0 || to < from || to == math.MaxInt {
		return PartitionWindow{}, fmt.Errorf("bad window %d-%d", from, to)
	}
	return PartitionWindow{Dest: name, From: from, To: to}, nil
}

// parseCrash reads NAME@AT+DOWN.
func parseCrash(s string) (CrashPlan, error) {
	name, plan, ok := strings.Cut(s, "@")
	if !ok || name == "" {
		return CrashPlan{}, fmt.Errorf("want NAME@at+down, got %q", s)
	}
	at, down, ok := strings.Cut(plan, "+")
	if !ok {
		return CrashPlan{}, fmt.Errorf("want NAME@at+down, got %q", s)
	}
	c := CrashPlan{Node: name}
	var err error
	if c.At, err = strconv.Atoi(at); err != nil {
		return CrashPlan{}, err
	}
	if c.Down, err = strconv.Atoi(down); err != nil {
		return CrashPlan{}, err
	}
	// The node restarts at cycle at+down, which must not overflow.
	if c.At < 0 || c.Down < 1 || c.Down > math.MaxInt-c.At {
		return CrashPlan{}, fmt.Errorf("bad crash plan at=%d down=%d", c.At, c.Down)
	}
	return c, nil
}

// NodeHooks are the crash controller's handles on one node: Kill
// simulates the crash (abrupt, no drain), Restart rebuilds the node
// over the same durable state.
type NodeHooks struct {
	Kill    func() error
	Restart func() error
}

// ControllerStats counts schedule actions taken.
type ControllerStats struct {
	Kills, Restarts  uint64
	PartsCut, Healed uint64
}

// Controller replays a Schedule's cycle-indexed events. Drive it with
// BeginCycle(c) once per simulation cycle, in order. Not safe for
// concurrent use; call it from the cycle loop.
type Controller struct {
	sched     *Schedule
	injectors []*Injector
	nodes     map[string]NodeHooks
	stats     ControllerStats
}

// NewController builds a controller over the schedule. Partitions are
// applied to every attached injector.
func NewController(sched *Schedule, injectors ...*Injector) *Controller {
	return &Controller{sched: sched, injectors: injectors, nodes: make(map[string]NodeHooks)}
}

// RegisterNode attaches crash hooks for a named node.
func (c *Controller) RegisterNode(name string, h NodeHooks) {
	c.nodes[name] = h
}

// Stats returns the actions taken so far.
func (c *Controller) Stats() ControllerStats { return c.stats }

// Events lists the cycles at which this schedule does anything — useful
// for sizing a run so no planned fault falls off the end.
func (c *Controller) Events() []int {
	set := map[int]bool{}
	for _, p := range c.sched.Parts {
		set[p.From], set[p.To+1] = true, true
	}
	for _, cr := range c.sched.Crashes {
		set[cr.At], set[cr.At+cr.Down] = true, true
	}
	out := make([]int, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

// BeginCycle applies every schedule event due at the start of cycle n:
// partitions opening or healing, nodes crashing or restarting. A crash
// plan for an unregistered node is an error — a schedule that names a
// node the run doesn't have is a misconfiguration, not a no-op.
func (c *Controller) BeginCycle(n int) error {
	for _, p := range c.sched.Parts {
		if n == p.From {
			for _, inj := range c.injectors {
				inj.Partition(p.Dest)
			}
			c.stats.PartsCut++
		}
		if n == p.To+1 {
			for _, inj := range c.injectors {
				inj.Heal(p.Dest)
			}
			c.stats.Healed++
		}
	}
	for _, cr := range c.sched.Crashes {
		if n == cr.At {
			h, ok := c.nodes[cr.Node]
			if !ok {
				return fmt.Errorf("chaos: crash plan names unregistered node %q", cr.Node)
			}
			if err := h.Kill(); err != nil {
				return fmt.Errorf("chaos: kill %s at cycle %d: %w", cr.Node, n, err)
			}
			c.stats.Kills++
		}
		if n == cr.At+cr.Down {
			h, ok := c.nodes[cr.Node]
			if !ok {
				return fmt.Errorf("chaos: crash plan names unregistered node %q", cr.Node)
			}
			if err := h.Restart(); err != nil {
				return fmt.Errorf("chaos: restart %s at cycle %d: %w", cr.Node, n, err)
			}
			c.stats.Restarts++
		}
	}
	return nil
}
