package main

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"time"
)

// metricSpec declares a metric of the benchmark contract; BENCHMARK.json
// lists the same names, units and directions (bench_test.go compares).
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the gated metrics. The driver wants every one of them
// from every workload, so each is defined per workload (README.md):
//
//	offers_per_s  offers a round carried through the workload's whole path ÷
//	              the round's timed segments, median over the rounds
//	op_p50_ms     median latency of the workload's unit of work
//	setup_s       median of the run's set-ups
var endToEnd = []metricSpec{
	{"offers_per_s", "1/s", "higher", 0.25},
	{"op_p50_ms", "ms", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

// metric is one reported value.
type metric struct {
	Name    string  `json:"name"`
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
	Gated   bool    `json:"gated,omitempty"`
}

// conditions are the fixed conditions every run records.
type conditions struct {
	GitSHA     string `json:"git_sha"`
	GoVersion  string `json:"go_version"`
	NProc      int    `json:"nproc"`
	GoMaxProcs int    `json:"gomaxprocs"`
	Clients    int    `json:"clients"` // closed loop: one connection, one request in flight each
	Sync       string `json:"sync_policy"`
}

func recordConditions(nclients int) conditions {
	c := conditions{
		GitSHA: "unknown", GoVersion: runtime.Version(),
		NProc: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0),
		Clients: nclients, Sync: "flush",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				c.GitSHA = s.Value
			}
		}
	}
	return c
}

// report is the full account of one run: every metric by name and unit
// with its sample count, the counts behind them and the correctness gate.
type report struct {
	// Claim is always null: this program defines the benchmark and
	// measures; a change that claims a gain states it in its issue.
	Claim        *string            `json:"claim"`
	Workload     string             `json:"workload"`
	Seed         int64              `json:"seed"`
	Seconds      float64            `json:"seconds"`
	Traced       bool               `json:"traced"`
	Conditions   conditions         `json:"conditions"`
	Sizes        map[string]int     `json:"sizes"`
	Rounds       int                `json:"rounds"`
	WindowS      float64            `json:"window_s"`
	OpsAttempted int64              `json:"ops_attempted"`
	OpsFailed    int64              `json:"ops_failed"`
	FirstError   string             `json:"first_error,omitempty"`
	Metrics      []metric           `json:"metrics"`
	Counts       map[string]int64   `json:"counts"`
	Checks       []check            `json:"checks"`
	Correct      bool               `json:"correct"`
	Trace        *traceReport       `json:"trace,omitempty"`
	Layers       map[string]float64 `json:"layers,omitempty"`
}

type traceReport struct {
	File         string             `json:"file"`
	Spans        int                `json:"spans"`
	OverheadFrac float64            `json:"overhead_frac"`
	SelfMs       map[string]float64 `json:"self_ms_by_span"`
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// latency appends a distribution the benchmark's one way: median, then
// the highest tail percentile the sample supports, named after it.
func latency(out []metric, stem, unit string, conv func(time.Duration) float64, samples []time.Duration) []metric {
	d := summarize(samples)
	if d.N == 0 {
		return out
	}
	out = append(out, metric{Name: fmt.Sprintf("%s_p50_%s", stem, unit), Value: conv(d.P50), Unit: unit, Samples: d.N})
	if d.TailPct > 0 {
		out = append(out, metric{Name: fmt.Sprintf("%s_p%g_%s", stem, d.TailPct, unit), Value: conv(d.Tail), Unit: unit, Samples: d.N})
	}
	return out
}

// buildReport turns a finished run into its report. The three gated
// metrics come first; the workload's own named metrics follow.
func buildReport(r *run, cond conditions) *report {
	offers, batches := r.acked()
	acks := r.acks()
	window := r.busy.Seconds()
	rate := medianOf(r.rates)
	rep := &report{
		Workload: r.cfg.workload, Seed: r.cfg.seed, Seconds: r.cfg.seconds, Traced: r.cfg.trace,
		Conditions: cond, Rounds: r.rounds, WindowS: window,
		Sizes: map[string]int{
			"offers_per_round": r.cfg.sizes.offersPerRound, "fact_batches_per_round": r.cfg.sizes.batchesPerRound,
			"facts_per_batch": factsPerBatch, "sched_max_iterations": r.maxIter(), "recover_tail_offers": r.cfg.sizes.recoverTail,
		},
		OpsAttempted: r.attempted, OpsFailed: r.failed,
		Checks: r.checks, Correct: true,
		Counts: map[string]int64{
			"offers_acked": offers, "fact_batches_acked": batches, "facts_acked": batches * factsPerBatch,
			"schedules_committed": r.committed, "schedules_delivered": r.delivered,
			"offers_expired": r.expired, "offers_settled": r.settled, "offers_restored": r.restored,
		},
	}
	if r.firstErr != nil {
		rep.FirstError = r.firstErr.Error()
	}
	for _, c := range r.checks {
		rep.Correct = rep.Correct && c.OK
	}

	// The workload's unit of work, and its metrics under the names this
	// repository's issues use.
	var unit []time.Duration
	var named []metric
	switch r.cfg.workload {
	case "intake":
		unit = acks
		named = latency(named, "ack", "us", us, acks)
	case "cycle":
		unit = r.cycles
		named = append(named, metric{Name: "schedules_per_s", Value: rate, Unit: "1/s", Samples: r.rounds})
		named = latency(named, "cycle", "ms", ms, r.cycles)
		named = latency(named, "accept", "us", us, acks)
	case "lifecycle":
		unit = acks // ~50 000 samples a run; its ~15 cycles are reported below, ungated
		named = append(named, metric{Name: "lifecycle_offers_per_s", Value: rate, Unit: "1/s", Samples: r.rounds})
		named = latency(named, "ack", "us", us, acks)
		named = latency(named, "cycle", "ms", ms, r.cycles)
		named = latency(named, "settle_run", "ms", ms, r.settles)
	case "recover":
		unit = r.reopens
		named = latency(named, "recovery", "ms", ms, r.reopens)
	}
	named = append(named, metric{Name: "offers_per_s_whole_window", Value: float64(r.through) / window, Unit: "1/s", Samples: int(r.through)})
	if len(r.unattributed) > 0 {
		named = append(named, metric{Name: "cycle_unattributed_p50_ms", Value: ms(median(r.unattributed)), Unit: "ms", Samples: len(r.unattributed)})
	}
	rep.Metrics = append([]metric{
		{Name: "offers_per_s", Value: rate, Unit: "1/s", Samples: r.rounds, Gated: true},
		{Name: "op_p50_ms", Value: ms(median(unit)), Unit: "ms", Samples: len(unit), Gated: true},
		{Name: "setup_s", Value: median(r.setups).Seconds(), Unit: "s", Samples: len(r.setups), Gated: true},
	}, named...)
	rep.Metrics = append(rep.Metrics, metric{Name: "peak_mem_mb", Value: float64(r.peakMem) / (1 << 20), Unit: "MB", Samples: r.rounds})
	return rep
}

// result is the last line the driver reads.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]resultValue `json:"metrics"`
}

type resultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// contractLine selects what the driver asked for: the end-to-end
// metrics of an untraced run, the per-layer metrics of a traced one.
func contractLine(rep *report) result {
	res := result{Correct: rep.Correct, Attempted: rep.OpsAttempted, Failed: rep.OpsFailed, Metrics: map[string]resultValue{}}
	if rep.Traced {
		for _, spec := range perLayer {
			res.Metrics[spec.Name] = resultValue{Value: rep.Layers[spec.Name], Unit: spec.Unit}
		}
		return res
	}
	for _, m := range rep.Metrics {
		if m.Gated {
			res.Metrics[m.Name] = resultValue{Value: m.Value, Unit: m.Unit}
		}
	}
	return res
}
