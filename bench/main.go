// Command bench is the repository's benchmark: it drives one
// production-composition BRP node over real TCP from a seeded generator
// in the same process, checks the node's outputs, and prints every
// metric by name and unit. See README.md for the definitions.
//
//	bash bench/run.sh                        # all four workloads, from the repository root
//	bash bench/run.sh --workload intake --seed 7 --seconds 10 --trace 0
//	bash bench/run.sh --trace 1              # traced runs + per-layer budget
//	bash bench/run.sh --layers               # per-layer budget alone
//	bash bench/run.sh --repeat 10            # run-to-run spread against the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// buildDir is where the benchmark keeps everything it writes — scratch
// node directories and span files — relative to the working directory.
// run.sh builds the binary there too.
const buildDir = ".bench_build"

func main() { os.Exit(realMain()) }

func realMain() int {
	var (
		workload = flag.String("workload", "", "workload to run: intake | cycle | lifecycle | recover (empty: all four)")
		seed     = flag.Int64("seed", 7, "seed of every generated input")
		seconds  = flag.Float64("seconds", 10, "length of the timed window of one run")
		trace    = flag.Int("trace", 0, "1: record spans around every harness call and report the per-layer metrics instead of the end-to-end ones")
		layers   = flag.Bool("layers", false, "only time each layer's public functions standalone and print the per-layer metrics")
		repeat   = flag.Int("repeat", 0, "run this many full sets and print each end-to-end metric's run-to-run spread against its bound")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds <= 0 || *trace < 0 || *trace > 1 {
		flag.Usage()
		return 2
	}
	var names []string
	for _, w := range workloads {
		if *workload == "" || *workload == w.name {
			names = append(names, w.name)
		}
	}
	if len(names) == 0 {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workload)
		return 2
	}

	// As many closed-loop clients as processors: the load generator
	// shares the machine with the node and must not outnumber it.
	nclients := runtime.NumCPU()
	cond := recordConditions(nclients)
	workDir := filepath.Join(buildDir, fmt.Sprintf("work-%d", os.Getpid()))
	defer os.RemoveAll(workDir)
	enc := json.NewEncoder(os.Stdout)

	var err error
	switch {
	case *layers:
		var m map[string]float64
		if m, err = layerSuite(newGenerator(*seed), *seed, workDir); err == nil {
			err = enc.Encode(map[string]any{"conditions": cond, "seed": *seed, "layers": m})
		}
	case *repeat > 0:
		err = repeatSets(enc, names, *repeat, *seed, *seconds, nclients, cond, workDir)
	default:
		ok := true
		for _, name := range names {
			cfg := runConfig{workload: name, seed: *seed, seconds: *seconds, trace: *trace == 1, sizes: fullSizes, workDir: workDir}
			var rep *report
			if rep, err = measure(cfg, nclients, cond); err != nil {
				break
			}
			// Two lines per run: the full report, then the contract's
			// result line (always last).
			if err = enc.Encode(map[string]any{"report": rep}); err == nil {
				err = enc.Encode(contractLine(rep))
			}
			ok = ok && rep.Correct
			if err != nil {
				break
			}
		}
		if err == nil && !ok {
			err = fmt.Errorf("correctness gate failed (see the report's checks and first_error)")
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	return 0
}

// measure executes one run and, when traced, adds what only a traced
// run reports: the span file, per-span self times and the per-layer
// metrics.
func measure(cfg runConfig, nclients int, cond conditions) (*report, error) {
	r, err := execute(cfg, nclients)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	rep := buildReport(r, cond)
	if !cfg.trace {
		return rep, nil
	}
	spans := r.tr.all()
	file := filepath.Join(buildDir, fmt.Sprintf("trace-%s.jsonl", cfg.workload))
	if err := writeSpans(file, spans); err != nil {
		return nil, err
	}
	self := selfTimes(spans)
	tr := &traceReport{File: file, Spans: len(spans), SelfMs: make(map[string]float64)}
	var rootDur, rootSelf time.Duration
	for _, s := range spans {
		tr.SelfMs[s.Name] += ms(self[s.ID])
		if s.Parent == 0 {
			rootDur += s.End - s.Start
			rootSelf += self[s.ID]
		}
	}
	tr.OverheadFrac = float64(spanCost()) * float64(len(spans)) / float64(r.busy)
	rep.Trace = tr

	layers, err := layerSuite(r.gen, cfg.seed, filepath.Join(cfg.workDir, "layers"))
	if err != nil {
		return nil, err
	}
	for k, v := range r.counters {
		layers[k] = v
	}
	layers["trace.spans"] = float64(len(spans))
	layers["trace.overhead_frac"] = tr.OverheadFrac
	if rootDur > 0 {
		layers["trace.root_self_frac"] = float64(rootSelf) / float64(rootDur)
	}
	rep.Layers = layers
	return rep, nil
}
