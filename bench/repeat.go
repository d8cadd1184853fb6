package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// spreadRow is one end-to-end metric on one workload across the sets of
// a -repeat run: the evidence that the metric repeats within its bound.
type spreadRow struct {
	Workload string    `json:"workload"`
	Metric   string    `json:"metric"`
	Unit     string    `json:"unit"`
	Bound    float64   `json:"bound"`
	Values   []float64 `json:"values"`
	Median   float64   `json:"median"`
	// Spread is (Q3 − Q1) / median over the sets; Range is
	// (max − min) / median, the only figure two sets support.
	Spread float64 `json:"spread"`
	Range  float64 `json:"range"`
	// Verdict: "steady" (spread under a third of the bound), "within"
	// (under the bound) or "exceeds".
	Verdict string `json:"verdict"`
}

// repeatSets runs sets full sets of the named workloads, set i on seed
// seed+i, and prints every gated metric's run-to-run spread against its
// bound. It fails when a run fails its correctness gate.
func repeatSets(enc *json.Encoder, names []string, sets int, seed int64, seconds float64, nclients int, cond conditions, workDir string) error {
	values := make(map[string][]float64) // "workload/metric" → one value per set
	for i := 0; i < sets; i++ {
		for _, name := range names {
			cfg := runConfig{workload: name, seed: seed + int64(i), seconds: seconds, sizes: fullSizes, workDir: workDir}
			rep, err := measure(cfg, nclients, cond)
			if err != nil {
				return err
			}
			if !rep.Correct {
				return fmt.Errorf("%s seed %d: correctness gate failed: %s", name, cfg.seed, rep.FirstError)
			}
			for _, m := range rep.Metrics {
				if m.Gated {
					key := name + "/" + m.Name
					values[key] = append(values[key], m.Value)
				}
			}
			fmt.Fprintf(os.Stderr, "set %d/%d %s done\n", i+1, sets, name)
		}
	}
	var rows []spreadRow
	for _, name := range names {
		for _, spec := range endToEnd {
			v := values[name+"/"+spec.Name]
			sorted := append([]float64(nil), v...)
			sort.Float64s(sorted)
			row := spreadRow{Workload: name, Metric: spec.Name, Unit: spec.Unit, Bound: spec.Bound, Values: v, Median: medianOf(v), Spread: quartileSpread(v)}
			row.Range = (sorted[len(sorted)-1] - sorted[0]) / row.Median
			switch {
			case row.Spread*3 <= spec.Bound:
				row.Verdict = "steady"
			case row.Spread <= spec.Bound:
				row.Verdict = "within"
			default:
				row.Verdict = "exceeds"
			}
			rows = append(rows, row)
		}
	}
	return enc.Encode(map[string]any{"conditions": cond, "first_seed": seed, "sets": sets, "seconds": seconds, "spread": rows})
}
