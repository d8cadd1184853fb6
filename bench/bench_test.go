package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

// raceEnabled is set by race_test.go when the race detector is on.
var raceEnabled bool

// smallSizes is about 1/100 of fullSizes: enough for every code path of
// every workload, small enough for go test.
var smallSizes = sizes{
	offersPerRound: 50, batchesPerRound: 4,
	cycleIters: 20, lifecycleIters: 10,
	recoverTail: 25,
}

func smallRun(t *testing.T, workload string, trace bool) (*run, *report) {
	t.Helper()
	cfg := runConfig{
		workload: workload, seed: 7, seconds: 1, fixed: 3, trace: trace,
		sizes: smallSizes, workDir: filepath.Join(t.TempDir(), "work"),
	}
	r, err := execute(cfg, 2)
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	return r, buildReport(r, recordConditions(2))
}

// Each workload runs with the correctness gate on, so the harness keeps
// compiling against — and agreeing with — the node's public API. The
// traced repetition of the same fixed work must count the same.
func TestWorkloads(t *testing.T) {
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			_, rep := smallRun(t, w.name, false)
			for _, c := range rep.Checks {
				if !c.OK {
					t.Errorf("check %q failed: %s", c.Name, c.Detail)
				}
			}
			if rep.OpsFailed != 0 || rep.OpsAttempted == 0 {
				t.Errorf("%d of %d operations failed: %s", rep.OpsFailed, rep.OpsAttempted, rep.FirstError)
			}
			if rep.Rounds == 0 {
				t.Error("no round completed")
			}
			line := contractLine(rep)
			if !line.Correct || len(line.Metrics) != len(endToEnd) {
				t.Errorf("result line %+v, want correct with %d metrics", line, len(endToEnd))
			}
			for _, spec := range endToEnd {
				if v := line.Metrics[spec.Name]; !(v.Value > 0) || v.Unit != spec.Unit {
					t.Errorf("%s = %v %q, want a positive value in %s", spec.Name, v.Value, v.Unit, spec.Unit)
				}
			}

			traced, trep := smallRun(t, w.name, true)
			if !reflect.DeepEqual(rep.Counts, trep.Counts) || rep.OpsAttempted != trep.OpsAttempted || rep.Rounds != trep.Rounds {
				t.Errorf("traced run counted differently:\nuntraced %d ops %d rounds %v\ntraced   %d ops %d rounds %v",
					rep.OpsAttempted, rep.Rounds, rep.Counts, trep.OpsAttempted, trep.Rounds, trep.Counts)
			}
			checkSpans(t, traced.tr.all())
		})
	}
}

// checkSpans verifies what README.md promises about a span file: every
// span is closed and shares its ancestors' round, and per root the self
// times on the harness track plus the time the client lanes cover add
// up to the root's wall time.
func checkSpans(t *testing.T, spans []span) {
	t.Helper()
	if len(spans) == 0 {
		t.Fatal("traced run recorded no spans")
	}
	byID := make(map[int64]span, len(spans))
	kids := make(map[int64][]span)
	for _, s := range spans {
		byID[s.ID] = s
		kids[s.Parent] = append(kids[s.Parent], s)
	}
	self := selfTimes(spans)
	sum := make(map[int64]time.Duration) // root ID → accounted time
	for _, s := range spans {
		if s.End < s.Start {
			t.Fatalf("span %+v never ended", s)
		}
		root := s
		for root.Parent != 0 {
			p, ok := byID[root.Parent]
			if !ok {
				t.Fatalf("span %+v has no parent", root)
			}
			if p.Round != s.Round {
				t.Fatalf("span %+v is in another round than its ancestor %+v", s, p)
			}
			root = p
		}
		if s.Track != 0 {
			continue
		}
		sum[root.ID] += self[s.ID]
		// What the span's children cover, less the children that are on
		// the harness track themselves (they account for their own
		// time), is what its parallel client lanes cover.
		covered := s.End - s.Start - self[s.ID]
		for _, k := range kids[s.ID] {
			if k.Track == 0 {
				covered -= k.End - k.Start
			}
		}
		sum[root.ID] += covered
	}
	for id, got := range sum {
		root := byID[id]
		if want := root.End - root.Start; got != want {
			t.Errorf("root %s of round %d: self times add up to %v, wall time is %v", root.Name, root.Round, got, want)
		}
	}
}

// The standalone layer measurements must produce every layer metric
// the contract lists (run.* and trace.* come from the traced workload).
func TestLayerSuiteCoversThePerLayerContract(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("times one full round per layer")
	}
	got, err := layerSuite(newGenerator(7), 7, filepath.Join(t.TempDir(), "layers"))
	if err != nil {
		t.Fatal(err)
	}
	r, _ := smallRun(t, "lifecycle", false)
	for k, v := range r.counters {
		got[k] = v
	}
	for _, spec := range perLayer {
		if _, ok := got[spec.Name]; !ok && spec.Name[:6] != "trace." {
			t.Errorf("per-layer metric %s is not produced", spec.Name)
		}
	}
	for name := range got {
		found := false
		for _, spec := range perLayer {
			found = found || spec.Name == name
		}
		if !found {
			t.Errorf("metric %s is produced but not in the per-layer contract", name)
		}
	}
}

// BENCHMARK.json at the repository root and the specs in this package
// are two copies of one contract.
func TestBenchmarkJSONMatchesTheCode(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Paths     []string `json:"paths"`
		Workloads []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricSpec `json:"end_to_end"`
		PerLayer []metricSpec `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(doc.Paths, []string{"bench"}) {
		t.Errorf("paths = %v", doc.Paths)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the code", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the code %q: %q", i, doc.Workloads[i], w.name, w.why)
		}
	}
	if !reflect.DeepEqual(doc.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\nBENCHMARK.json %+v\ncode           %+v", doc.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(doc.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\nBENCHMARK.json %+v\ncode           %+v", doc.PerLayer, perLayer)
	}
}
