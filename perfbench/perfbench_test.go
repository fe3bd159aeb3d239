package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// testScale shrinks every workload so the self-test runs in seconds.
const testScale = 1.0 / 16

// allocSlack is the number of allocations two identical passes may
// differ by whatever their size.
const allocSlack = 8

// tracedRun sets up a workload in a fresh directory and runs one traced
// pass over it, returning the input digest, the pass's per-layer
// metrics and its ledger.
func tracedRun(t *testing.T, w workloadDef, seed int64) (string, map[string]float64, ledger) {
	t.Helper()
	dir := t.TempDir()
	if err := w.setup(dir, seed, testScale); err != nil {
		t.Fatalf("%s setup: %v", w.name, err)
	}
	digest, err := digestDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	r, err := w.load(dir)
	if err != nil {
		t.Fatalf("%s load: %v", w.name, err)
	}
	var l ledger
	r.pass(nil, &l) // warm-up, as in a measured run
	tr := newTracer(1, true)
	runtime.GC()
	ps := r.pass(tr, &l)
	v := layerValues(tr.totals(0, "pass"), ps.counts, float64(r.events()))
	v["events"] = float64(r.events())
	return digest, v, l
}

// TestDeterminism checks that the inputs are a pure function of the
// seed and that the exact counts repeat between two runs, with the
// per-layer allocation counts within 0.5%. At this reduced size a few
// objects are 0.5%, and a pass allocates a few more or fewer depending
// on how many collections empty the program's sync.Pools during it, so
// counts within allocSlack objects also pass.
func TestDeterminism(t *testing.T) {
	exact := []string{"events", "dfg.nodes", "dfg.edges", "intern.symbols", "render.bytes", "snapshot.bytes"}
	allocs := []string{"strace.allocs_per_event", "pm.allocs_per_event", "dfg.allocs_per_event",
		"stats.allocs_per_event", "behavior.allocs_per_event"}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			d1, v1, l1 := tracedRun(t, w, 7)
			d2, v2, l2 := tracedRun(t, w, 7)
			d3, _, _ := tracedRun(t, w, 8)
			for _, l := range []ledger{l1, l2} {
				if l.failed != 0 || l.attempted == 0 {
					t.Fatalf("%d of %d operations failed: %v", l.failed, l.attempted, l.notes)
				}
			}
			if d1 != d2 {
				t.Errorf("same seed, different inputs: %s vs %s", d1, d2)
			}
			if d1 == d3 {
				t.Errorf("seeds 7 and 8 generated the same inputs %s", d1)
			}
			for _, k := range exact {
				if v1[k] != v2[k] {
					t.Errorf("%s: %v vs %v", k, v1[k], v2[k])
				}
			}
			for _, k := range allocs {
				a, b := v1[k], v2[k]
				if math.Abs(a-b) > math.Max(0.005*math.Max(a, b), allocSlack/v1["events"]) {
					t.Errorf("%s: %v vs %v differ by more than 0.5%%", k, a, b)
				}
			}
			if v1["dfg.nodes"] == 0 || v1["intern.symbols"] == 0 || v1["render.bytes"] == 0 {
				t.Errorf("empty structure: %v", v1)
			}
		})
	}
}

// TestMismatchFails checks that a pass whose output differs from the
// reference is counted as a failure.
func TestMismatchFails(t *testing.T) {
	w, _ := lookupWorkload("heavytail_archive")
	dir := t.TempDir()
	if err := w.setup(dir, 1, testScale); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "ref", "dfg"), []byte("not the graph\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := w.load(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range []*tracer{nil, newTracer(workers, false)} {
		var l ledger
		r.pass(tr, &l)
		if l.failed == 0 {
			t.Errorf("traced=%v: a wrong reference went unnoticed", tr != nil)
		}
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json lists exactly the
// workloads and metrics this program reports.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, want %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := spec.Workloads[i]; got.Name != w.name || got.Why != w.why {
			t.Errorf("workload %d: %+v, want %s: %s", i, got, w.name, w.why)
		}
	}
	compare := func(kind string, got []metric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics, want %d", kind, len(got), len(want))
		}
		for i, m := range want {
			if got[i].Name != m.name || got[i].Unit != m.unit || got[i].Better != m.better {
				t.Errorf("%s %d: %+v, want %s %s %s", kind, i, got[i], m.name, m.unit, m.better)
			}
		}
	}
	compare("end_to_end", spec.EndToEnd, endToEnd)
	compare("per_layer", spec.PerLayer, perLayer)
}
