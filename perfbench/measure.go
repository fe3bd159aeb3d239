package main

import (
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"
)

// measurePasses runs untraced passes until budget has passed and at
// least minPasses have run, recording each pass's wall time, CPU time,
// allocated bytes and garbage-collector work. Every pass starts from a
// collected heap, so no pass pays for garbage an earlier one left.
func measurePasses(r runner, l *ledger, budget time.Duration, minPasses int, samples map[string][]float64) {
	gc := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	var ms runtime.MemStats
	start := time.Now()
	for n := 0; n < minPasses || time.Since(start) < budget; n++ {
		runtime.GC()
		runtime.ReadMemStats(&ms)
		alloc0 := ms.TotalAlloc
		metrics.Read(gc)
		gcCPU0, gcCycles0 := gc[0].Value.Float64(), gc[1].Value.Uint64()
		cpu0 := cpuTime()
		t0 := time.Now()

		ps := r.pass(nil, l)

		wall := time.Since(t0)
		cpu := cpuTime() - cpu0
		metrics.Read(gc)
		runtime.ReadMemStats(&ms)
		samples["wall_s"] = append(samples["wall_s"], wall.Seconds())
		samples["cpu_s"] = append(samples["cpu_s"], cpu.Seconds())
		samples["alloc_bytes"] = append(samples["alloc_bytes"], float64(ms.TotalAlloc-alloc0))
		samples["gc_cpu_s"] = append(samples["gc_cpu_s"], gc[0].Value.Float64()-gcCPU0)
		samples["gc_cycles"] = append(samples["gc_cycles"], float64(gc[1].Value.Uint64()-gcCycles0))
		for k, xs := range ps.samples {
			samples[k] = append(samples[k], xs...)
		}
	}
}

// tracedPasses runs traced passes with the workload's parallelism until
// budget has passed (at least two), then one sequential accounting
// pass that counts allocations per layer. It returns the per-layer
// metrics, each time the median over the traced passes, and the
// structural counts of the last pass.
func tracedPasses(r runner, l *ledger, tr *tracer, budget time.Duration, samples map[string][]float64) (map[string]float64, map[string]float64) {
	var perPass []map[string]float64
	var counts map[string]float64
	events := float64(r.events())
	start := time.Now()
	for n := 0; n < 2 || time.Since(start) < budget; n++ {
		runtime.GC()
		tr.pass = n
		ps := r.pass(tr, l)
		lt := tr.totals(n, "pass")
		samples["traced_wall_s"] = append(samples["traced_wall_s"], lt.wall.Seconds())
		perPass = append(perPass, layerValues(lt, ps.counts, events))
		counts = ps.counts
	}
	layers := map[string]float64{}
	for _, m := range perLayer {
		var xs []float64
		for _, p := range perPass {
			xs = append(xs, p[m.name])
		}
		layers[m.name] = median(xs)
	}

	acct := newTracer(1, true)
	runtime.GC()
	ps := r.pass(acct, l)
	for name, v := range layerValues(acct.totals(0, "pass"), ps.counts, events) {
		if strings.HasSuffix(name, ".allocs_per_event") {
			layers[name] = v
		}
	}

	for name, v := range serveMetrics(samples, r.events()) {
		layers[name] = v
	}
	layers["bench.trace_overhead"] = median(samples["traced_wall_s"]) / median(samples["wall_s"])
	layers["runtime.gc_cpu_s"] = median(samples["gc_cpu_s"])
	layers["runtime.gc_cycles"] = median(samples["gc_cycles"])
	return layers, counts
}

// layerValues turns one traced pass's span account and counts into the
// per-layer metrics. Times are self times summed over the layer's calls;
// worker-lane spans (parse, decode) are busy time on the workers.
// Allocations are divided by the workload's input events.
func layerValues(lt layerTotals, counts map[string]float64, events float64) map[string]float64 {
	v := map[string]float64{}
	for _, m := range perLayer {
		if c, ok := counts[m.name]; ok {
			v[m.name] = c
		}
	}
	self := func(name string) float64 { return lt.self[name].Seconds() }
	perEvent := func(names ...string) float64 {
		var n int64
		for _, name := range names {
			n += lt.allocs[name]
		}
		return float64(n) / events
	}
	v["strace.parse_s"] = lt.total["strace.parse"].Seconds()
	if p := v["strace.parse_s"]; p > 0 {
		v["strace.mb_per_s"] = counts["strace.bytes"] / 1e6 / p
	}
	// The whole load step's allocations (parse, reorder, drain) are
	// charged to parsing.
	v["strace.allocs_per_event"] = float64(lt.allocsIncl["strace.load"]+lt.allocs["strace.follow_parse"]) / events
	v["strace.follow_parse_s"] = self("strace.follow_parse")
	v["source.wait_s"] = self("source.next")
	v["archive.open_s"] = self("archive.open")
	v["archive.decode_s"] = lt.total["archive.decode"].Seconds()
	for _, layer := range []string{"pm.map", "pm.fold", "pm.finalize", "dfg.fold", "dfg.finalize", "dfg.classify",
		"stats.fold", "stats.finalize", "behavior.fold", "behavior.render", "render.text", "render.dot",
		"core.fold", "core.checkpoint_fold", "snapshot.encode", "snapshot.decode", "snapshot.merge",
		"pm.encode", "dfg.encode", "stats.encode", "behavior.encode", "fsatomic.write"} {
		v[layer+"_s"] = self(layer)
	}
	v["pm.allocs_per_event"] = perEvent("pm.map", "pm.fold", "pm.finalize")
	v["dfg.allocs_per_event"] = perEvent("dfg.fold", "dfg.finalize")
	v["stats.allocs_per_event"] = perEvent("stats.fold", "stats.finalize")
	v["behavior.allocs_per_event"] = perEvent("behavior.fold")
	if f := v["core.fold_s"]; f > 0 {
		v["core.checkpoint_ratio"] = v["core.checkpoint_fold_s"] / f
	}
	v["bench.unattributed_s"] = (lt.wall - lt.attributed).Seconds()
	return v
}

// cpuTime is the user plus system CPU time of the process so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// quantile is the q-quantile of xs with linear interpolation between
// closest ranks; 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }
