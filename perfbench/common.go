package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"stinspector/internal/behavior"
	"stinspector/internal/core"
	"stinspector/internal/dfg"
	"stinspector/internal/intern"
	"stinspector/internal/pm"
	"stinspector/internal/render"
	"stinspector/internal/stats"
	"stinspector/internal/trace"
)

// ledger counts operations and failures. An error, a mismatch against
// the reference, a dropped line, a shed case or a session fault each
// count as one failure.
type ledger struct {
	attempted, failed int
	notes             []string
}

// op records one operation and reports whether it succeeded.
func (l *ledger) op(err error, what string) bool {
	l.attempted++
	if err != nil {
		l.fail(fmt.Sprintf("%s: %v", what, err))
		return false
	}
	return true
}

// check records a failure (without a new operation) when ok is false.
func (l *ledger) check(ok bool, format string, args ...any) {
	if !ok {
		l.fail(fmt.Sprintf(format, args...))
	}
}

func (l *ledger) fail(note string) {
	l.failed++
	if len(l.notes) < 20 {
		l.notes = append(l.notes, note)
	}
}

// same compares a rendered artifact against its reference.
func (l *ledger) same(got, want, what string) {
	l.check(got == want, "%s differs from the reference (%d vs %d bytes)", what, len(got), len(want))
}

// passSample is what one measured pass reports besides its timings.
type passSample struct {
	// counts are exact structural counts (they repeat between runs).
	counts map[string]float64
	// samples are workload-specific timings, appended to the run's
	// samples of the same name.
	samples map[string][]float64
}

// workers is the parse and decode parallelism of every workload: one
// worker per vCPU of the 2-vCPU machines the benchmark was sized on.
const workers = 2

// runner drives one workload over inputs generated by setup.
type runner interface {
	// events is the input event count that throughput is quoted per.
	events() int
	// pass runs one pass. With a nil tracer it calls the program the
	// way a user does; with a tracer it reproduces the same pass from
	// outside, one span per call into a layer, under a root span named
	// "pass", and then runs any per-layer probes under a root "probe".
	pass(tr *tracer, l *ledger) passSample
}

// workloadDef names a workload and the functions that make its inputs
// and load them for passes.
type workloadDef struct {
	name, why string
	// setup generates the inputs for seed under dir and writes them and
	// the reference artifacts there.
	setup func(dir string, seed int64, scale float64) error
	load  func(dir string) (runner, error)
}

var workloads = []workloadDef{
	{
		name:  "ior_compare",
		why:   "Fig. 9 IOR comparison from strace text: parse and decode take half the CPU; snapshot and serve never run",
		setup: setupIOR,
		load:  loadIOR,
	},
	{
		name:  "heavytail_archive",
		why:   "heavytail profile from STA v2: decode is nearly free; aggregate folds, stats.Finalize and render dominate",
		setup: setupHeavytail,
		load:  loadHeavytail,
	},
	{
		name:  "session_checkpoint",
		why:   "closed-loop client on a serve session: the only workload running checkpoints, snapshot encode/decode and fsatomic",
		setup: setupSession,
		load:  loadSession,
	},
}

func lookupWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// scaled returns max(1, round(n·scale)).
func scaled(n int, scale float64) int {
	v := int(float64(n)*scale + 0.5)
	if v < 1 {
		v = 1
	}
	return v
}

// digestDir hashes every regular file under dir (names and contents, in
// name order), so two setups can prove they generated the same inputs.
func digestDir(dir string) (string, error) {
	var names []string
	err := filepath.WalkDir(dir, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			names = append(names, p)
		}
		return nil
	})
	if err != nil {
		return "", err
	}
	sort.Strings(names)
	h := sha256.New()
	for _, p := range names {
		rel, _ := filepath.Rel(dir, p)
		fmt.Fprintf(h, "%s\x00", filepath.ToSlash(rel))
		f, err := os.Open(p)
		if err != nil {
			return "", err
		}
		_, err = io.Copy(h, f)
		f.Close()
		if err != nil {
			return "", err
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			n += info.Size()
		}
		return nil
	})
	return n, err
}

// writeRefs stores reference artifacts as dir/ref/<name>.
func writeRefs(dir string, refs map[string]string) error {
	rd := filepath.Join(dir, "ref")
	if err := os.MkdirAll(rd, 0o755); err != nil {
		return err
	}
	for name, text := range refs {
		if err := os.WriteFile(filepath.Join(rd, name), []byte(text), 0o644); err != nil {
			return err
		}
	}
	return nil
}

func readRef(dir, name string) (string, error) {
	b, err := os.ReadFile(filepath.Join(dir, "ref", name))
	return string(b), err
}

// folder reproduces core's one-shard analysis fold from outside: the
// same builders, fed in the same order, each call in its own span. It
// reuses the workload's mapping value unchanged, so the SymMapper
// memoizes it exactly as core's fold does.
type folder struct {
	tr     *tracer
	sm     *pm.SymMapper
	pmB    *pm.Builder
	dfgB   *dfg.Builder
	stC    *stats.Computer
	bh     *behavior.Profile
	syms   []intern.Sym
	cases  int
	events int
}

func newFolder(m pm.Mapping, tr *tracer) *folder {
	sm := pm.NewSymMapper(m)
	return &folder{
		tr:   tr,
		sm:   sm,
		pmB:  pm.NewBuilderSym(sm, pm.BuildOptions{Endpoints: true}),
		dfgB: dfg.NewBuilderSym(sm.Acts()),
		stC:  stats.NewComputerSym(sm),
		bh:   behavior.New(),
	}
}

func (f *folder) add(c *trace.Case) {
	f.cases++
	f.events += len(c.Events)
	tr := f.tr
	tr.begin("pm.map")
	f.syms = f.sm.MapCase(c, f.syms[:0])
	tr.end()
	tr.begin("pm.fold")
	seq, ok := f.pmB.AddMapped(c.ID, f.syms)
	tr.end()
	if ok {
		tr.begin("dfg.fold")
		f.dfgB.AddSymVariant(seq, 1)
		tr.end()
	}
	tr.begin("stats.fold")
	f.stC.AddMapped(c, f.syms)
	tr.end()
	tr.begin("behavior.fold")
	f.bh.AddCase(c)
	tr.end()
}

func (f *folder) finalize() *core.StreamResult {
	res := &core.StreamResult{Behavior: f.bh, Cases: f.cases, Events: f.events, Symbols: f.sm.Acts().Len()}
	f.tr.do("pm.finalize", func() { res.ActivityLog = f.pmB.Finalize() })
	f.tr.do("dfg.finalize", func() { res.DFG = f.dfgB.Finalize() })
	f.tr.do("stats.finalize", func() { res.Stats = f.stC.Finalize() })
	return res
}

// foldCounts records the structural counts of a finalized fold.
func foldCounts(counts map[string]float64, res *core.StreamResult) {
	counts["pm.variants"] = float64(res.ActivityLog.NumVariants())
	counts["dfg.nodes"] = float64(res.DFG.NumNodes())
	counts["dfg.edges"] = float64(res.DFG.NumEdges())
	counts["stats.intervals"] = float64(statsIntervals(res.Stats))
}

// statsIntervals is the number of intervals the max-concurrency sweeps
// of stats.Finalize sorted: one per mapped event.
func statsIntervals(st *stats.Stats) int {
	n := 0
	for _, a := range st.Activities() {
		n += st.Get(a).Events
	}
	return n
}

// renderVariants formats the variants the way the serving layer's
// "variants" artifact does.
func renderVariants(l *pm.Log) string {
	var b []byte
	for _, v := range l.Variants() {
		b = fmt.Appendf(b, "%4d× %s\n", v.Mult, v.Seq)
	}
	return string(b)
}

// renderFold renders the artifacts of a streaming fold.
func renderFold(res *core.StreamResult) map[string]string {
	return map[string]string{
		"dfg":      render.RenderText(res.DFG, res.Stats, nil),
		"stats":    render.StatsTable(res.Stats),
		"variants": renderVariants(res.ActivityLog),
		"behavior": res.Behavior.RenderText(),
	}
}
