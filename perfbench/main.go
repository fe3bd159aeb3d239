// Command perfbench is stinspector's benchmark. It times the whole path
// from trace bytes to rendered artifacts on three workloads, each of
// which makes a different layer do most of the work, checks every
// output against a reference, and, in a separate traced run, splits a
// pass into the calls it makes into each layer.
//
//	bash perfbench/run.sh --workload ior_compare --seed 1 --seconds 30 --trace 0
//
// run.sh builds this package and runs it from the root of the
// repository. The last line of standard output is one JSON object with
// the keys correct, attempted, failed and metrics: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1. The
// line before it holds the details: machine metadata, the input digest,
// every per-pass sample and the workload's own latency metrics.
//
// A run sets up several times, each in a fresh child process, and
// measures in another child, so that peak_rss_mb covers the passes and
// not the generators. setup_s is the median over the set-up children of
// the time to generate the inputs and the reference, load them and run
// the first, warm-up pass.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// setups is how many times a run sets up; setup_s takes the median.
const setups = 3

// minPassSeconds is the shortest median pass a run accepts: shorter
// timings are too noisy to compare.
const minPassSeconds = 0.1

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	workdir  string
	role     string
	dir      string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload: ior_compare, heavytail_archive or session_checkpoint")
	flag.Int64Var(&o.seed, "seed", 1, "seed the inputs are generated from")
	flag.Float64Var(&o.seconds, "seconds", 30, "how long the passes are measured")
	flag.IntVar(&o.trace, "trace", 0, "1 reports the per-layer metrics of a traced run instead of the end-to-end metrics")
	flag.StringVar(&o.workdir, "workdir", filepath.Join(".bench_build", "perfbench"), "directory for generated inputs and spans")
	flag.StringVar(&o.role, "role", "", "internal: setup or measure child")
	flag.StringVar(&o.dir, "dir", "", "internal: input directory of a child")
	flag.Parse()

	w, ok := lookupWorkload(o.workload)
	if !ok || (o.trace != 0 && o.trace != 1) || o.seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, trace %d, seconds %g)\n", o.workload, o.trace, o.seconds)
		os.Exit(2)
	}
	var err error
	switch o.role {
	case "":
		err = orchestrate(w, o)
	case "setup":
		err = childSetup(w, o)
	case "measure":
		err = childMeasure(w, o)
	default:
		err = fmt.Errorf("unknown role %q", o.role)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// setupResult is what a setup child reports.
type setupResult struct {
	SetupS    float64  `json:"setup_s"`
	Digest    string   `json:"digest"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Notes     []string `json:"notes,omitempty"`
}

// childSetup generates the inputs and the reference, loads them the way
// the measuring child will and runs the first pass over them. The input
// digest is taken outside the timed span.
func childSetup(w workloadDef, o options) error {
	start := time.Now()
	if err := w.setup(o.dir, o.seed, 1); err != nil {
		return err
	}
	genS := time.Since(start).Seconds()
	digest, err := digestDir(o.dir)
	if err != nil {
		return err
	}
	start = time.Now()
	r, err := w.load(o.dir)
	if err != nil {
		return err
	}
	var l ledger
	r.pass(nil, &l)
	return json.NewEncoder(os.Stdout).Encode(setupResult{
		SetupS: genS + time.Since(start).Seconds(), Digest: digest,
		Attempted: l.attempted, Failed: l.failed, Notes: l.notes,
	})
}

// measureResult is what a measuring child reports.
type measureResult struct {
	Events     int                  `json:"events"`
	Attempted  int                  `json:"attempted"`
	Failed     int                  `json:"failed"`
	Notes      []string             `json:"notes,omitempty"`
	Samples    map[string][]float64 `json:"samples"`
	PeakRSSMB  float64              `json:"peak_rss_mb"`
	Workload   map[string]float64   `json:"workload_metrics,omitempty"`
	Layers     map[string]float64   `json:"layers,omitempty"`
	Counts     map[string]float64   `json:"counts,omitempty"`
	Goroutines int                  `json:"goroutines_after"`
	SpansFile  string               `json:"spans_file,omitempty"`
}

func childMeasure(w workloadDef, o options) error {
	r, err := w.load(o.dir)
	if err != nil {
		return err
	}
	var l ledger
	start := time.Now()
	r.pass(nil, &l) // warm-up
	res := measureResult{Events: r.events(), Samples: map[string][]float64{
		"warmup_s": {time.Since(start).Seconds()},
	}}
	budget := time.Duration(o.seconds * float64(time.Second))
	if o.trace == 0 {
		measurePasses(r, &l, budget, 5, res.Samples)
	} else {
		// Half the time goes to untraced passes, the denominator of the
		// tracing overhead, and half to traced ones.
		measurePasses(r, &l, budget/2, 3, res.Samples)
		tr := newTracer(workers, false)
		res.Layers, res.Counts = tracedPasses(r, &l, tr, budget/2, res.Samples)
		res.SpansFile = filepath.Join(o.dir, "spans.jsonl")
		if err := tr.write(res.SpansFile); err != nil {
			return err
		}
	}
	res.Workload = serveMetrics(res.Samples, r.events())
	res.Attempted, res.Failed, res.Notes = l.attempted, l.failed, l.notes
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return err
	}
	res.PeakRSSMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	res.Goroutines = runtime.NumGoroutine()
	return json.NewEncoder(os.Stdout).Encode(res)
}

// orchestrate runs the setup children, then the measuring child, and
// prints the result.
func orchestrate(w workloadDef, o options) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	workdir, err := filepath.Abs(o.workdir)
	if err != nil {
		return err
	}
	base := filepath.Join(workdir, fmt.Sprintf("%s-%d-%d", w.name, o.seed, os.Getpid()))
	if err := os.MkdirAll(base, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(base)

	args := func(role, dir string) []string {
		return []string{
			"-role", role, "-dir", dir, "-workload", w.name,
			"-seed", fmt.Sprint(o.seed), "-seconds", fmt.Sprint(o.seconds),
			"-trace", fmt.Sprint(o.trace),
		}
	}
	var attempted, failed int
	var notes []string
	var setupS []float64
	var digests []string
	var dir string
	for i := 0; i < setups; i++ {
		if dir != "" {
			if err := os.RemoveAll(dir); err != nil {
				return err
			}
		}
		dir = filepath.Join(base, fmt.Sprintf("setup-%d", i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		var sr setupResult
		if err := runChild(self, args("setup", dir), &sr); err != nil {
			return fmt.Errorf("setup %d: %w", i, err)
		}
		setupS = append(setupS, sr.SetupS)
		digests = append(digests, sr.Digest)
		attempted += sr.Attempted
		failed += sr.Failed
		notes = append(notes, sr.Notes...)
	}
	for _, d := range digests[1:] {
		if d != digests[0] {
			failed++
			notes = append(notes, fmt.Sprintf("setups generated different inputs: %v", digests))
			break
		}
	}

	var mr measureResult
	steal0 := stealSeconds()
	if err := runChild(self, args("measure", dir), &mr); err != nil {
		return fmt.Errorf("measure: %w", err)
	}
	steal := stealSeconds() - steal0
	attempted += mr.Attempted
	failed += mr.Failed
	notes = append(notes, mr.Notes...)
	if mr.SpansFile != "" {
		// Keep the spans of the latest traced run of each workload; the
		// inputs themselves are removed.
		kept := filepath.Join(workdir, fmt.Sprintf("spans-%s.jsonl", w.name))
		if err := os.Rename(mr.SpansFile, kept); err != nil {
			return err
		}
		mr.SpansFile = kept
	}

	metrics := map[string]metricValue{}
	if o.trace == 0 {
		wall := median(mr.Samples["wall_s"])
		if wall < minPassSeconds {
			failed++
			notes = append(notes, fmt.Sprintf("median pass of %.3fs is below the %gs floor", wall, minPassSeconds))
		}
		ev := float64(mr.Events)
		put := func(name string, v float64) {
			metrics[name] = metricValue{Value: v, Unit: unitOf(endToEnd, name)}
		}
		put("wall_s", wall)
		put("events_per_s", ev/wall)
		put("cpu_s", median(mr.Samples["cpu_s"]))
		put("setup_s", median(setupS))
		put("peak_rss_mb", mr.PeakRSSMB)
		put("alloc_bytes_per_event", median(mr.Samples["alloc_bytes"])/ev)
	} else {
		for _, m := range perLayer {
			metrics[m.name] = metricValue{Value: mr.Layers[m.name], Unit: m.unit}
		}
	}
	mr.Samples["setup_s"] = setupS

	detail := map[string]any{
		"workload": w.name, "why": w.why, "seed": o.seed, "seconds": o.seconds,
		"trace": o.trace, "events": mr.Events,
		"machine":          machine(workdir),
		"steal_s":          steal,
		"input_digest":     digests[0],
		"samples":          mr.Samples,
		"workload_metrics": mr.Workload,
		"counts":           mr.Counts,
		"failure_share":    float64(failed) / float64(max(attempted, 1)),
		"goroutines_after": mr.Goroutines,
		"spans_file":       mr.SpansFile,
		"notes":            notes,
	}
	out := result{
		Correct:   failed == 0 && attempted > 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   metrics,
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(map[string]any{"detail": detail}); err != nil {
		return err
	}
	return enc.Encode(out)
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func unitOf(defs []metricDef, name string) string {
	for _, d := range defs {
		if d.name == name {
			return d.unit
		}
	}
	return ""
}

// runChild runs this program in another role, waits for it and decodes
// the last line of its standard output into v.
func runChild(self string, args []string, v any) error {
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return err
	}
	out = bytes.TrimSpace(out)
	if i := bytes.LastIndexByte(out, '\n'); i >= 0 {
		out = out[i+1:]
	}
	if len(out) == 0 {
		return errors.New("no result")
	}
	return json.Unmarshal(out, v)
}

// stealSeconds is the time the hypervisor ran something else while a
// vCPU of this machine was ready, summed over the vCPUs since boot, as
// the steal column of /proc/stat counts it (in USER_HZ ticks of 1/100 s
// on Linux). It is 0 where /proc/stat is missing. The difference over
// the measuring child tells a slow run on a busy host from a slow
// program.
func stealSeconds() float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	var ticks float64
	fmt.Sscan(f[8], &ticks)
	return ticks / 100
}

// machine records what the timings depend on.
func machine(workdir string) map[string]any {
	m := map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"goos":       runtime.GOOS + "/" + runtime.GOARCH,
		"workdir":    workdir,
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				m["cpu"] = strings.TrimSpace(v)
				break
			}
		}
	}
	var st syscall.Statfs_t
	if err := syscall.Statfs(workdir, &st); err == nil {
		fs := fmt.Sprintf("0x%x", st.Type)
		switch st.Type {
		case 0x01021994:
			fs = "tmpfs"
		case 0xef53:
			fs = "ext4"
		case 0x794c7630:
			fs = "overlayfs"
		}
		m["workdir_fs"] = fs
	}
	return m
}
