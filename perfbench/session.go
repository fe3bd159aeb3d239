package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"stinspector/internal/core"
	"stinspector/internal/fsatomic"
	"stinspector/internal/intern"
	"stinspector/internal/pm"
	"stinspector/internal/render"
	"stinspector/internal/serve"
	"stinspector/internal/snapshot"
	"stinspector/internal/source"
	"stinspector/internal/strace"
	"stinspector/internal/synth/profiles"
	"stinspector/internal/trace"
)

const (
	sessionPerCase = 500
	// sessionEvery is the checkpoint epoch in cases.
	sessionEvery = 32
	// sessionQueryEvery is how many ingested cases pass between two
	// pre-drain queries.
	sessionQueryEvery = 64
	// sessionBudget bounds the session's in-flight cases. Below
	// sessionQueryEvery-sessionEvery it guarantees that the first
	// checkpoint is on disk when the first query arrives.
	sessionBudget = 16
)

// sessionArtifacts are the artifact kinds compared after drain.
var sessionArtifacts = []string{"dfg", "stats", "variants", "behavior"}

// setupSession generates the multitenant profile (384 cases × 500
// events at scale 1), renders every case as strace text and computes the
// reference with a batch fold over the same cases.
func setupSession(dir string, seed int64, scale float64) error {
	p, _ := profiles.Lookup("multitenant")
	log := p.Generate("mt", scaled(384, scale), sessionPerCase, seed)
	cases := filepath.Join(dir, "cases")
	if err := strace.WriteDir(cases, log); err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Join(dir, "tail"), 0o755); err != nil {
		return err
	}
	res, err := core.AnalyzeStreamParallel(source.FromLog(log), pm.CallTopDirs{Depth: 2}, 1, false)
	if err != nil {
		return err
	}
	refs := renderFold(res)
	refs["events"] = strconv.Itoa(res.Events)
	return writeRefs(dir, refs)
}

type sessionRunner struct {
	dir, tail string
	ids       []trace.CaseID
	texts     [][]byte
	m         pm.Mapping
	ref       map[string]string
	nEvents   int
	passes    int
}

func loadSession(dir string) (runner, error) {
	r := &sessionRunner{dir: dir, tail: filepath.Join(dir, "tail"), m: pm.CallTopDirs{Depth: 2}, ref: map[string]string{}}
	for _, k := range append([]string{"events"}, sessionArtifacts...) {
		s, err := readRef(dir, k)
		if err != nil {
			return nil, err
		}
		r.ref[k] = s
	}
	var err error
	if r.nEvents, err = strconv.Atoi(r.ref["events"]); err != nil {
		return nil, err
	}
	ents, err := os.ReadDir(filepath.Join(dir, "cases"))
	if err != nil {
		return nil, err
	}
	for _, e := range ents {
		if !strings.HasSuffix(e.Name(), ".st") {
			continue
		}
		id, err := trace.ParseCaseID(e.Name())
		if err != nil {
			return nil, err
		}
		r.ids = append(r.ids, id)
	}
	sort.Slice(r.ids, func(i, j int) bool { return r.ids[i].Less(r.ids[j]) })
	for _, id := range r.ids {
		b, err := os.ReadFile(filepath.Join(dir, "cases", id.FileName()))
		if err != nil {
			return nil, err
		}
		r.texts = append(r.texts, b)
	}
	return r, nil
}

func (r *sessionRunner) events() int { return r.nEvents }

// serveMetrics computes the serving latencies from the samples of the
// untraced session passes: per-call percentiles over every call of every
// pass, medians of the per-pass figures.
func serveMetrics(samples map[string][]float64, events int) map[string]float64 {
	if len(samples["drain_s"]) == 0 {
		return nil
	}
	return map[string]float64{
		"serve.ingest_p50_ms":        quantile(samples["ingest_ms"], 0.5),
		"serve.ingest_p90_ms":        quantile(samples["ingest_ms"], 0.9),
		"serve.ingest_p99_ms":        quantile(samples["ingest_ms"], 0.99),
		"serve.query_p50_ms":         quantile(samples["query_ms"], 0.5),
		"serve.query_max_ms":         quantile(samples["query_ms"], 1),
		"serve.drain_s":              median(samples["drain_s"]),
		"serve.ckpt_bytes_per_event": median(samples["ckpt_bytes"]) / float64(events),
		"serve.peak_resident":        quantile(samples["peak_resident"], 1),
	}
}

// pass runs one closed-loop client against a fresh serve session:
// create, ingest every case in turn with a stats query every
// sessionQueryEvery cases, drain, and fetch the final artifacts.
func (r *sessionRunner) pass(tr *tracer, l *ledger) passSample {
	state := filepath.Join(r.dir, fmt.Sprintf("state-%d", r.passes))
	r.passes++
	defer os.RemoveAll(state)
	counts := map[string]float64{}
	tr.begin("pass")

	var srv *serve.Server
	var sess *serve.Session
	var err error
	tr.begin("serve.create")
	srv, err = serve.NewServer(serve.Config{StateDir: state})
	if err == nil {
		sess, err = srv.Create(serve.SessionConfig{
			Name: "bench", TraceDir: r.tail, Policy: "block",
			Every: sessionEvery, Shards: 1, Budget: sessionBudget,
		})
	}
	tr.end()
	if !l.op(err, "session create") {
		tr.end()
		return passSample{counts: counts}
	}
	var ingestMS, queryMS []float64
	dropped := 0
	for i, id := range r.ids {
		tr.begin("serve.ingest")
		t0 := time.Now()
		n, d, err := sess.Ingest(id, bytes.NewReader(r.texts[i]))
		ingestMS = append(ingestMS, ms(time.Since(t0)))
		tr.end()
		if l.op(err, "session ingest") {
			l.check(n == sessionPerCase, "session ingest %s: %d events, want %d", id, n, sessionPerCase)
			l.check(d == 0, "session ingest %s: %d dropped lines", id, d)
			dropped += d
		}
		if (i+1)%sessionQueryEvery == 0 {
			tr.begin("serve.query")
			t0 := time.Now()
			out, err := sess.Artifact("stats")
			queryMS = append(queryMS, ms(time.Since(t0)))
			tr.end()
			if l.op(err, "session query") {
				l.check(out != "", "session query after %d cases: empty stats", i+1)
			}
		}
	}
	tr.begin("serve.drain")
	t0 := time.Now()
	err = sess.Drain()
	drain := time.Since(t0)
	tr.end()
	l.op(err, "session drain")
	tr.begin("serve.artifact")
	for _, kind := range sessionArtifacts {
		out, err := sess.Artifact(kind)
		if l.op(err, "session artifact "+kind) {
			l.same(out, r.ref[kind], "session_checkpoint "+kind)
		}
	}
	tr.end()
	tr.end() // pass

	info := sess.Info()
	l.check(info.Shed == 0, "session shed %d cases", info.Shed)
	l.check(len(info.Faults) == 0, "session faults: %v", info.Faults)
	ckpt, err := dirBytes(filepath.Join(state, "bench"))
	l.check(err == nil, "session state size: %v", err)
	srv.Remove("bench")

	counts["serve.shed"] = float64(info.Shed)
	counts["serve.faults"] = float64(len(info.Faults))
	counts["strace.dropped_lines"] = float64(dropped)
	if tr != nil {
		r.probe(tr, l, counts)
	}
	return passSample{counts: counts, samples: map[string][]float64{
		"ingest_ms":     ingestMS,
		"query_ms":      queryMS,
		"drain_s":       {drain.Seconds()},
		"ckpt_bytes":    {float64(ckpt)},
		"peak_resident": {float64(info.PeakResident)},
	}}
}

// probe times the layers the session drives internally by calling
// them directly on the same cases: follow-mode parsing, core's fold
// decomposed per builder, the plain and the checkpointed fold, and the
// snapshot encode, write, decode and merge.
func (r *sessionRunner) probe(tr *tracer, l *ledger, counts map[string]float64) {
	tr.begin("probe")
	defer tr.end()
	syms := intern.NewTable()
	cases := make([]*trace.Case, 0, len(r.ids))
	for i, id := range r.ids {
		tr.begin("strace.follow_parse")
		c, d, err := strace.FollowReader(id, bytes.NewReader(r.texts[i]), strace.Options{Syms: syms})
		tr.end()
		if l.op(err, "probe follow parse") {
			l.check(d == 0, "probe follow parse %s: %d dropped lines", id, d)
			counts["strace.dropped_lines"] += float64(d)
			cases = append(cases, c)
		}
	}
	counts["intern.symbols"] = float64(syms.Len())
	el, err := trace.NewEventLog(cases...)
	if !l.op(err, "probe event log") {
		return
	}

	f := newFolder(r.m, tr)
	for _, c := range el.Cases() {
		f.add(c)
	}
	res := f.finalize()
	var arts map[string]string
	tr.do("render.text", func() {
		arts = map[string]string{
			"dfg":      render.RenderText(res.DFG, res.Stats, nil),
			"stats":    render.StatsTable(res.Stats),
			"variants": renderVariants(res.ActivityLog),
		}
	})
	tr.do("behavior.render", func() { arts["behavior"] = res.Behavior.RenderText() })
	for _, kind := range sessionArtifacts {
		l.same(arts[kind], r.ref[kind], "decomposed fold "+kind)
		counts["render.bytes"] += float64(len(arts[kind]))
	}
	foldCounts(counts, res)

	tr.do("core.fold", func() { _, err = core.AnalyzeStreamParallel(source.FromLog(el), r.m, 1, false) })
	l.op(err, "probe core fold")
	ckdir := filepath.Join(r.dir, "probe-ckpt")
	var marks []time.Time
	start := time.Now()
	tr.do("core.checkpoint_fold", func() {
		_, err = core.AnalyzeStreamCheckpointed(source.FromLog(el), r.m, 1, false, core.CheckpointOptions{
			Dir: ckdir, Every: sessionEvery,
			OnEpoch: func(int) { marks = append(marks, time.Now()) },
		})
	})
	os.RemoveAll(ckdir)
	if l.op(err, "probe checkpointed fold") && len(marks) >= 2 {
		counts["core.epoch_first_ms"] = ms(marks[0].Sub(start))
		counts["core.epoch_last_ms"] = ms(marks[len(marks)-1].Sub(marks[len(marks)-2]))
	}

	snap, err := core.AnalyzeStreamSnapshot(source.FromLog(el), r.m, 1, false)
	if !l.op(err, "probe snapshot fold") {
		return
	}
	var data []byte
	tr.do("snapshot.encode", func() { data = snapshot.Encode(snap) })
	counts["snapshot.bytes"] = float64(len(data))
	for _, a := range []struct {
		name   string
		encode func() []byte
	}{
		{"pm", snap.Log.EncodeSnapshot},
		{"dfg", snap.DFG.EncodeSnapshot},
		{"stats", snap.Stats.EncodeSnapshot},
		{"behavior", snap.Behavior.EncodeSnapshot},
	} {
		var b []byte
		tr.do(a.name+".encode", func() { b = a.encode() })
		counts[a.name+".snapshot_bytes"] = float64(len(b))
	}
	path := filepath.Join(r.dir, "probe.sts")
	defer os.Remove(path)
	tr.do("fsatomic.write", func() { err = fsatomic.WriteFileBytes(path, data) })
	if !l.op(err, "probe snapshot write") {
		return
	}
	tr.do("snapshot.decode", func() { _, err = snapshot.Decode(data, r.m) })
	l.op(err, "probe snapshot decode")
	var merged *core.StreamResult
	tr.do("snapshot.merge", func() { merged, err = core.MergeSnapshotFiles(r.m, path) })
	if l.op(err, "probe snapshot merge") {
		for kind, text := range renderFold(merged) {
			l.same(text, r.ref[kind], "merged snapshot "+kind)
		}
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
