package main

import (
	"path/filepath"
	"time"

	"stinspector/internal/archive"
	"stinspector/internal/core"
	"stinspector/internal/intern"
	"stinspector/internal/pm"
	"stinspector/internal/render"
	"stinspector/internal/source"
	"stinspector/internal/synth/profiles"
	"stinspector/internal/trace"
)

// heavytailPerCase is the events per case of the heavytail profile.
const heavytailPerCase = 2000

// setupHeavytail generates the heavytail profile (256 cases × 2000
// events at scale 1), writes it as one STA v2 archive and renders the
// reference in memory.
func setupHeavytail(dir string, seed int64, scale float64) error {
	p, _ := profiles.Lookup("heavytail")
	log := p.Generate("ht", scaled(256, scale), heavytailPerCase, seed)
	if err := archive.WriteFileV2(filepath.Join(dir, "heavytail.sta"), log); err != nil {
		return err
	}
	in := core.FromEventLog(log)
	st := in.Stats()
	return writeRefs(dir, map[string]string{
		"dfg":      render.RenderText(in.DFG(), st, nil),
		"stats":    render.StatsTable(st),
		"behavior": in.Behavior().RenderText(),
	})
}

type heavytailRunner struct {
	path    string
	m       pm.Mapping
	ref     map[string]string
	nEvents int
}

func loadHeavytail(dir string) (runner, error) {
	r := &heavytailRunner{path: filepath.Join(dir, "heavytail.sta"), m: pm.CallTopDirs{Depth: 2}, ref: map[string]string{}}
	for _, k := range []string{"dfg", "stats", "behavior"} {
		s, err := readRef(dir, k)
		if err != nil {
			return nil, err
		}
		r.ref[k] = s
	}
	ar, err := archive.Open(r.path)
	if err != nil {
		return nil, err
	}
	r.nEvents = ar.NumEvents()
	return r, ar.Close()
}

func (r *heavytailRunner) events() int { return r.nEvents }

func (r *heavytailRunner) check(l *ledger, res *core.StreamResult, dfgText, statsText, behaviorText string) {
	l.check(res.Events == r.nEvents, "heavytail_archive: folded %d events, want %d", res.Events, r.nEvents)
	l.same(dfgText, r.ref["dfg"], "heavytail_archive dfg")
	l.same(statsText, r.ref["stats"], "heavytail_archive stats")
	l.same(behaviorText, r.ref["behavior"], "heavytail_archive behavior")
}

func (r *heavytailRunner) pass(tr *tracer, l *ledger) passSample {
	if tr != nil {
		return r.tracedPass(tr, l)
	}
	src, err := archive.StreamLogSyms(r.path, workers, 0, intern.NewTable())
	if !l.op(err, "heavytail_archive open") {
		return passSample{}
	}
	res, err := core.AnalyzeStreamParallel(src, r.m, 1, false)
	src.Close()
	if !l.op(err, "heavytail_archive fold") {
		return passSample{}
	}
	r.check(l, res, render.RenderText(res.DFG, res.Stats, nil), render.StatsTable(res.Stats), res.Behavior.RenderText())
	return passSample{}
}

// tracedPass reproduces the untraced pass from outside: the archive
// stream (source.Ordered over Reader.ReadCaseAt, as Reader.Stream
// builds it), core's one-shard fold and the three renders.
func (r *heavytailRunner) tracedPass(tr *tracer, l *ledger) passSample {
	counts := map[string]float64{}
	syms := intern.NewTable()
	tr.begin("pass")
	defer tr.end()

	var ar *archive.Reader
	var err error
	tr.do("archive.open", func() { ar, err = archive.Open(r.path) })
	if !l.op(err, "heavytail_archive open") {
		return passSample{counts: counts}
	}
	ar.SetSyms(syms)
	parent := tr.current()
	src := source.Ordered(ar.NumCases(), tr.parallelism, 0, func(i int) (*trace.Case, error) {
		start := time.Now()
		c, err := ar.ReadCaseAt(i)
		tr.leaf("archive.decode", parent, start, time.Now())
		return c, err
	})
	f := newFolder(r.m, tr)
	err = source.Walk(waitSource{src: src, tr: tr}, false, func(c *trace.Case) error {
		f.add(c)
		return nil
	})
	counts["source.peak_resident"] = float64(source.PeakResident(src))
	src.Close()
	ar.Close()
	if !l.op(err, "heavytail_archive fold") {
		return passSample{counts: counts}
	}
	res := f.finalize()
	var dfgText, statsText, behaviorText string
	tr.do("render.text", func() {
		dfgText = render.RenderText(res.DFG, res.Stats, nil)
		statsText = render.StatsTable(res.Stats)
	})
	tr.do("behavior.render", func() { behaviorText = res.Behavior.RenderText() })
	r.check(l, res, dfgText, statsText, behaviorText)

	foldCounts(counts, res)
	counts["intern.symbols"] = float64(syms.Len())
	counts["render.bytes"] = float64(len(dfgText) + len(statsText) + len(behaviorText))
	return passSample{counts: counts}
}
