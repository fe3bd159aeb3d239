package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"stinspector/internal/core"
	"stinspector/internal/dfg"
	"stinspector/internal/intern"
	"stinspector/internal/iorsim"
	"stinspector/internal/pm"
	"stinspector/internal/render"
	"stinspector/internal/source"
	"stinspector/internal/stats"
	"stinspector/internal/strace"
	"stinspector/internal/trace"
)

// iorCalls is the Fig. 9 call filter: experiment B records lseek in
// addition to the read/write/openat variants.
var iorCalls = []string{"read", "write", "openat", "pread64", "pwrite64", "lseek"}

// iorRuns are the four IOR configurations compared: POSIX and MPI-IO,
// each with a single shared file and with a file per process.
var iorRuns = []struct {
	cid string
	api iorsim.API
	fpp bool
}{
	{"posix-ssf", iorsim.POSIX, false},
	{"posix-fpp", iorsim.POSIX, true},
	{"mpiio-ssf", iorsim.MPIIO, false},
	{"mpiio-fpp", iorsim.MPIIO, true},
}

// iorGreen are the CIDs of the MPI-IO runs: the green side of the
// partition.
var iorGreen = []string{"mpiio-ssf", "mpiio-fpp"}

// iorSkip omits the openat activities from the render, as the paper's
// Figure 9 does.
var iorSkip = map[string]bool{"openat": true}

// iorMapping is the paper's f̄ at depth 0: site-variable abstraction.
func iorMapping() pm.Mapping {
	site := iorsim.DefaultSite()
	return pm.NewEnvMapping(0,
		pm.PrefixVar{Prefix: site.Scratch, Var: "$SCRATCH"},
		pm.PrefixVar{Prefix: site.Home, Var: "$HOME"},
		pm.PrefixVar{Prefix: site.Software, Var: "$SOFTWARE"},
		pm.PrefixVar{Prefix: site.NodeLocal, Var: "Node Local"},
		pm.PrefixVar{Prefix: "/tmp", Var: "Node Local"},
	)
}

// setupIOR simulates the four IOR runs (192 ranks each on 4 hosts at
// scale 1; 1 MiB transfers, 16 MiB blocks, 3 segments), writes them as
// strace text, one file per rank, and renders the reference from the
// generated event-log in memory.
func setupIOR(dir string, seed int64, scale float64) error {
	ranks := 4 * scaled(48, scale)
	var logs []*trace.EventLog
	for k, run := range iorRuns {
		res, err := iorsim.Run(iorsim.Config{
			CID: run.cid, Ranks: ranks, Hosts: 4, BaseRID: 40000 + 1000*k,
			TransferSize: 1 << 20, BlockSize: 16 << 20, Segments: 3,
			Write: true, Read: true, Fsync: true, ReorderTasks: true,
			FilePerProc: run.fpp, API: run.api, Preamble: true, Seed: seed,
		})
		if err != nil {
			return err
		}
		logs = append(logs, res.Log)
	}
	log, err := trace.Union(logs...)
	if err != nil {
		return err
	}
	if err := strace.WriteDir(filepath.Join(dir, "traces"), log); err != nil {
		return err
	}
	in := core.FromEventLog(log).FilterCalls(iorCalls...).WithMapping(iorMapping())
	full, part := in.PartitionByCID(iorGreen...)
	text, dot, err := renderIOR(full, in.Stats(), part)
	if err != nil {
		return err
	}
	return writeRefs(dir, map[string]string{
		"text":   text,
		"dot":    dot,
		"events": strconv.Itoa(in.EventLog().NumEvents()),
	})
}

func renderIOR(full *dfg.Graph, st *stats.Stats, part *dfg.Partition) (text, dot string, err error) {
	var tb, db bytes.Buffer
	if err := (&render.Text{Graph: full, Stats: st, Partition: part, SkipCalls: iorSkip}).Render(&tb); err != nil {
		return "", "", err
	}
	if err := (&render.DOT{Graph: full, Stats: st, Styler: render.PartitionColoring{Partition: part}, SkipCalls: iorSkip}).Render(&db); err != nil {
		return "", "", err
	}
	return tb.String(), db.String(), nil
}

type iorRunner struct {
	traces    string
	files     []string
	ids       []trace.CaseID
	bytes     int64
	nEvents   int
	m         pm.Mapping
	text, dot string
}

func loadIOR(dir string) (runner, error) {
	r := &iorRunner{traces: filepath.Join(dir, "traces"), m: iorMapping()}
	var err error
	if r.text, err = readRef(dir, "text"); err != nil {
		return nil, err
	}
	if r.dot, err = readRef(dir, "dot"); err != nil {
		return nil, err
	}
	ev, err := readRef(dir, "events")
	if err != nil {
		return nil, err
	}
	if r.nEvents, err = strconv.Atoi(ev); err != nil {
		return nil, err
	}
	ents, err := os.ReadDir(r.traces)
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
		info, err := e.Info()
		if err != nil {
			return nil, err
		}
		r.bytes += info.Size()
		r.ids = append(r.ids, id)
	}
	// Deliver in CaseID order, as strace.StreamDir does.
	sort.Slice(r.ids, func(i, j int) bool { return r.ids[i].Less(r.ids[j]) })
	for _, id := range r.ids {
		r.files = append(r.files, filepath.Join(r.traces, id.FileName()))
	}
	return r, nil
}

func (r *iorRunner) events() int { return r.nEvents }

func (r *iorRunner) options(syms *intern.Table) strace.Options {
	return strace.Options{Parallelism: workers, Syms: syms, Strict: true}
}

// checkPass verifies a pass's artifacts and the Fig. 9 classes.
func (r *iorRunner) checkPass(l *ledger, events int, text, dot string, part *dfg.Partition) {
	l.check(events == r.nEvents, "ior_compare: %d events after the call filter, want %d", events, r.nEvents)
	l.same(text, r.text, "ior_compare text")
	l.same(dot, r.dot, "ior_compare dot")
	for _, a := range []pm.Activity{"pwrite64:$SCRATCH", "pread64:$SCRATCH"} {
		l.check(part.Node(a) == dfg.Green, "ior_compare: %s is %s, want green", a, part.Node(a))
	}
	for _, a := range []pm.Activity{"write:$SCRATCH", "read:$SCRATCH", "lseek:$SCRATCH"} {
		l.check(part.Node(a) == dfg.Red, "ior_compare: %s is %s, want red", a, part.Node(a))
	}
}

func (r *iorRunner) pass(tr *tracer, l *ledger) passSample {
	if tr != nil {
		return r.tracedPass(tr, l)
	}
	in, err := core.FromStraceDir(r.traces, r.options(intern.NewTable()))
	if !l.op(err, "ior_compare load") {
		return passSample{}
	}
	in = in.FilterCalls(iorCalls...).WithMapping(r.m)
	full, part := in.PartitionByCID(iorGreen...)
	text, dot, err := renderIOR(full, in.Stats(), part)
	if l.op(err, "ior_compare render") {
		r.checkPass(l, in.EventLog().NumEvents(), text, dot, part)
	}
	return passSample{}
}

// tracedPass reproduces the untraced pass from outside: the strace
// directory stream (source.Ordered over strace.ParseCase, as
// strace.StreamDir builds it), the call filter, the Inspector's
// partition (three activity-logs and DFGs, then dfg.Classify), its
// statistics and the two renders.
func (r *iorRunner) tracedPass(tr *tracer, l *ledger) passSample {
	counts := map[string]float64{}
	syms := intern.NewTable()
	opts := r.options(syms)
	tr.begin("pass")
	defer tr.end()

	tr.begin("strace.load")
	parent := tr.current()
	src := source.Ordered(len(r.files), tr.parallelism, opts.Window, func(i int) (*trace.Case, error) {
		start := time.Now()
		c, err := parseTraceFile(r.files[i], r.ids[i], opts)
		tr.leaf("strace.parse", parent, start, time.Now())
		return c, err
	})
	el, err := source.Drain(waitSource{src: src, tr: tr}, opts.Strict)
	counts["source.peak_resident"] = float64(source.PeakResident(src))
	src.Close()
	tr.end()
	if !l.op(err, "ior_compare load") {
		return passSample{counts: counts}
	}
	counts["strace.bytes"] = float64(r.bytes)
	counts["strace.events"] = float64(el.NumEvents())

	var fl, green, red *trace.EventLog
	tr.do("trace.filter", func() { fl = el.FilterCalls(iorCalls...) })
	tr.do("trace.partition", func() {
		set := map[string]bool{}
		for _, c := range iorGreen {
			set[c] = true
		}
		green, red = fl.Partition(func(c *trace.Case) bool { return set[c.ID.CID] })
	})
	full, fullLog := r.dfgOf(tr, fl)
	gg, _ := r.dfgOf(tr, green)
	rg, _ := r.dfgOf(tr, red)
	var part *dfg.Partition
	tr.do("dfg.classify", func() { part = dfg.Classify(full, gg, rg) })

	sm := pm.NewSymMapper(r.m)
	stC := stats.NewComputerSym(sm)
	var syms2 []intern.Sym
	for _, c := range fl.Cases() {
		tr.begin("pm.map")
		syms2 = sm.MapCase(c, syms2[:0])
		tr.end()
		tr.begin("stats.fold")
		stC.AddMapped(c, syms2)
		tr.end()
	}
	var st *stats.Stats
	tr.do("stats.finalize", func() { st = stC.Finalize() })

	var tb, db bytes.Buffer
	var terr, derr error
	tr.do("render.text", func() {
		terr = (&render.Text{Graph: full, Stats: st, Partition: part, SkipCalls: iorSkip}).Render(&tb)
	})
	tr.do("render.dot", func() {
		derr = (&render.DOT{Graph: full, Stats: st, Styler: render.PartitionColoring{Partition: part}, SkipCalls: iorSkip}).Render(&db)
	})
	if l.op(errors.Join(terr, derr), "ior_compare render") {
		r.checkPass(l, fl.NumEvents(), tb.String(), db.String(), part)
	}
	counts["intern.symbols"] = float64(syms.Len())
	counts["pm.variants"] = float64(fullLog.NumVariants())
	counts["dfg.nodes"] = float64(full.NumNodes())
	counts["dfg.edges"] = float64(full.NumEdges())
	counts["stats.intervals"] = float64(statsIntervals(st))
	counts["render.bytes"] = float64(tb.Len() + db.Len())
	return passSample{counts: counts}
}

// dfgOf is Inspector.DFG decomposed: pm.Build (a Builder fed case by
// case), then dfg.Build (a Builder fed variant by variant).
func (r *iorRunner) dfgOf(tr *tracer, el *trace.EventLog) (*dfg.Graph, *pm.Log) {
	b := pm.NewBuilder(r.m, pm.BuildOptions{Endpoints: true})
	sm := b.Mapper()
	var syms []intern.Sym
	for _, c := range el.Cases() {
		tr.begin("pm.map")
		syms = sm.MapCase(c, syms[:0])
		tr.end()
		tr.begin("pm.fold")
		b.AddMapped(c.ID, syms)
		tr.end()
	}
	var l *pm.Log
	tr.do("pm.finalize", func() { l = b.Finalize() })
	db := dfg.NewBuilder()
	tr.do("dfg.fold", func() {
		for _, v := range l.Variants() {
			db.AddVariant(v.Seq, v.Mult)
		}
	})
	var g *dfg.Graph
	tr.do("dfg.finalize", func() { g = db.Finalize() })
	return g, l
}

func parseTraceFile(path string, id trace.CaseID, opts strace.Options) (*trace.Case, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	c, err := strace.ParseCase(id, f, opts)
	if err != nil {
		return nil, fmt.Errorf("strace: %s: %w", filepath.Base(path), err)
	}
	return c, nil
}
