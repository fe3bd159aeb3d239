package main

import (
	"bufio"
	"encoding/json"
	"os"
	"runtime"
	"sync"
	"time"

	"stinspector/internal/source"
	"stinspector/internal/trace"
)

// Lanes separate the goroutine that drives a pass from the source
// workers that parse or decode for it. Self time is computed within a
// lane, so a worker span never hides time the pass goroutine spent.
const (
	lanePass   = 0
	laneWorker = 1
)

// span is one timed call into a layer, recorded from the benchmark's
// own code around a public function of the program.
type span struct {
	Name   string `json:"name"`
	Pass   int    `json:"pass"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root
	Lane   int    `json:"lane"`
	Start  int64  `json:"start_ns"` // since the tracer was created
	End    int64  `json:"end_ns"`
	// Allocs is the number of heap objects the process allocated while
	// the span was open; recorded on pass-lane spans when the tracer
	// counts allocations.
	Allocs int64 `json:"allocs,omitempty"`
}

// tracer keeps spans in memory; they are written out when the run ends.
// Pass-lane spans nest through a stack; worker spans are leaves with an
// explicit parent and may be recorded from any goroutine.
type tracer struct {
	t0     time.Time
	mu     sync.Mutex
	spans  []span
	stack  []int
	pass   int
	allocs []int64 // objects counter at begin, parallel to stack

	// parallelism is the number of source workers a traced pass runs.
	parallelism int
	// countAllocs makes pass-lane spans record their allocations.
	// runtime.ReadMemStats flushes the per-P allocation caches, so the
	// counts are exact, but it stops the world twice per span: it is
	// meant for a sequential accounting pass (parallelism 1), where no
	// worker allocates behind the pass goroutine's back.
	countAllocs bool
	ms          runtime.MemStats
}

func newTracer(parallelism int, countAllocs bool) *tracer {
	return &tracer{t0: time.Now(), parallelism: parallelism, countAllocs: countAllocs}
}

func (t *tracer) objects() int64 {
	if !t.countAllocs {
		return 0
	}
	runtime.ReadMemStats(&t.ms)
	return int64(t.ms.Mallocs)
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens a pass-lane span nested in the innermost open one. A nil
// tracer records nothing, so untraced code paths call it freely.
func (t *tracer) begin(name string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Pass: t.pass, ID: id, Parent: parent, Lane: lanePass})
	t.stack = append(t.stack, id)
	t.allocs = append(t.allocs, 0)
	t.mu.Unlock()
	// Read the counters last, so the bookkeeping above is not charged
	// to the span.
	a := t.objects()
	t.mu.Lock()
	t.allocs[len(t.allocs)-1] = a
	t.spans[id].Start = t.now()
	t.mu.Unlock()
}

// end closes the innermost open pass-lane span.
func (t *tracer) end() {
	if t == nil {
		return
	}
	end := t.now()
	a := t.objects()
	t.mu.Lock()
	n := len(t.stack) - 1
	s := &t.spans[t.stack[n]]
	s.End = end
	s.Allocs = a - t.allocs[n]
	t.stack = t.stack[:n]
	t.allocs = t.allocs[:n]
	t.mu.Unlock()
}

// do runs f inside a pass-lane span.
func (t *tracer) do(name string, f func()) {
	t.begin(name)
	f()
	t.end()
}

// current returns the innermost open pass-lane span, the parent worker
// spans attach to.
func (t *tracer) current() int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if n := len(t.stack); n > 0 {
		return t.stack[n-1]
	}
	return -1
}

// leaf records a finished worker-lane span.
func (t *tracer) leaf(name string, parent int, start time.Time, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{
		Name: name, Pass: t.pass, ID: len(t.spans), Parent: parent, Lane: laneWorker,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0)),
	})
	t.mu.Unlock()
}

// layerTotals is one pass's per-layer account: self time and self
// allocations summed by span name.
type layerTotals struct {
	self       map[string]time.Duration
	allocs     map[string]int64         // self allocations
	allocsIncl map[string]int64         // children included
	total      map[string]time.Duration // whole duration, children included
	// wall is the pass root's duration and attributed the self time of
	// every pass-lane span below the root.
	wall, attributed time.Duration
}

// totals computes the per-layer account of one pass, whose pass-lane
// root span is named root. Self time is a span's duration minus the
// durations of its same-lane children: pass-lane spans nest through one
// stack and worker spans are leaves, so those children never overlap.
func (t *tracer) totals(pass int, root string) layerTotals {
	lt := layerTotals{
		self:       map[string]time.Duration{},
		allocs:     map[string]int64{},
		allocsIncl: map[string]int64{},
		total:      map[string]time.Duration{},
	}
	children := map[int][]int{}
	var rootID = -1
	for i := range t.spans {
		s := &t.spans[i]
		if s.Pass != pass {
			continue
		}
		if s.Parent >= 0 && t.spans[s.Parent].Lane == s.Lane {
			children[s.Parent] = append(children[s.Parent], i)
		}
		if s.Parent < 0 && s.Name == root {
			rootID = i
		}
	}
	inRoot := func(i int) bool {
		for ; i >= 0; i = t.spans[i].Parent {
			if i == rootID {
				return true
			}
		}
		return false
	}
	for i := range t.spans {
		s := &t.spans[i]
		if s.Pass != pass {
			continue
		}
		d := time.Duration(s.End - s.Start)
		self := d
		allocs := s.Allocs
		for _, c := range children[i] {
			self -= time.Duration(t.spans[c].End - t.spans[c].Start)
			allocs -= t.spans[c].Allocs
		}
		lt.self[s.Name] += self
		lt.allocs[s.Name] += allocs
		lt.allocsIncl[s.Name] += s.Allocs
		lt.total[s.Name] += d
		switch {
		case i == rootID:
			lt.wall = d
		case s.Lane == lanePass && rootID >= 0 && inRoot(i):
			lt.attributed += self
		}
	}
	return lt
}

// write stores every span as one JSON object per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// waitSource wraps a case source and records the time its consumer is
// blocked in Next as "source.next" spans.
type waitSource struct {
	src source.Source
	tr  *tracer
}

func (w waitSource) Next() (*trace.Case, error) {
	w.tr.begin("source.next")
	c, err := w.src.Next()
	w.tr.end()
	return c, err
}

func (w waitSource) Close() error { return w.src.Close() }
