package stats

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"stinspector/internal/pm"
	"stinspector/internal/snapshot/wire"
	"stinspector/internal/synth"
)

// Encode∘decode preserves the computer's pre-Finalize state exactly:
// the decoded computer re-encodes to identical bytes and finalizes to
// bit-identical statistics, floats included (they derive from the
// 128-bit integer accumulators the snapshot carries verbatim).
func TestComputerSnapshotRoundTrip(t *testing.T) {
	el := synth.Log("snap", 24, 40, 20240924)
	m := pm.CallTopDirs{Depth: 2}
	c := NewComputer(m)
	for _, cs := range el.Cases() {
		c.Add(cs)
	}
	enc := c.EncodeSnapshot()
	got, err := DecodeComputerSnapshot(enc, m)
	if err != nil {
		t.Fatal(err)
	}
	if got.Symbols() != c.Symbols() {
		t.Errorf("Symbols = %d, want %d", got.Symbols(), c.Symbols())
	}
	if re := got.EncodeSnapshot(); !bytes.Equal(re, enc) {
		t.Fatalf("re-encode differs: %d vs %d bytes", len(re), len(enc))
	}
	if gs, ws := serialize(got.Finalize()), serialize(c.Finalize()); gs != ws {
		t.Errorf("finalized stats differ:\n--- decoded ---\n%s--- original ---\n%s", gs, ws)
	}
}

// A decoded computer stays mergeable: decoding two disjoint partials
// and merging reproduces the sequential fold bit-for-bit.
func TestComputerSnapshotMergesAfterDecode(t *testing.T) {
	el := synth.Log("snapm", 20, 30, 11)
	m := pm.CallTopDirs{Depth: 2}
	seq := NewComputer(m)
	for _, cs := range el.Cases() {
		seq.Add(cs)
	}
	want := serialize(seq.Finalize())

	mk := func(lo, hi int) []byte {
		c := NewComputer(m)
		for _, cs := range el.Cases()[lo:hi] {
			c.Add(cs)
		}
		return c.EncodeSnapshot()
	}
	a, err := DecodeComputerSnapshot(mk(0, 11), m)
	if err != nil {
		t.Fatal(err)
	}
	b, err := DecodeComputerSnapshot(mk(11, 20), m)
	if err != nil {
		t.Fatal(err)
	}
	a.Merge(b)
	if got := serialize(a.Finalize()); got != want {
		t.Errorf("merged decoded partials differ from sequential fold:\n--- merged ---\n%s--- sequential ---\n%s", got, want)
	}
}

func TestComputerSnapshotEmpty(t *testing.T) {
	m := pm.CallTopDirs{Depth: 2}
	got, err := DecodeComputerSnapshot(NewComputer(m).EncodeSnapshot(), m)
	if err != nil {
		t.Fatal(err)
	}
	if got.Symbols() != 0 || got.totalDur != 0 {
		t.Errorf("decoded empty computer has state: %d symbols", got.Symbols())
	}
}

// Hostile input fails with CorruptError — truncations, explicit empty
// accumulators, span counts the input cannot hold — never a panic.
func TestComputerSnapshotCorrupt(t *testing.T) {
	el := synth.Log("snap", 6, 20, 3)
	m := pm.CallTopDirs{Depth: 2}
	c := NewComputer(m)
	for _, cs := range el.Cases() {
		c.Add(cs)
	}
	enc := c.EncodeSnapshot()
	for cut := 0; cut < len(enc); cut++ {
		if _, err := DecodeComputerSnapshot(enc[:cut], m); err == nil {
			t.Fatalf("truncation to %d bytes decoded cleanly", cut)
		}
	}
	var ce *wire.CorruptError
	// An accumulator claiming events == 0 breaks the absence invariant.
	b := statsSection(0, nil)
	if _, err := DecodeComputerSnapshot(b, m); !errors.As(err, &ce) || !strings.Contains(err.Error(), "empty accumulator") {
		t.Fatalf("empty accumulator: err = %v, want CorruptError naming it", err)
	}
	// A span count above what the remaining bytes can hold at two bytes
	// per span is rejected before anything is allocated for it.
	b = statsSection(1, nil)
	b = append(b[:len(b)-1], 2) // claim 2 spans
	b = append(b, 0, 0, 0)      // 3 bytes: room for one span only
	if _, err := DecodeComputerSnapshot(b, m); !errors.As(err, &ce) || !strings.Contains(err.Error(), "count 2 impossible") {
		t.Fatalf("oversized span count: err = %v, want CorruptError rejecting the count", err)
	}
}

// statsSection hand-builds a stats section in the version 3 layout:
// one activity "act" whose accumulator has the given event count and
// spans, each written as start and length.
func statsSection(events int, spans [][2]int64) []byte {
	var b wire.Buf
	b.Uvarint(1)
	b.Str("act")
	b.Varint(0)                   // totalDur
	b.Uvarint(1)                  // one accumulator
	b.Uvarint(0)                  // sym
	b.Uvarint(uint64(events))     // events
	b.Varint(0)                   // totalDur
	b.Varint(0)                   // bytes
	b.Bool(false)                 // hasBytes
	b.U64(0)                      // rate.hi
	b.U64(0)                      // rate.lo
	b.Uvarint(0)                  // rateCount
	b.Uvarint(uint64(len(spans))) // nSpans
	for _, sp := range spans {
		b.Varint(sp[0]) // start
		b.Varint(sp[1]) // end - start
	}
	return b.Bytes()
}

// The version 3 layout, pinned byte for byte: a hand-built section
// decodes to the spans it lists — a zero-duration span and a longer
// one sharing its start, so max-concurrency is 1 — and re-encodes to
// the same bytes. Lengths wrap like int64 arithmetic, so even a hostile
// start/length pair whose end overflows re-encodes to itself.
func TestComputerSnapshotLayout(t *testing.T) {
	m := callMapping()
	for _, tc := range []struct {
		name  string
		spans [][2]int64
		want  int
	}{
		{"zero-duration tie", [][2]int64{{5, 0}, {5, 3}}, 1},
		{"touching", [][2]int64{{0, 5}, {5, 5}, {2, 3}}, 2},
		{"end overflows", [][2]int64{{math.MaxInt64 - 1, 4}}, 1},
	} {
		enc := statsSection(len(tc.spans), tc.spans)
		c, err := DecodeComputerSnapshot(enc, m)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for i, sp := range c.accs[0].intervals {
			if want := (span{time.Duration(tc.spans[i][0]), time.Duration(tc.spans[i][0] + tc.spans[i][1])}); sp != want {
				t.Errorf("%s: span %d = %v, want %v", tc.name, i, sp, want)
			}
		}
		if re := c.EncodeSnapshot(); !bytes.Equal(re, enc) {
			t.Errorf("%s: re-encode differs:\n got % x\nwant % x", tc.name, re, enc)
		}
		if got := c.Finalize().Get("act").MaxConc; got != tc.want {
			t.Errorf("%s: MaxConc = %d, want %d", tc.name, got, tc.want)
		}
	}
}
