package snapshot

import (
	"bytes"
	"testing"
	"time"

	"stinspector/internal/pm"
	"stinspector/internal/synth/profiles"
	"stinspector/internal/trace"
)

// FuzzSnapshotDecode drives Decode with mutated snapshot files: seeds
// are real snapshots of the adversarial generator profiles (the
// hostileargs renderings among them) plus bit-flipped variants. The
// decoder must never panic and never allocate proportionally to a
// hostile count; when it does accept an input, the decoded state must
// re-encode and re-decode to a fixed point (a canonical snapshot).
func FuzzSnapshotDecode(f *testing.F) {
	m := pm.CallTopDirs{Depth: 2}
	for _, name := range []string{"baseline", "hostileargs", "widevocab"} {
		p, ok := profiles.Lookup(name)
		if !ok {
			f.Fatalf("profile %s missing", name)
		}
		el := p.Generate("fz", 4, 16, 20240924)
		s := foldRange(el, m, 0, 4)
		enc := Encode(s)
		f.Add(enc)
		// Bit-flipped variants seed the mutator with near-valid files.
		for _, pos := range []int{2, len(enc) / 3, len(enc) / 2, len(enc) - 5} {
			mut := append([]byte(nil), enc...)
			mut[pos] ^= 0x41
			f.Add(mut)
		}
		f.Add(enc[:len(enc)*2/3])
	}
	f.Add([]byte{})
	f.Add([]byte("STS1"))
	// A version 3 snapshot whose stats spans hit the sweep's edge
	// cases: zero-duration events, equal-start ties, touching ends.
	edge := Encode(foldRange(edgeSpanLog(), m, 0, 2))
	if _, err := Decode(edge, m); err != nil {
		f.Fatalf("edge-span seed does not decode: %v", err)
	}
	f.Add(edge)

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Decode(data, m)
		if err != nil {
			return
		}
		// Accepted input: encoding must be a fixed point, so a decoded
		// snapshot behaves identically to one built in-process.
		re := Encode(s)
		s2, err := Decode(re, m)
		if err != nil {
			t.Fatalf("re-decode of accepted snapshot failed: %v", err)
		}
		if !bytes.Equal(Encode(s2), re) {
			t.Fatal("re-encode is not a fixed point")
		}
	})
}

// edgeSpanLog is a two-case log whose read and write events have
// zero durations, shared start times and intervals that touch end to
// start.
func edgeSpanLog() *trace.EventLog {
	ev := func(call string, start, dur int) trace.Event {
		return trace.Event{Call: call, FP: "/d/f", Start: time.Duration(start), Dur: time.Duration(dur), Size: 8}
	}
	return trace.MustNewEventLog(
		trace.NewCase(trace.CaseID{CID: "e", Host: "h", RID: 1}, []trace.Event{
			ev("read", 0, 0), ev("read", 0, 5), ev("write", 5, 5), ev("write", 10, 0),
		}),
		trace.NewCase(trace.CaseID{CID: "e", Host: "h", RID: 2}, []trace.Event{
			ev("read", 0, 5), ev("read", 5, 0), ev("write", 5, 5), ev("write", 5, 0),
		}),
	)
}
