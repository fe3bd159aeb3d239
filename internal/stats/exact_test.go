package stats

import (
	"math/rand"
	"sort"
	"testing"
	"time"

	"stinspector/internal/trace"
)

// bruteMaxConc is an O(k²) reading of Equation 16 straight from its
// pairwise overlap relation: two intervals overlap when each starts
// strictly before the other ends, so an interval ending at t does not
// overlap one starting at t, and a zero-duration interval overlaps only
// intervals that strictly contain its instant. Pairwise-overlapping
// intervals on a line share a common point, and the leftmost such
// point is some member's start, so the largest overlapping set is found
// by probing every interval's start and counting the intervals that
// started no later and overlap the probe.
func bruteMaxConc(ivs []trace.Interval) int {
	overlaps := func(a, b trace.Interval) bool { return a.Start < b.End && b.Start < a.End }
	best := 0
	for p, probe := range ivs {
		n := 1
		for i, iv := range ivs {
			if i != p && iv.Start <= probe.Start && overlaps(iv, probe) {
				n++
			}
		}
		if n > best {
			best = n
		}
	}
	return best
}

// caseOrderedMaxConc is the sweep as it stood when intervals carried
// their cases: sorted by the full (start, end, case) order of
// trace.Interval.Less. Dropping the case tie-break must not change the
// count, since intervals with equal (start, end) are interchangeable.
func caseOrderedMaxConc(intervals []trace.Interval) int {
	ivs := append([]trace.Interval(nil), intervals...)
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].Less(ivs[j]) })
	ends := make(endHeap, 0, 16)
	maxOpen := 0
	for _, iv := range ivs {
		for len(ends) > 0 && ends[0] <= iv.Start {
			ends.pop()
		}
		ends.push(iv.End)
		if len(ends) > maxOpen {
			maxOpen = len(ends)
		}
	}
	return maxOpen
}

// randomIntervals draws a multiset over a narrow time grid, so
// zero-duration intervals, equal-start ties, touching ends and exact
// duplicates all occur often. Cases are spread over a few ranks.
func randomIntervals(rng *rand.Rand, k int) []trace.Interval {
	ivs := make([]trace.Interval, k)
	for i := range ivs {
		s := time.Duration(rng.Intn(8)) * time.Millisecond
		ivs[i] = trace.Interval{
			Start: s,
			End:   s + time.Duration(rng.Intn(4))*time.Millisecond,
			Case:  trace.CaseID{CID: "x", Host: "h", RID: rng.Intn(4)},
		}
	}
	return ivs
}

// TestMaxConcurrencyExact checks the pair sweep against the brute-force
// Equation 16 reference and against the case-ordered sweep, on random
// multisets under random permutation — both through MaxConcurrency and
// through the computer, with the events split over random shards that
// are merged back via Computer.Merge.
func TestMaxConcurrencyExact(t *testing.T) {
	rng := rand.New(rand.NewSource(20240924))
	for trial := 0; trial < 300; trial++ {
		ivs := randomIntervals(rng, 1+rng.Intn(24))
		want := bruteMaxConc(ivs)
		if got := caseOrderedMaxConc(ivs); got != want {
			t.Fatalf("trial %d: case-ordered sweep = %d, brute force = %d over %v", trial, got, want, ivs)
		}
		for perm := 0; perm < 4; perm++ {
			rng.Shuffle(len(ivs), func(i, j int) { ivs[i], ivs[j] = ivs[j], ivs[i] })
			if got := MaxConcurrency(ivs); got != want {
				t.Fatalf("trial %d: MaxConcurrency = %d, brute force = %d over %v", trial, got, want, ivs)
			}
			if got := shardedMaxConc(rng, ivs); got != want {
				t.Fatalf("trial %d: merged computer MaxConc = %d, brute force = %d over %v", trial, got, want, ivs)
			}
		}
	}
}

// shardedMaxConc folds each interval as a one-event case into one of a
// random number of partial computers, merges them in order and returns
// the finalized max-concurrency of the single activity.
func shardedMaxConc(rng *rand.Rand, ivs []trace.Interval) int {
	parts := make([]*Computer, 1+rng.Intn(5))
	for i := range parts {
		parts[i] = NewComputer(callMapping())
	}
	for i, iv := range ivs {
		cs := trace.NewCase(trace.CaseID{CID: iv.Case.CID, Host: iv.Case.Host, RID: i}, []trace.Event{
			{Call: "read", Start: iv.Start, Dur: iv.Len(), Size: trace.SizeUnknown},
		})
		parts[rng.Intn(len(parts))].Add(cs)
	}
	return Merge(parts...).Get("read").MaxConc
}

// sortSpans agrees with a library sort on arbitrary input and on the
// shape Finalize sees: concatenated per-case runs, here with ties and
// short descents inside the runs. The scratch buffer is reused across
// calls, as Finalize reuses it across activities.
func TestSortSpans(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var scratch []span
	for trial := 0; trial < 500; trial++ {
		var in []span
		for run := rng.Intn(6); run >= 0; run-- {
			t0 := time.Duration(rng.Intn(20))
			for i := rng.Intn(12); i >= 0; i-- {
				if rng.Intn(4) == 0 {
					t0 -= time.Duration(rng.Intn(3)) // an out-of-order event
				}
				in = append(in, span{t0, t0 + time.Duration(rng.Intn(3))})
				t0 += time.Duration(rng.Intn(3))
			}
		}
		if trial%2 == 1 {
			rng.Shuffle(len(in), func(i, j int) { in[i], in[j] = in[j], in[i] })
		}
		want := append([]span(nil), in...)
		sort.Slice(want, func(i, j int) bool { return want[i].less(want[j]) })
		sortSpans(in, &scratch)
		for i := range in {
			if in[i] != want[i] {
				t.Fatalf("trial %d: sortSpans = %v, want %v", trial, in, want)
			}
		}
	}
}

// MaxConcurrency must leave its argument untouched: callers such as the
// timeline renderer keep using the slice afterwards.
func TestMaxConcurrencyDoesNotReorderInput(t *testing.T) {
	ivs := randomIntervals(rand.New(rand.NewSource(7)), 32)
	orig := append([]trace.Interval(nil), ivs...)
	MaxConcurrency(ivs)
	for i := range ivs {
		if ivs[i] != orig[i] {
			t.Fatalf("input reordered at %d: %v, was %v", i, ivs[i], orig[i])
		}
	}
}
