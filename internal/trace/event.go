// Package trace defines the event model used throughout stinspector.
//
// The model follows Section III and IV of the paper "Inspection of I/O
// Operations from System Call Traces using Directly-Follows-Graph"
// (arXiv:2408.07378): every record of a system call is an Event, the
// time-ordered sequence of events recorded by one process is a Case, and a
// set of cases is an EventLog.
package trace

import (
	"fmt"
	"time"
)

// SizeUnknown is the Size value for events whose system call does not
// transfer bytes through the page cache (for example openat or lseek).
// The paper parses the transfer size only for the variants of read and
// write system calls.
const SizeUnknown int64 = -1

// Event is a single system-call record, Equation (1) of the paper:
//
//	e = [cid, host, rid, pid, call, start, dur, fp, size]
//
// CID, Host and RID are inferred from the name of the trace file; the
// remaining attributes are parsed from the trace records themselves.
type Event struct {
	// CID identifies the traced command (for example "a" for "ls" and
	// "b" for "ls -l" in the paper's running example).
	CID string
	// Host is the name of the machine the recording process ran on.
	Host string
	// RID is the identifier of the launching (MPI) process, taken from
	// the shell variable $$ when the trace file was created.
	RID int
	// PID is the identifier of the process that executed the system
	// call (strace option -f). PID differs from RID when the launcher
	// forks a child to execute the command.
	PID int
	// Call is the system call name, for example "read" or "pwrite64".
	Call string
	// Start is the wall-clock time at the start of the call, measured
	// from an arbitrary per-host epoch (strace -tt records time of day;
	// the methodology does not require synchronized clocks across
	// hosts).
	Start time.Duration
	// Dur is the time between the start and the return of the call
	// (strace option -T).
	Dur time.Duration
	// FP is the path of the accessed file (strace option -y).
	FP string
	// Size is the number of bytes transferred, parsed from the return
	// value of read/write call variants, or SizeUnknown for calls that
	// do not move bytes.
	Size int64
}

// End returns the wall-clock time at which the call returned.
func (e Event) End() time.Duration { return e.Start + e.Dur }

// HasSize reports whether the event carries a byte-transfer size.
func (e Event) HasSize() bool { return e.Size >= 0 }

// CaseID returns the identity of the case this event belongs to.
func (e Event) CaseID() CaseID { return CaseID{CID: e.CID, Host: e.Host, RID: e.RID} }

// String renders the event in a compact, human-oriented form.
func (e Event) String() string {
	if e.HasSize() {
		return fmt.Sprintf("%s[%d] %s %s(%s)=%d <%s>",
			e.CaseID(), e.PID, fmtTimeOfDay(e.Start), e.Call, e.FP, e.Size, e.Dur)
	}
	return fmt.Sprintf("%s[%d] %s %s(%s) <%s>",
		e.CaseID(), e.PID, fmtTimeOfDay(e.Start), e.Call, e.FP, e.Dur)
}

// Equal reports whether two events are identical in every attribute.
// The paper requires that no two events in an event-log are exactly equal;
// EventLog.Validate uses this to detect violations (for example traces
// recorded without the strace -f option).
func (e Event) Equal(o Event) bool { return e == o }

// Interval returns the (start, end) tuple of Equation (14), used by the
// max-concurrency statistic and the timeline plots.
func (e Event) Interval() Interval {
	return Interval{Start: e.Start, End: e.Start + e.Dur, Case: e.CaseID()}
}

// Interval is a [Start, End] time range attributed to a case. It is the
// value t(e) of Equation (14) in the paper, enriched with the case identity
// so that timeline plots (Figure 5) can label their rows.
type Interval struct {
	Start time.Duration
	End   time.Duration
	Case  CaseID
}

// Overlaps reports whether the two closed-open intervals intersect.
func (iv Interval) Overlaps(o Interval) bool {
	return iv.Start < o.End && o.Start < iv.End
}

// Less is the canonical total order on intervals: by start, then end,
// then case identity. Sorting with it makes interval-set algorithms
// independent of the order in which the intervals were collected —
// equal-start ties, including zero-duration intervals, always resolve
// the same way.
func (iv Interval) Less(o Interval) bool {
	if iv.Start != o.Start {
		return iv.Start < o.Start
	}
	if iv.End != o.End {
		return iv.End < o.End
	}
	return iv.Case.Less(o.Case)
}

// Len returns the duration of the interval.
func (iv Interval) Len() time.Duration { return iv.End - iv.Start }

// fmtTimeOfDay formats a duration since midnight as HH:MM:SS.micro, the
// format strace -tt uses.
func fmtTimeOfDay(d time.Duration) string {
	d = d % (24 * time.Hour)
	if d < 0 {
		d += 24 * time.Hour
	}
	h := d / time.Hour
	d -= h * time.Hour
	m := d / time.Minute
	d -= m * time.Minute
	s := d / time.Second
	d -= s * time.Second
	us := d / time.Microsecond
	return fmt.Sprintf("%02d:%02d:%02d.%06d", h, m, s, us)
}

// FormatTimeOfDay renders a Start timestamp the way strace -tt does
// (HH:MM:SS.microseconds). Exported for the strace writer and renderers.
func FormatTimeOfDay(d time.Duration) string { return fmtTimeOfDay(d) }
