package obs

import (
	"context"
	"encoding/json"
	"io"
	"sync"
	"time"
)

// Trace collects a tree of timed spans for one logical operation (a route,
// a training stage, a benchmark run). Spans attach concurrently from any
// goroutine; the tree is serialised with WriteJSON once the operation is
// done.
type Trace struct {
	mu    sync.Mutex
	root  *SpanData
	epoch time.Time
}

// SpanData is one node of the span tree. StartNS is relative to the
// trace's creation so traces are diffable across runs.
type SpanData struct {
	Name       string      `json:"name"`
	StartNS    int64       `json:"start_ns"`
	DurationNS int64       `json:"duration_ns"`
	Children   []*SpanData `json:"children,omitempty"`
}

// NewTrace returns a trace whose root span carries the given name
// (conventionally the binary or operation name, e.g. "oarsmt_route.main").
func NewTrace(name string) *Trace {
	mustValid(name)
	t := &Trace{epoch: time.Now()} //oarsmt:allow dettaint(trace epoch; obs owns all wall-clock reads)
	t.root = &SpanData{Name: name}
	return t
}

// Root returns the root span of the trace's tree. The returned pointer
// must be treated as read-only until the trace is quiescent.
func (t *Trace) Root() *SpanData { return t.root }

// attach appends a child span under parent and returns it.
func (t *Trace) attach(parent *SpanData, name string, start time.Time) *SpanData {
	s := &SpanData{Name: name, StartNS: start.Sub(t.epoch).Nanoseconds()}
	t.mu.Lock()
	parent.Children = append(parent.Children, s)
	t.mu.Unlock()
	return s
}

// end seals a span's duration. Safe to call once per span.
func (t *Trace) end(s *SpanData, dur time.Duration) {
	t.mu.Lock()
	s.DurationNS = dur.Nanoseconds()
	t.mu.Unlock()
}

// WriteJSON serialises the span tree (indented) to w. The root span's
// duration is the time since the trace was created unless it was sealed
// explicitly.
func (t *Trace) WriteJSON(w io.Writer) error {
	t.mu.Lock()
	if t.root.DurationNS == 0 {
		t.root.DurationNS = time.Since(t.epoch).Nanoseconds() //oarsmt:allow dettaint(trace serialisation; obs owns all wall-clock reads)
	}
	buf, err := json.MarshalIndent(t.root, "", "  ")
	t.mu.Unlock()
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	_, err = w.Write(buf)
	return err
}

// noopEnd is returned by Span when tracing is disabled so the caller can
// always `defer end()` without a nil check or a per-call closure
// allocation.
var noopEnd = func() {}

// Span opens a span named name under the context's current span and
// returns a derived context (the new span becomes current) plus an end
// function sealing the span's duration. When the context carries no
// active trace it returns the input context unchanged and a shared no-op
// end function — zero allocations, no clock reads.
//
// Usage:
//
//	ctx, end := obs.Span(ctx, "core.retrace")
//	defer end()
func Span(ctx context.Context, name string) (context.Context, func()) {
	o := FromContext(ctx)
	if o == nil || o.Trace == nil {
		return ctx, noopEnd
	}
	t := o.Trace
	parent, _ := ctx.Value(spanKey).(*SpanData)
	if parent == nil {
		parent = t.root
	}
	start := time.Now() //oarsmt:allow dettaint(span timing; obs owns all wall-clock reads)
	s := t.attach(parent, name, start)
	return context.WithValue(ctx, spanKey, s), func() {
		t.end(s, time.Since(start)) //oarsmt:allow dettaint(span timing; obs owns all wall-clock reads)
	}
}

// ObserveSpan records an already-measured duration as a leaf span under
// the context's current span. No-op without an active trace. Use it when
// the duration was produced elsewhere (a Stopwatch lap, an aggregated
// stage) and a Span bracket would be awkward.
func ObserveSpan(ctx context.Context, name string, d time.Duration) {
	o := FromContext(ctx)
	if o == nil || o.Trace == nil {
		return
	}
	t := o.Trace
	parent, _ := ctx.Value(spanKey).(*SpanData)
	if parent == nil {
		parent = t.root
	}
	s := t.attach(parent, name, time.Now().Add(-d)) //oarsmt:allow dettaint(span timing; obs owns all wall-clock reads)
	t.end(s, d)
}

// Timer measures one duration with the clock owned by obs, so det
// packages never import time for measurement. The zero value is invalid;
// use StartTimer.
type Timer struct{ start time.Time }

// StartTimer starts a timer.
func StartTimer() Timer {
	return Timer{start: time.Now()} //oarsmt:allow dettaint(timer; obs owns all wall-clock reads)
}

// Elapsed returns the time since the timer started.
func (t Timer) Elapsed() time.Duration {
	return time.Since(t.start) //oarsmt:allow dettaint(timer; obs owns all wall-clock reads)
}

// Stopwatch accumulates named laps across a loop body, aggregating the
// time spent in each stage of many iterations into one duration per
// stage name. A nil Stopwatch is a valid no-op receiver, so hot loops
// can do
//
//	var sw *obs.Stopwatch
//	if obs.Enabled(ctx) { sw = obs.NewStopwatch() }
//	...
//	sw.Lap("mcts.select")
//
// without branching at every lap. Not safe for concurrent use; one
// stopwatch per goroutine.
type Stopwatch struct {
	last  time.Time
	order []string
	total map[string]time.Duration
}

// NewStopwatch returns a running stopwatch.
func NewStopwatch() *Stopwatch {
	return &Stopwatch{
		last:  time.Now(), //oarsmt:allow dettaint(stopwatch; obs owns all wall-clock reads)
		total: make(map[string]time.Duration),
	}
}

// Reset restarts the lap clock without clearing accumulated totals; call
// it at the top of each iteration so time spent between iterations is not
// attributed to the first lap.
func (sw *Stopwatch) Reset() {
	if sw == nil {
		return
	}
	sw.last = time.Now() //oarsmt:allow dettaint(stopwatch; obs owns all wall-clock reads)
}

// Lap attributes the time since the previous lap (or Reset) to name and
// restarts the lap clock.
func (sw *Stopwatch) Lap(name string) {
	if sw == nil {
		return
	}
	now := time.Now() //oarsmt:allow dettaint(stopwatch; obs owns all wall-clock reads)
	if _, ok := sw.total[name]; !ok {
		sw.order = append(sw.order, name)
	}
	sw.total[name] += now.Sub(sw.last)
	sw.last = now
}

// Emit records every accumulated stage as a child span of the context's
// current span, in first-lap order, then clears the totals.
func (sw *Stopwatch) Emit(ctx context.Context) {
	if sw == nil {
		return
	}
	for _, name := range sw.order {
		ObserveSpan(ctx, name, sw.total[name])
	}
	sw.order = sw.order[:0]
	clear(sw.total)
}
