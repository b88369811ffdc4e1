// Package obs is the simulator's observability layer: cycle-timeline span
// tracing (exported as Chrome/Perfetto trace-event JSON), a structured
// metrics snapshot with a stable machine-readable schema, and shared
// profiling flags for the cmd/ binaries.
//
// The layer is always compiled in but costs near nothing when disabled: a
// nil *Tracer is a valid, inert tracer, so instrumented code guards each
// span with a single nil check (Tracer.On) and the simulated cycle counts
// are never perturbed — tracing only records timestamps the timing model
// already produced.
package obs

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
)

// DefaultTraceCapacity is the ring size used when NewTracer is given a
// non-positive capacity. At ~64 bytes/event this bounds a trace to a few
// tens of MB; when the ring wraps, the oldest events are dropped (and
// counted) so a frame's tail — usually the interesting part — survives.
const DefaultTraceCapacity = 1 << 18

// Event is one cycle-stamped span on a named track. Start and End are GPU
// cycles; an instant event has End == Start. Arg is an optional numeric
// payload (bytes moved, texels fetched, ...) named by ArgName.
type Event struct {
	Track   string
	Name    string
	Start   int64
	End     int64
	ArgName string
	Arg     int64
}

// Tracer records spans into a fixed-capacity ring. The zero value is not
// usable; build one with NewTracer. A nil *Tracer is safe to call and
// records nothing — instrumented code holds a possibly-nil tracer and
// never branches on anything else.
type Tracer struct {
	mu      sync.Mutex
	events  []Event
	cap     int
	head    int // next overwrite position once full
	full    bool
	dropped uint64
}

// NewTracer builds a tracer with the given ring capacity (events); a
// non-positive capacity selects DefaultTraceCapacity.
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTraceCapacity
	}
	return &Tracer{events: make([]Event, 0, capacity), cap: capacity}
}

// On reports whether spans will be recorded. It is the fast-path guard:
// instrumented code that must do extra work to build a span (format a
// label, compute an argument) checks On first; plain Span calls need not.
func (t *Tracer) On() bool { return t != nil }

// Span records a [start, end] span on a track. Nil-safe.
func (t *Tracer) Span(track, name string, start, end int64) {
	if t == nil {
		return
	}
	t.record(Event{Track: track, Name: name, Start: start, End: end})
}

// SpanArg records a span carrying one named numeric argument. Nil-safe.
func (t *Tracer) SpanArg(track, name string, start, end int64, argName string, arg int64) {
	if t == nil {
		return
	}
	t.record(Event{Track: track, Name: name, Start: start, End: end, ArgName: argName, Arg: arg})
}

// Instant records a zero-duration marker. Nil-safe.
func (t *Tracer) Instant(track, name string, at int64) {
	if t == nil {
		return
	}
	t.record(Event{Track: track, Name: name, Start: at, End: at})
}

func (t *Tracer) record(e Event) {
	t.mu.Lock()
	if len(t.events) < t.cap {
		t.events = append(t.events, e)
	} else {
		t.events[t.head] = e
		t.head = (t.head + 1) % t.cap
		t.full = true
		t.dropped++
	}
	t.mu.Unlock()
}

// Len returns the number of events currently held.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.events)
}

// Dropped returns how many events were evicted by ring wraparound.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// Events returns a copy of the recorded events in recording order
// (oldest surviving event first).
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Event, 0, len(t.events))
	if t.full {
		out = append(out, t.events[t.head:]...)
		out = append(out, t.events[:t.head]...)
	} else {
		out = append(out, t.events...)
	}
	return out
}

// Reset discards all recorded events, keeping the ring's capacity.
func (t *Tracer) Reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.events = t.events[:0]
	t.head = 0
	t.full = false
	t.dropped = 0
	t.mu.Unlock()
}

// TraceAttacher is implemented by simulator components (memory backends
// and texture paths) that can route their spans into a tracer.
type TraceAttacher interface {
	SetTracer(*Tracer)
}

// HistogramSource is implemented by memory backends that can report
// per-resource utilization histograms (see sim.BandwidthMeter).
type HistogramSource interface {
	UtilizationHistograms(bins int) map[string][]float64
}

// Chrome trace-event JSON (the format ui.perfetto.dev and
// chrome://tracing open). One simulated GPU cycle maps to one microsecond
// of trace time, so the viewer's time axis reads directly in cycles.

// ChromeTrace is the top-level object written by WriteChromeTrace; tests
// and downstream tools unmarshal into it.
type ChromeTrace struct {
	TraceEvents []ChromeEvent `json:"traceEvents"`
}

// ChromeEvent is one trace-event record. Ph "X" is a complete span
// (Ts/Dur), ph "M" is metadata (process_name / thread_name).
type ChromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   int64          `json:"ts"`
	Dur  int64          `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// WriteChromeTrace serializes the recorded events as Chrome trace-event
// JSON. Each distinct track becomes one named thread (sorted for stable
// tid assignment); spans become ph "X" complete events.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	events := t.Events()

	tracks := map[string]int{}
	for _, e := range events {
		if _, ok := tracks[e.Track]; !ok {
			tracks[e.Track] = 0
		}
	}
	names := make([]string, 0, len(tracks))
	for name := range tracks {
		names = append(names, name)
	}
	sort.Strings(names)
	for i, name := range names {
		tracks[name] = i + 1
	}

	out := ChromeTrace{TraceEvents: make([]ChromeEvent, 0, len(events)+len(names)+1)}
	out.TraceEvents = append(out.TraceEvents, ChromeEvent{
		Name: "process_name", Ph: "M", Pid: 1,
		Args: map[string]any{"name": "pim-render"},
	})
	for _, name := range names {
		out.TraceEvents = append(out.TraceEvents, ChromeEvent{
			Name: "thread_name", Ph: "M", Pid: 1, Tid: tracks[name],
			Args: map[string]any{"name": name},
		})
		out.TraceEvents = append(out.TraceEvents, ChromeEvent{
			Name: "thread_sort_index", Ph: "M", Pid: 1, Tid: tracks[name],
			Args: map[string]any{"sort_index": tracks[name]},
		})
	}
	for _, e := range events {
		ce := ChromeEvent{
			Name: e.Name, Ph: "X", Ts: e.Start, Dur: e.End - e.Start,
			Pid: 1, Tid: tracks[e.Track],
		}
		if ce.Dur < 0 {
			ce.Dur = 0
		}
		if e.ArgName != "" {
			ce.Args = map[string]any{e.ArgName: e.Arg}
		}
		out.TraceEvents = append(out.TraceEvents, ce)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(&out)
}
