package gpu

import (
	"fmt"

	"repro/internal/mem"
	"repro/internal/obs"
)

// Observer watches frames render. The pipeline calls it only at points
// whose order is fixed — once per shard worker, per tile and group end on
// that worker, in the fixed-order group merge, and at frame end — so what
// an observer builds is byte-identical at any shard count. Observers only
// read values the timing model already produced and never change
// simulated results. The cycle tracer (TraceObserver), the frame profiler
// (FrameProfiler) and internal/core's telemetry gauges implement it;
// Observers fans one frame out to several.
//
// Observer is the serial, deterministic seam. Pipeline.Progress is the
// other one: concurrent and in flight.
type Observer interface {
	// Worker is called once per shard worker and frame, on the worker's
	// goroutine, with its private backend and texture path. It returns the
	// observer for the worker's groups, or nil when it captures nothing
	// there. Calls for different workers may run concurrently. A tracer it
	// attaches to the worker's units is detached when the worker's part of
	// the frame ends: workers outlive frames.
	Worker(backend mem.Backend, path TexturePath) WorkerObserver
	// Group is called for every group in fixed group order during the
	// merge, with the group's span and counters on the frame timeline and
	// the value its worker observer captured at group end (nil without
	// one).
	Group(g obs.GroupProfile, captured any)
	// FrameEnd is called once the frame is resolved.
	FrameEnd(f FrameEnd)
}

// WorkerObserver observes the groups one shard worker simulates. Its
// methods run on that worker's goroutine only.
type WorkerObserver interface {
	// Tile reports one tile's span on a shader cluster in group-local
	// cycles (end == start when the tile shaded no fragment).
	Tile(cluster int, start, end int64)
	// GroupEnd returns what was captured for the group just simulated and
	// starts the next group empty. The worker's units still hold the
	// group's state when it is called.
	GroupEnd() any
}

// FrameEnd describes a resolved frame to Observer.FrameEnd. Geometry runs
// over [0, GeometryEnd), setup to SetupEnd, fragment to FragmentEnd and
// resolve to ResolveEnd; Cycles (>= ResolveEnd) adds the memory drain.
type FrameEnd struct {
	Frame, Width, Height int
	// Stage bounds and frame length, in frame-timeline cycles.
	GeometryEnd, SetupEnd, FragmentEnd, ResolveEnd, Cycles int64
	// Fragments counts shaded fragments; Traffic is the pipeline's
	// GPU<->memory traffic, groups included.
	Fragments uint64
	Traffic   mem.Traffic
	// Backend is the frame-level memory backend (geometry and resolve).
	Backend mem.Backend
}

// FrameEndFunc adapts a function to an Observer that watches frame ends
// only; it captures nothing per worker or group.
type FrameEndFunc func(FrameEnd)

func (FrameEndFunc) Worker(mem.Backend, TexturePath) WorkerObserver { return nil }
func (FrameEndFunc) Group(obs.GroupProfile, any)                    {}
func (f FrameEndFunc) FrameEnd(e FrameEnd)                          { f(e) }

// Observers fans frames out to every observer in list order; one
// observer is returned as is.
func Observers(list ...Observer) Observer {
	if len(list) == 1 {
		return list[0]
	}
	return multiObserver(list)
}

type multiObserver []Observer

// multiWorker holds one worker observer per child (nil where the child
// captures nothing); its captured value holds one entry per child.
type multiWorker []WorkerObserver

func (m multiObserver) Worker(backend mem.Backend, path TexturePath) WorkerObserver {
	ws := make(multiWorker, len(m))
	for i, o := range m {
		ws[i] = o.Worker(backend, path)
	}
	return ws
}

func (m multiObserver) Group(g obs.GroupProfile, captured any) {
	caps := captured.([]any)
	for i, o := range m {
		o.Group(g, caps[i])
	}
}

func (m multiObserver) FrameEnd(f FrameEnd) {
	for _, o := range m {
		o.FrameEnd(f)
	}
}

func (m multiWorker) Tile(cluster int, start, end int64) {
	for _, w := range m {
		if w != nil {
			w.Tile(cluster, start, end)
		}
	}
}

func (m multiWorker) GroupEnd() any {
	caps := make([]any, len(m))
	for i, w := range m {
		if w != nil {
			caps[i] = w.GroupEnd()
		}
	}
	return caps
}

// workerTraceCap bounds each worker's private span ring. Workers trace
// into a private ring so group-local cycle stamps can be rebased onto the
// frame timeline at merge time regardless of which goroutine ran the group.
const workerTraceCap = 1 << 15

// TraceObserver records every frame's cycle timeline into t: spans from
// the frame-level backend (attached here; Pipeline.Detach detaches it),
// each group's tile, unit and memory spans rebased from its worker's
// private ring onto the frame timeline at merge, one span per group, and
// the stage and frame spans at frame end.
func TraceObserver(t *obs.Tracer, backend mem.Backend) Observer {
	attachTracer(t, backend, nil)
	return traceObserver{t}
}

type traceObserver struct{ t *obs.Tracer }

// traceWorker is one shard worker's private ring and cluster track names.
type traceWorker struct {
	ring   *obs.Tracer
	tracks []string
}

// attachTracer routes a backend's and a texture path's spans into t.
func attachTracer(t *obs.Tracer, backend mem.Backend, path TexturePath) {
	if ta, ok := backend.(obs.TraceAttacher); ok {
		ta.SetTracer(t)
	}
	if ta, ok := path.(obs.TraceAttacher); ok {
		ta.SetTracer(t)
	}
}

func (o traceObserver) Worker(backend mem.Backend, path TexturePath) WorkerObserver {
	w := &traceWorker{ring: obs.NewTracer(workerTraceCap)}
	attachTracer(w.ring, backend, path)
	return w
}

func (o traceObserver) Group(g obs.GroupProfile, captured any) {
	events, _ := captured.([]obs.Event)
	for _, e := range events {
		o.t.SpanArg(e.Track, e.Name, e.Start+g.StartCycle, e.End+g.StartCycle, e.ArgName, e.Arg)
	}
	o.t.SpanArg("groups", fmt.Sprintf("group %d", g.Index), g.StartCycle, g.EndCycle,
		"fragments", int64(g.Fragments))
}

func (o traceObserver) FrameEnd(f FrameEnd) {
	o.t.Span("pipeline", "geometry", 0, f.GeometryEnd)
	o.t.Span("pipeline", "setup", f.GeometryEnd, f.SetupEnd)
	o.t.Span("pipeline", "fragment", f.SetupEnd, f.FragmentEnd)
	o.t.Span("pipeline", "resolve", f.FragmentEnd, f.ResolveEnd)
	o.t.SpanArg("frame", fmt.Sprintf("frame %d", f.Frame), 0, f.Cycles,
		"fragments", int64(f.Fragments))
}

func (w *traceWorker) Tile(cluster int, start, end int64) {
	if end <= start {
		return
	}
	for len(w.tracks) <= cluster {
		w.tracks = append(w.tracks, fmt.Sprintf("cluster%02d", len(w.tracks)))
	}
	w.ring.Span(w.tracks[cluster], "tile", start, end)
}

func (w *traceWorker) GroupEnd() any {
	events := w.ring.Events()
	w.ring.Reset()
	return events
}
