package dtrace

import (
	"sort"

	"repro/internal/obs"
)

// TimelineSchema stamps the per-job trace artifact. The document is
// simultaneously a valid Chrome trace (viewers read "traceEvents" and
// ignore the extra top-level keys) and a sniffable pim-render artifact
// (cmd/pimreport switches on "schema").
const TimelineSchema = "pim-render/trace/v1"

// WorkerReport is the worker's half of one job's trace, shipped back to
// the coordinator inside the lease completion request.
type WorkerReport struct {
	// Context echoes the traceparent the grant carried.
	Context string `json:"context,omitempty"`
	// Worker is the reporting worker's identity.
	Worker string `json:"worker,omitempty"`
	// GrantRecvUS (t1) is when the worker received the grant, and SendUS
	// (t2) when it sent the completion — both Unix microseconds on the
	// worker's clock. Together with the coordinator's grant stamp (t0)
	// and completion receipt (t3) they give the NTP-style skew estimate
	// θ = ((t1−t0)+(t2−t3))/2 that puts worker spans on the
	// coordinator's clock.
	GrantRecvUS int64 `json:"grant_recv_us,omitempty"`
	SendUS      int64 `json:"send_us,omitempty"`
	// Spans are the worker-side spans (cache-tier lookup, simulate
	// stages, encode), on the worker's clock.
	Spans []Span `json:"spans,omitempty"`
	// Dropped counts spans lost to the per-job recorder cap.
	Dropped int `json:"dropped,omitempty"`
}

// Timeline is the assembled per-job trace: GET /v1/jobs/{id}/trace.
type Timeline struct {
	Schema  string `json:"schema"`
	TraceID string `json:"trace_id"`
	JobID   string `json:"job_id,omitempty"`
	Label   string `json:"label,omitempty"`
	Tenant  string `json:"tenant,omitempty"`
	Class   string `json:"class,omitempty"`
	Worker  string `json:"worker,omitempty"`
	// BaseUnixUS is the coordinator-clock instant event Ts 0 maps to
	// (the root span's start), so viewers get a near-zero axis and
	// consumers can recover absolute times.
	BaseUnixUS int64 `json:"base_unix_us"`
	// SkewUS is the worker-minus-coordinator clock offset estimate that
	// was subtracted from worker span times (0 for local jobs).
	SkewUS int64 `json:"skew_us"`
	// DroppedSpans counts spans lost to recorder caps on either side.
	DroppedSpans int               `json:"dropped_spans,omitempty"`
	TraceEvents  []obs.ChromeEvent `json:"traceEvents"`
}

// Process IDs in the exported trace: the coordinator's spans and the
// executing worker's spans render as two named processes.
const (
	pidCoordinator = 1
	pidWorker      = 2
)

// Assembly is everything Assemble needs to build one job timeline.
type Assembly struct {
	// Context is the job's parsed trace context.
	Context Context
	JobID   string
	Label   string
	Tenant  string
	Class   string
	// Coordinator spans are already on the coordinator's clock.
	Coordinator []Span
	// CoordDropped counts coordinator-side spans lost to a cap.
	CoordDropped int
	// Worker is the executing worker's half (nil when no worker
	// reported, e.g. the job failed without ever holding a lease).
	Worker *WorkerReport
	// GrantUS (t0) is the coordinator-clock grant stamp and CompleteUS
	// (t3) the coordinator-clock completion receipt; both 0 when the job
	// never held a lease.
	GrantUS    int64
	CompleteUS int64
}

// Assemble corrects worker-clock spans onto the coordinator's clock and
// merges both sides into one causally ordered Chrome trace. Worker spans
// are shifted by the skew estimate and then clamped into the lease
// window [t0, t3], so a parent lease span always encloses its worker
// children even when the RTT-bounded skew estimate is off.
func Assemble(a Assembly) *Timeline {
	tl := &Timeline{
		Schema:  TimelineSchema,
		TraceID: a.Context.TraceID,
		JobID:   a.JobID,
		Label:   a.Label,
		Tenant:  a.Tenant,
		Class:   a.Class,
	}

	type procSpan struct {
		pid int
		s   Span
	}
	spans := make([]procSpan, 0, len(a.Coordinator)+8)
	for _, s := range a.Coordinator {
		spans = append(spans, procSpan{pid: pidCoordinator, s: s})
	}
	tl.DroppedSpans = a.CoordDropped

	if w := a.Worker; w != nil {
		tl.Worker = w.Worker
		tl.DroppedSpans += w.Dropped
		t0, t1 := a.GrantUS, w.GrantRecvUS
		t2, t3 := w.SendUS, a.CompleteUS
		if t0 > 0 && t1 > 0 && t2 > 0 && t3 > 0 {
			tl.SkewUS = ((t1 - t0) + (t2 - t3)) / 2
		}
		clamp := func(t int64) int64 {
			t -= tl.SkewUS
			if t0 > 0 && t < t0 {
				t = t0
			}
			if t3 > 0 && t > t3 {
				t = t3
			}
			return t
		}
		for _, s := range w.Spans {
			s.StartUS = clamp(s.StartUS)
			s.EndUS = clamp(s.EndUS)
			spans = append(spans, procSpan{pid: pidWorker, s: s})
		}
		// Wire spans make the two network hops visible: grant out,
		// completion back. Degenerate (clamped-away) hops still render as
		// zero-length spans, keeping the catalog stable.
		if t0 > 0 && t3 > 0 {
			spans = append(spans,
				procSpan{pid: pidCoordinator, s: Span{Name: "wire/grant", Track: "wire",
					StartUS: t0, EndUS: clamp(t1)}},
				procSpan{pid: pidCoordinator, s: Span{Name: "wire/complete", Track: "wire",
					StartUS: clamp(t2), EndUS: t3}},
			)
		}
	}
	if len(spans) == 0 {
		tl.TraceEvents = []obs.ChromeEvent{}
		return tl
	}

	sort.SliceStable(spans, func(i, j int) bool {
		if spans[i].pid != spans[j].pid {
			return spans[i].pid < spans[j].pid
		}
		return spans[i].s.StartUS < spans[j].s.StartUS
	})

	base := spans[0].s.StartUS
	for _, ps := range spans {
		if ps.s.StartUS < base {
			base = ps.s.StartUS
		}
	}
	tl.BaseUnixUS = base

	// One tid per (pid, track), in order of first appearance; metadata
	// events name the processes and tracks for the viewer.
	type trackKey struct {
		pid   int
		track string
	}
	tids := map[trackKey]int{}
	nextTid := map[int]int{}
	events := make([]obs.ChromeEvent, 0, len(spans)+8)
	procName := map[int]string{pidCoordinator: "pimfarm coordinator", pidWorker: "worker"}
	if tl.Worker != "" {
		procName[pidWorker] = "worker " + tl.Worker
	}
	seenPid := map[int]bool{}
	for _, ps := range spans {
		if !seenPid[ps.pid] {
			seenPid[ps.pid] = true
			events = append(events, obs.ChromeEvent{
				Name: "process_name", Ph: "M", Pid: ps.pid,
				Args: map[string]any{"name": procName[ps.pid]},
			})
		}
		k := trackKey{pid: ps.pid, track: ps.s.Track}
		tid, ok := tids[k]
		if !ok {
			nextTid[ps.pid]++
			tid = nextTid[ps.pid]
			tids[k] = tid
			name := ps.s.Track
			if name == "" {
				name = "main"
			}
			events = append(events,
				obs.ChromeEvent{Name: "thread_name", Ph: "M", Pid: ps.pid, Tid: tid,
					Args: map[string]any{"name": name}},
				obs.ChromeEvent{Name: "thread_sort_index", Ph: "M", Pid: ps.pid, Tid: tid,
					Args: map[string]any{"sort_index": tid}},
			)
		}
		ev := obs.ChromeEvent{
			Name: ps.s.Name, Ph: "X",
			Ts: ps.s.StartUS - base, Dur: ps.s.EndUS - ps.s.StartUS,
			Pid: ps.pid, Tid: tid,
		}
		if ev.Dur < 0 {
			ev.Dur = 0
		}
		if len(ps.s.Attrs) > 0 {
			ev.Args = make(map[string]any, len(ps.s.Attrs))
			for k, v := range ps.s.Attrs {
				ev.Args[k] = v
			}
		}
		events = append(events, ev)
	}
	tl.TraceEvents = events
	return tl
}

// StageDurations sums span durations per span name, in milliseconds —
// the per-stage breakdown fed to the trace summary and pimload's
// slowest-requests table.
func (tl *Timeline) StageDurations() map[string]float64 {
	if tl == nil {
		return nil
	}
	out := make(map[string]float64)
	for _, ev := range tl.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		out[ev.Name] += float64(ev.Dur) / 1000
	}
	return out
}
