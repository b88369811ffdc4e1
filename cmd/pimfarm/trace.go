package main

import (
	"fmt"
	"net/http"
	"strconv"
	"time"

	"repro/internal/farm"
	"repro/internal/farm/dist"
	"repro/internal/obs/dtrace"
)

// Distributed-trace assembly and serving. Every sampled job accumulates
// coordinator-side spans (admission wait, dist queue/lease)
// and a worker-side span report shipped back with the completion;
// recordTrace assembles them into one skew-corrected Chrome trace
// timeline served at GET /v1/jobs/{id}/trace. Local mode's in-process
// worker reports the same way, so every job has one trace shape.
// Tracing is observational-only: the context never enters cache keys and
// results are byte-identical with sampling on or off.

// recordTrace assembles one execution's timeline — the coordinator-side
// spans plus the worker's span report from the outcome, skew-corrected by
// Assemble using the lease grant/completion stamps — sets it on the job,
// and feeds the per-class/tenant stage aggregates. Failed outcomes are
// recorded too: a trace of a failed job is exactly when you want the
// timeline.
func (s *server) recordTrace(j *farm.Job, tc dtrace.Context, o *dist.Outcome, enqStart time.Time) {
	end := time.Now()
	v := j.View()
	admitStart := v.Enqueued.Add(-j.AdmitWait())
	root := dtrace.Span{
		Name: "job", StartUS: admitStart.UnixMicro(), EndUS: end.UnixMicro(),
		Attrs: map[string]string{"job": j.ID(), "label": j.Label()},
	}
	if v.Origin != "" {
		root.Attrs["origin"] = v.Origin
	}
	if v.Tenant != "" {
		root.Attrs["tenant"] = v.Tenant
		root.Attrs["class"] = v.Class
	}
	spans := []dtrace.Span{
		root,
		{Name: "admit", StartUS: admitStart.UnixMicro(), EndUS: v.Enqueued.UnixMicro()},
	}
	a := dtrace.Assembly{
		Context: tc, JobID: j.ID(), Label: j.Label(),
		Tenant: j.Tenant(), Class: j.Class(),
		Worker: o.Trace,
	}
	if !o.Granted.IsZero() {
		spans = append(spans, dtrace.Span{Name: "dist/queue",
			StartUS: enqStart.UnixMicro(), EndUS: o.Granted.UnixMicro()})
		a.GrantUS = o.Granted.UnixMicro()
	}
	if !o.Completed.IsZero() {
		attrs := map[string]string{"worker": o.Worker}
		if o.Requeues > 0 {
			attrs["requeues"] = strconv.Itoa(o.Requeues)
		}
		if o.Err != "" {
			attrs["error"] = o.Err
		}
		leaseStart := o.Granted
		if leaseStart.IsZero() {
			leaseStart = enqStart
		}
		spans = append(spans, dtrace.Span{Name: "dist/lease",
			StartUS: leaseStart.UnixMicro(), EndUS: o.Completed.UnixMicro(), Attrs: attrs})
		a.CompleteUS = o.Completed.UnixMicro()
	}
	a.Coordinator = spans
	tl := dtrace.Assemble(a)
	j.SetTimeline(tl)
	s.tsum.Observe(a.Class, a.Tenant, tl.StageDurations())
}

// handleJobTrace is GET /v1/jobs/{id}/trace: the job's assembled
// pim-render/trace/v1 timeline (Chrome trace-event JSON; load it in
// chrome://tracing or Perfetto). 404 when the job is unknown, was not
// sampled, has not executed (cache hits and dedup followers never run),
// or the timeline expired with the job's retention.
func (s *server) handleJobTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j, ok := s.farm.Job(id)
	if !ok {
		httpError(w, r, http.StatusNotFound, fmt.Errorf("unknown job %q", id))
		return
	}
	tl := j.Timeline()
	if tl == nil {
		httpError(w, r, http.StatusNotFound, fmt.Errorf(
			"no trace for job %s (traces exist only for sampled jobs that really executed — not cache hits or dedup followers — and are dropped at the farm's retention age, 10 min after the job finishes by default)", id))
		return
	}
	writeJSON(w, http.StatusOK, tl)
}

// handleTraceSummary is GET /v1/traces/summary: per-class and per-tenant
// stage-duration quantiles aggregated over recently sampled jobs.
func (s *server) handleTraceSummary(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.tsum.Snapshot())
}
