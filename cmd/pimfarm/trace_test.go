package main

// Distributed-tracing tests at the HTTP API level: a dist-mode job yields
// one well-formed Chrome trace with coordinator and worker spans under a
// single trace ID and skew-corrected, causally ordered timestamps;
// sampling off records nothing; and re-minting (journal replay) always
// produces a fresh trace root.

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/farm"
	"repro/internal/farm/dist"
	"repro/internal/obs"
	"repro/internal/obs/dtrace"
	"repro/internal/suite"
)

// traceDoc is the GET /v1/jobs/{id}/trace shape the tests read back.
type traceDoc struct {
	Schema      string            `json:"schema"`
	TraceID     string            `json:"trace_id"`
	JobID       string            `json:"job_id"`
	Worker      string            `json:"worker"`
	SkewUS      int64             `json:"skew_us"`
	TraceEvents []obs.ChromeEvent `json:"traceEvents"`
}

func getTrace(t *testing.T, ts *httptest.Server, id string) (traceDoc, int) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc traceDoc
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
			t.Fatal(err)
		}
	}
	return doc, resp.StatusCode
}

// interval is one complete ("X") event's [start, end) on the rebased
// timeline, plus which process track it landed on.
type interval struct {
	pid     int
	ts, end int64
}

// eventIndex collects the X events by name (first occurrence wins for
// singular spans; simulate/* spans are counted separately).
func eventIndex(t *testing.T, doc traceDoc) map[string]interval {
	t.Helper()
	idx := map[string]interval{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		if ev.Ts < 0 || ev.Dur < 0 {
			t.Fatalf("event %q has negative ts/dur: ts=%d dur=%d", ev.Name, ev.Ts, ev.Dur)
		}
		if _, seen := idx[ev.Name]; !seen {
			idx[ev.Name] = interval{pid: ev.Pid, ts: ev.Ts, end: ev.Ts + ev.Dur}
		}
	}
	return idx
}

// TestDistTraceEndToEnd: a job run through coordinator + remote worker
// serves one Chrome trace containing the coordinator's admit/queue/lease
// spans and the worker's run/simulate spans under the job's trace ID,
// with worker spans clamped inside the lease window after skew
// correction, and the stage aggregates appear in /v1/traces/summary.
func TestDistTraceEndToEnd(t *testing.T) {
	ts, _ := newDistTestServer(t, dist.Config{TTL: time.Minute})
	startTestWorker(t, ts.URL, "trace-worker")

	jr, code := postJob(t, ts, `{"game":"doom3","width":320,"height":240,"design":"atfim"}`)
	if code != http.StatusAccepted {
		t.Fatalf("POST = %d", code)
	}
	final := pollJob(t, ts, jr.ID)
	if final.State != "done" {
		t.Fatalf("job: %s (%s)", final.State, final.Error)
	}
	if final.TraceID == "" {
		t.Fatal("finished job view has no trace_id (default sampling is 1.0)")
	}

	doc, code := getTrace(t, ts, jr.ID)
	if code != http.StatusOK {
		t.Fatalf("GET trace = %d", code)
	}
	if doc.Schema != dtrace.TimelineSchema {
		t.Fatalf("schema = %q, want %q", doc.Schema, dtrace.TimelineSchema)
	}
	if doc.TraceID != final.TraceID {
		t.Fatalf("trace_id mismatch: timeline %q, job view %q", doc.TraceID, final.TraceID)
	}
	if doc.JobID != jr.ID || doc.Worker != "trace-worker" {
		t.Fatalf("timeline identity: job=%q worker=%q", doc.JobID, doc.Worker)
	}
	checkTraceShape(t, doc)

	// The aggregate view saw this job's stage durations.
	resp, err := http.Get(ts.URL + "/v1/traces/summary")
	if err != nil {
		t.Fatal(err)
	}
	var sum struct {
		Schema  string                                      `json:"schema"`
		Jobs    uint64                                      `json:"jobs"`
		ByClass map[string]map[string]dtrace.StageQuantiles `json:"by_class"`
	}
	err = json.NewDecoder(resp.Body).Decode(&sum)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if sum.Schema != dtrace.SummarySchema || sum.Jobs < 1 {
		t.Fatalf("summary = schema %q jobs %d", sum.Schema, sum.Jobs)
	}
	foundRun := false
	for _, stages := range sum.ByClass {
		if q, ok := stages["run"]; ok && q.Count >= 1 {
			foundRun = true
		}
	}
	if !foundRun {
		t.Fatalf("summary has no run-stage quantiles: %+v", sum.ByClass)
	}
}

// checkTraceShape asserts the one timeline shape every executed job has:
// the coordinator's admit/dist-queue/lease and wire spans on pid 1, the
// worker's resolve/tiers/run/encode and simulate-stage spans on pid 2, and
// after skew correction the worker's run inside the lease window inside
// the job root.
func checkTraceShape(t *testing.T, doc traceDoc) {
	t.Helper()
	idx := eventIndex(t, doc)
	for _, name := range []string{"job", "admit", "dist/queue",
		"dist/lease", "wire/grant", "wire/complete"} {
		iv, ok := idx[name]
		if !ok {
			t.Fatalf("missing coordinator span %q (have %v)", name, spanNames(doc))
		}
		if iv.pid != 1 {
			t.Fatalf("span %q on pid %d, want coordinator pid 1", name, iv.pid)
		}
	}
	// An admitted job goes straight to the coordinator: the one queue
	// between admission and a worker is dist/queue.
	if _, ok := idx["farm/queue"]; ok {
		t.Fatalf("timeline still has a farm/queue span (have %v)", spanNames(doc))
	}
	for _, name := range []string{"resolve", "tiers", "run", "encode"} {
		iv, ok := idx[name]
		if !ok {
			t.Fatalf("missing worker span %q (have %v)", name, spanNames(doc))
		}
		if iv.pid != 2 {
			t.Fatalf("span %q on pid %d, want worker pid 2", name, iv.pid)
		}
	}
	simulates := 0
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" && strings.HasPrefix(ev.Name, "simulate/") {
			simulates++
			if ev.Pid != 2 {
				t.Fatalf("simulate span on pid %d, want 2", ev.Pid)
			}
		}
	}
	if simulates == 0 {
		t.Fatalf("no simulate stage spans (have %v)", spanNames(doc))
	}

	// Causal ordering after skew correction: the worker's run sits inside
	// the coordinator's lease window, which sits inside the job root.
	lease, run, job := idx["dist/lease"], idx["run"], idx["job"]
	if run.ts < lease.ts || run.end > lease.end {
		t.Fatalf("run [%d,%d] escapes lease [%d,%d] (skew_us=%d)",
			run.ts, run.end, lease.ts, lease.end, doc.SkewUS)
	}
	if lease.ts < job.ts || lease.end > job.end {
		t.Fatalf("lease [%d,%d] escapes job [%d,%d]", lease.ts, lease.end, job.ts, job.end)
	}
}

func spanNames(doc traceDoc) []string {
	var names []string
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" {
			names = append(names, ev.Name)
		}
	}
	return names
}

// TestLocalTraceTimeline: local mode records the same timeline shape as
// dist mode — its in-process worker reports spans through the lease
// protocol like a remote one, wire spans included.
func TestLocalTraceTimeline(t *testing.T) {
	ts, _ := newTestServer(t)

	jr, code := postJob(t, ts, `{"game":"doom3","width":320,"height":240,"design":"bpim"}`)
	if code != http.StatusAccepted {
		t.Fatalf("POST = %d", code)
	}
	final := pollJob(t, ts, jr.ID)
	if final.State != "done" {
		t.Fatalf("job: %s (%s)", final.State, final.Error)
	}
	doc, code := getTrace(t, ts, jr.ID)
	if code != http.StatusOK {
		t.Fatalf("GET trace = %d", code)
	}
	if doc.JobID != jr.ID || doc.Worker != "in-process" {
		t.Fatalf("timeline identity: job=%q worker=%q", doc.JobID, doc.Worker)
	}
	checkTraceShape(t, doc)
}

// TestTraceSamplingOff: with -trace-sample 0, jobs carry no trace context
// at all — no trace_id in the view, a 404 from the trace endpoint, and
// (by construction) zero spans recorded anywhere.
func TestTraceSamplingOff(t *testing.T) {
	f := farm.New(farm.Config{})
	api := newLocalServer(t, f, nil, 2)
	api.traceSample = 0
	ts := httptest.NewServer(api)
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		if err := f.Close(ctx); err != nil {
			t.Error(err)
		}
	})

	jr, code := postJob(t, ts, `{"game":"doom3","width":320,"height":240,"design":"baseline"}`)
	if code != http.StatusAccepted {
		t.Fatalf("POST = %d", code)
	}
	final := pollJob(t, ts, jr.ID)
	if final.State != "done" {
		t.Fatalf("job: %s (%s)", final.State, final.Error)
	}
	if final.TraceID != "" {
		t.Fatalf("unsampled job has trace_id %q", final.TraceID)
	}
	if _, code := getTrace(t, ts, jr.ID); code != http.StatusNotFound {
		t.Fatalf("GET trace on unsampled job = %d, want 404", code)
	}
}

// TestReplayMintsFreshTraceRoot: building the same spec from the same
// origin twice (exactly what journal replay does) mints distinct trace
// roots — a replayed job's timeline never aliases its ancestor's.
func TestReplayMintsFreshTraceRoot(t *testing.T) {
	f := farm.New(farm.Config{})
	api := newLocalServer(t, f, nil, 1)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		if err := f.Close(ctx); err != nil {
			t.Error(err)
		}
	})

	req := suite.Spec{Game: "doom3", Width: 320, Height: 240, Design: "baseline"}
	t1, err := api.buildTask(&req, "journal:rec-000042")
	if err != nil {
		t.Fatal(err)
	}
	t2, err := api.buildTask(&req, "journal:rec-000042")
	if err != nil {
		t.Fatal(err)
	}
	c1, ok1 := dtrace.Parse(t1.Trace)
	c2, ok2 := dtrace.Parse(t2.Trace)
	if !ok1 || !ok2 {
		t.Fatalf("minted contexts do not parse: %q, %q", t1.Trace, t2.Trace)
	}
	if c1.TraceID == c2.TraceID {
		t.Fatalf("replay reused trace root %s", c1.TraceID)
	}
}
