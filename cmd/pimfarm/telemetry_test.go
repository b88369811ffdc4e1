package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/farm"
)

// sseEvent is one parsed Server-Sent Event frame.
type sseEvent struct {
	id   string
	typ  string
	data string
}

// readSSE consumes an event stream until it closes, returning every event
// frame (comments are dropped).
func readSSE(t *testing.T, r io.Reader) []sseEvent {
	t.Helper()
	var (
		events []sseEvent
		cur    sseEvent
		dirty  bool
	)
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if dirty {
				events = append(events, cur)
			}
			cur, dirty = sseEvent{}, false
		case strings.HasPrefix(line, ":"):
			// keepalive comment
		case strings.HasPrefix(line, "id: "):
			cur.id, dirty = strings.TrimPrefix(line, "id: "), true
		case strings.HasPrefix(line, "event: "):
			cur.typ, dirty = strings.TrimPrefix(line, "event: "), true
		case strings.HasPrefix(line, "data: "):
			cur.data, dirty = strings.TrimPrefix(line, "data: "), true
		default:
			t.Errorf("unexpected SSE line %q", line)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("reading event stream: %v", err)
	}
	return events
}

// TestJobEventsStream is the live-progress contract: an event stream opened
// on a running job delivers its lifecycle "state" events, at least three
// simulation "progress" events for a multi-shard render, a terminal state,
// and an explicit "end" event — then the stream closes.
func TestJobEventsStream(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real simulation")
	}
	ts, _ := newTestServer(t)

	jr, code := postJob(t, ts, `{"game":"doom3","width":320,"height":240,"design":"atfim","shards":2}`)
	if code != http.StatusAccepted {
		t.Fatalf("POST status = %d", code)
	}

	resp, err := http.Get(ts.URL + "/v1/jobs/" + jr.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events status = %d, want 200", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q, want text/event-stream", ct)
	}

	events := readSSE(t, resp.Body)
	if len(events) == 0 {
		t.Fatal("stream delivered no events")
	}

	var progress, states int
	var lastState farm.View
	for _, ev := range events {
		switch ev.typ {
		case "progress":
			progress++
			var p core.Progress
			if err := json.Unmarshal([]byte(ev.data), &p); err != nil {
				t.Fatalf("progress event %q is not a core.Progress: %v", ev.data, err)
			}
			if p.GroupsTotal < 0 || p.Cycles < 0 {
				t.Fatalf("nonsensical progress: %+v", p)
			}
		case "state":
			states++
			if err := json.Unmarshal([]byte(ev.data), &lastState); err != nil {
				t.Fatalf("state event %q is not a farm.View: %v", ev.data, err)
			}
		case "end":
		default:
			t.Errorf("unexpected event type %q", ev.typ)
		}
	}
	if progress < 3 {
		t.Errorf("got %d progress events, want >= 3", progress)
	}
	if states < 2 {
		t.Errorf("got %d state events, want >= 2 (queued/running + terminal)", states)
	}
	if lastState.State != "done" {
		t.Errorf("last state event = %q (%s), want done", lastState.State, lastState.Error)
	}
	last := events[len(events)-1]
	if last.typ != "end" {
		t.Fatalf("stream did not terminate with an end event (got %q)", last.typ)
	}
	var final farm.View
	if err := json.Unmarshal([]byte(last.data), &final); err != nil {
		t.Fatalf("end event %q is not a farm.View: %v", last.data, err)
	}
	if final.State != "done" {
		t.Errorf("end event state = %q, want done", final.State)
	}

	// Event ids are strictly increasing within the job.
	prev := 0
	for _, ev := range events {
		if ev.id == "" {
			continue // the synthetic end event carries no id
		}
		var n int
		if _, err := fmt.Sscanf(ev.id, "%d", &n); err != nil {
			t.Fatalf("bad event id %q", ev.id)
		}
		if n <= prev {
			t.Fatalf("event ids not increasing: %d after %d", n, prev)
		}
		prev = n
	}
}

// TestJobEventsCancel proves a canceled job's stream closes with a terminal
// "canceled" state followed by the "end" event — subscribers are never left
// hanging on a job that will not run.
func TestJobEventsCancel(t *testing.T) {
	// One worker: the blocker occupies it so the watched job stays queued
	// until canceled.
	f := farm.New(farm.Config{})
	ts := httptest.NewServer(newLocalServer(t, f, nil, 1))
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		if err := f.Close(ctx); err != nil {
			t.Error(err)
		}
	})

	blocker, code := postJob(t, ts, `{"game":"doom3","width":320,"height":240,"design":"baseline"}`)
	if code != http.StatusAccepted {
		t.Fatalf("POST status = %d", code)
	}
	victim, code := postJob(t, ts, `{"game":"doom3","width":320,"height":240,"design":"bpim"}`)
	if code != http.StatusAccepted {
		t.Fatalf("POST status = %d", code)
	}

	resp, err := http.Get(ts.URL + "/v1/jobs/" + victim.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+victim.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	dresp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE status = %d, want 200", dresp.StatusCode)
	}

	events := readSSE(t, resp.Body) // returns only when the stream closes
	if len(events) < 2 {
		t.Fatalf("stream delivered %d events, want at least a terminal state and end", len(events))
	}
	last := events[len(events)-1]
	if last.typ != "end" {
		t.Fatalf("stream did not terminate with an end event (got %q)", last.typ)
	}
	var final farm.View
	if err := json.Unmarshal([]byte(last.data), &final); err != nil {
		t.Fatal(err)
	}
	if final.State != "canceled" {
		t.Errorf("end event state = %q, want canceled", final.State)
	}

	if final := pollJob(t, ts, blocker.ID); final.State != "done" {
		t.Fatalf("blocker state = %s (%s), want done", final.State, final.Error)
	}
}

// TestEventsUnknownJob pins the 404 contract for the events endpoint.
func TestEventsUnknownJob(t *testing.T) {
	ts, _ := newTestServer(t)
	resp, err := http.Get(ts.URL + "/v1/jobs/job-999999/events")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status = %d, want 404", resp.StatusCode)
	}
	decodeErrorBody(t, resp)
}

// TestMetricsEndpoint is the scrape contract end to end: after a completed
// job, GET /metrics serves valid Prometheus text exposition carrying the
// farm, run-cache, and simulation families with nonzero completions.
func TestMetricsEndpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real simulation")
	}
	ts, _ := newTestServer(t)

	resp, err := http.Post(ts.URL+"/v1/jobs?wait=true", "application/json",
		strings.NewReader(`{"game":"doom3","width":320,"height":240,"design":"baseline"}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("wait=true status = %d", resp.StatusCode)
	}

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("Content-Type = %q, want the 0.0.4 exposition format", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)

	// The registry is process-wide, so exact counts depend on test order;
	// presence and nonzero floors are the stable contract.
	mustContain := []string{
		"# TYPE pimfarm_jobs_submitted_total counter",
		"# TYPE pimfarm_jobs_completed_total counter",
		`pimfarm_jobs_completed_total{state="done"}`,
		"# TYPE pimfarm_jobs_running gauge",
		"# TYPE pimfarm_job_run_seconds histogram",
		"pimfarm_job_run_seconds_bucket",
		`pim_runcache_requests_total{outcome="`,
		"# TYPE pim_sim_frames_completed_total counter",
		"# TYPE pim_sim_frames_inflight gauge",
	}
	for _, want := range mustContain {
		if !strings.Contains(text, want) {
			t.Errorf("scrape missing %q", want)
		}
	}

	// Every non-comment line is `name{labels} value` with a parsable value.
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("unparsable sample line %q", line)
		}
		var v float64
		if _, err := fmt.Sscanf(line[i+1:], "%g", &v); err != nil && line[i+1:] != "+Inf" && line[i+1:] != "NaN" {
			t.Fatalf("unparsable value in %q: %v", line, err)
		}
	}
}

// TestVarzTelemetryBlocks checks the /varz additions: run-cache tier
// counters always present, bandwidth-meter utilization histograms once a
// job has finished.
func TestVarzTelemetryBlocks(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real simulation")
	}
	ts, _ := newTestServer(t)

	resp, err := http.Post(ts.URL+"/v1/jobs?wait=true", "application/json",
		strings.NewReader(`{"game":"doom3","width":320,"height":240,"design":"baseline"}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("wait=true status = %d", resp.StatusCode)
	}

	resp, err = http.Get(ts.URL + "/varz")
	if err != nil {
		t.Fatal(err)
	}
	var varz struct {
		RunCache map[string]uint64    `json:"run_cache"`
		BW       map[string][]float64 `json:"bw_utilization"`
	}
	err = json.NewDecoder(resp.Body).Decode(&varz)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, tier := range []string{"memory", "disk", "compute"} {
		if _, ok := varz.RunCache[tier]; !ok {
			t.Errorf("run_cache missing tier %q", tier)
		}
	}
	if len(varz.BW) == 0 {
		t.Fatal("no bandwidth histograms after a completed job")
	}
	for meter, bins := range varz.BW {
		if len(bins) == 0 {
			t.Errorf("meter %q has empty histogram", meter)
		}
		for _, v := range bins {
			if v < 0 || v > 1 {
				t.Errorf("meter %q has out-of-range utilization %g", meter, v)
			}
		}
	}
}

// TestPprofGate: the pprof subtree answers 404 unless enabled.
func TestPprofGate(t *testing.T) {
	f := farm.New(farm.Config{})
	s := newLocalServer(t, f, nil, 1)
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		if err := f.Close(ctx); err != nil {
			t.Error(err)
		}
	})

	resp, err := http.Get(ts.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("disabled pprof status = %d, want 404", resp.StatusCode)
	}
	decodeErrorBody(t, resp)

	s.pprofOn = true
	resp, err = http.Get(ts.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("enabled pprof status = %d, want 200", resp.StatusCode)
	}
}

// TestRequestID: every response carries an X-Request-ID header.
func TestRequestID(t *testing.T) {
	ts, _ := newTestServer(t)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.Header.Get("X-Request-ID") == "" {
		t.Fatal("response missing X-Request-ID")
	}
}
