package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/farm"
	"repro/internal/obs"
)

// TestJobProfileEndpoint is the frame-anatomy capture contract: a job
// submitted with "profile": true that really simulates exposes its
// pim-render/frameprofile/v1 artifact at GET /v1/jobs/{id}/profile, while
// cache-served twins and unprofiled jobs answer 404.
func TestJobProfileEndpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real simulation")
	}
	ts, _ := newTestServer(t)

	submit := func(body string) jobResponse {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/jobs?wait=true", "application/json",
			strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var jr jobResponse
		err = json.NewDecoder(resp.Body).Decode(&jr)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK || jr.State != "done" {
			t.Fatalf("wait=true status = %d state = %q (%s)", resp.StatusCode, jr.State, jr.Error)
		}
		return jr
	}

	profiled := submit(`{"game":"doom3","width":320,"height":240,"design":"bpim","profile":true}`)

	resp, err := http.Get(ts.URL + "/v1/jobs/" + profiled.ID + "/profile")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		t.Fatalf("profile status = %d: %s", resp.StatusCode, body)
	}
	fp, err := obs.ReadFrameProfile(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("profile body is not a frameprofile/v1 artifact: %v", err)
	}
	if fp.Workload != "doom3-320x240" || fp.Design != "B-PIM" {
		t.Fatalf("artifact identity %q/%q", fp.Workload, fp.Design)
	}
	if len(fp.Frames) == 0 {
		t.Fatal("artifact has no frames")
	}
	f := fp.Frames[0]
	if len(f.Timelines) < 2 || len(f.Groups) == 0 {
		t.Fatalf("artifact anatomy too thin: %d timelines, %d groups",
			len(f.Timelines), len(f.Groups))
	}

	// A twin submission is served from the run cache, so no artifact is
	// captured under its job ID; the 404 explains the caveat.
	twin := submit(`{"game":"doom3","width":320,"height":240,"design":"bpim","profile":true}`)
	if twin.ID == profiled.ID {
		t.Fatal("twin reused the original job ID")
	}
	resp, err = http.Get(ts.URL + "/v1/jobs/" + twin.ID + "/profile")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusNotFound {
		resp.Body.Close()
		t.Fatalf("cache-served twin profile status = %d, want 404", resp.StatusCode)
	}
	if msg := decodeErrorBody(t, resp); !strings.Contains(msg, "cache") {
		t.Errorf("twin 404 message %q does not mention the cache caveat", msg)
	}

	// A job that never opted in has no profile either.
	plain := submit(`{"game":"doom3","width":320,"height":240,"design":"baseline"}`)
	resp, err = http.Get(ts.URL + "/v1/jobs/" + plain.ID + "/profile")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusNotFound {
		resp.Body.Close()
		t.Fatalf("unprofiled job profile status = %d, want 404", resp.StatusCode)
	}
	decodeErrorBody(t, resp)

	// Unknown job and wrong verb keep the JSON error contract.
	resp, err = http.Get(ts.URL + "/v1/jobs/job-999999/profile")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusNotFound {
		resp.Body.Close()
		t.Fatalf("unknown job profile status = %d, want 404", resp.StatusCode)
	}
	decodeErrorBody(t, resp)

	req, err := http.NewRequest(http.MethodPut, ts.URL+"/v1/jobs/"+profiled.ID+"/profile", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err = ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusMethodNotAllowed {
		resp.Body.Close()
		t.Fatalf("PUT profile status = %d, want 405", resp.StatusCode)
	}
	if allow := resp.Header.Get("Allow"); allow != "GET" {
		t.Errorf("Allow = %q, want GET", allow)
	}
	decodeErrorBody(t, resp)
}

// TestJobArtifactsLeaveWithJob: a job's profile and trace timeline live on
// the farm's job, so both endpoints serve while the farm retains the job
// and answer 404 once a newer job pushes it out of the registry.
func TestJobArtifactsLeaveWithJob(t *testing.T) {
	f := farm.New(farm.Config{RetainDone: 1})
	ts := httptest.NewServer(newLocalServer(t, f, nil, 1))
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		if err := f.Close(ctx); err != nil {
			t.Error(err)
		}
	})

	submit := func(body string) string {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/jobs?wait=true", "application/json",
			strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var jr jobResponse
		err = json.NewDecoder(resp.Body).Decode(&jr)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK || jr.State != "done" {
			t.Fatalf("wait=true status = %d state = %q (%s)", resp.StatusCode, jr.State, jr.Error)
		}
		return jr.ID
	}
	status := func(id, artifact string) int {
		t.Helper()
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/" + artifact)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			decodeErrorBody(t, resp)
			return resp.StatusCode
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	old := submit(`{"game":"doom3","width":160,"height":120,"design":"bpim","profile":true}`)
	for _, a := range []string{"profile", "trace"} {
		if code := status(old, a); code != http.StatusOK {
			t.Fatalf("retained job %s: GET %s = %d, want 200", old, a, code)
		}
	}

	newer := submit(`{"game":"doom3","width":160,"height":120,"design":"baseline"}`)
	if _, ok := f.Job(old); ok {
		t.Fatalf("farm still retains %s after %s finished with RetainDone 1", old, newer)
	}
	for _, a := range []string{"profile", "trace"} {
		if code := status(old, a); code != http.StatusNotFound {
			t.Fatalf("pruned job %s: GET %s = %d, want 404", old, a, code)
		}
	}
	if code := status(newer, "trace"); code != http.StatusOK {
		t.Fatalf("retained job %s: GET trace = %d, want 200", newer, code)
	}
}

// TestMetricsRuntimeGauges: every scrape carries refreshed Go-runtime
// health gauges.
func TestMetricsRuntimeGauges(t *testing.T) {
	ts, _ := newTestServer(t)
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, name := range []string{
		"# TYPE go_goroutines gauge",
		"# TYPE go_memstats_heap_alloc_bytes gauge",
		"# TYPE go_memstats_gc_pause_total_seconds gauge",
	} {
		if !strings.Contains(text, name) {
			t.Errorf("scrape missing %q", name)
		}
	}
}
