package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/farm"
	"repro/internal/farm/dist"
	"repro/internal/obs"
	"repro/internal/obs/telem"
	"repro/internal/store"
	"repro/internal/workload"
)

func newTestServer(t *testing.T) (*httptest.Server, *farm.Farm) {
	t.Helper()
	f := farm.New(farm.Config{})
	ts := httptest.NewServer(newLocalServer(t, f, nil, 2))
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		if err := f.Close(ctx); err != nil {
			t.Error(err)
		}
	})
	return ts, f
}

// newLocalServer builds a local-mode API server over f: a coordinator
// with a private metrics registry plus an in-process worker of slots
// slots, both stopped when the test ends (after any farm shutdown the test
// registers later, so draining jobs still have their worker). The worker
// runs on a private core engine over st (nil for none), as pimfarm -store
// builds it.
func newLocalServer(t *testing.T, f *farm.Farm, st *store.Store, slots int) *server {
	t.Helper()
	coord := dist.NewCoordinator(dist.Config{Metrics: telem.NewRegistry()})
	api := newServer(f, st, coord)
	stop := startWorker(core.NewEngine(core.EngineConfig{Store: st}), api.localWorker(slots))
	t.Cleanup(func() {
		stop()
		coord.Close()
	})
	return api
}

func postJob(t *testing.T, ts *httptest.Server, body string) (jobResponse, int) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var jr jobResponse
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&jr); err != nil {
			t.Fatal(err)
		}
	}
	return jr, resp.StatusCode
}

func pollJob(t *testing.T, ts *httptest.Server, id string) jobResponse {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for time.Now().Before(deadline) {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var jr jobResponse
		err = json.NewDecoder(resp.Body).Decode(&jr)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if jr.State == "done" || jr.State == "failed" || jr.State == "canceled" {
			return jr
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish in time", id)
	return jobResponse{}
}

// TestAPIRoundTrip is the submit → poll → metrics/v1 contract: a render
// job submitted as JSON options completes and returns a parsable
// pim-render/metrics/v1 snapshot as its result body.
func TestAPIRoundTrip(t *testing.T) {
	ts, _ := newTestServer(t)

	jr, code := postJob(t, ts, `{"game":"doom3","width":320,"height":240,"design":"baseline"}`)
	if code != http.StatusAccepted {
		t.Fatalf("POST status = %d, want 202", code)
	}
	if jr.ID == "" {
		t.Fatal("no job id in response")
	}
	if jr.Request == nil || jr.Request.Game != "doom3" {
		t.Fatalf("request not echoed: %+v", jr.Request)
	}

	final := pollJob(t, ts, jr.ID)
	if final.State != "done" {
		t.Fatalf("state = %s (%s), want done", final.State, final.Error)
	}
	if final.Result == nil {
		t.Fatal("done job has no result body")
	}
	if final.Result.Schema != obs.SchemaVersion {
		t.Fatalf("result schema = %q, want %q", final.Result.Schema, obs.SchemaVersion)
	}
	if final.Result.Cycles <= 0 {
		t.Fatal("result reports zero cycles")
	}
	if final.Result.Workload != "doom3-320x240" {
		t.Fatalf("result workload = %q", final.Result.Workload)
	}

	// An identical submission is served from the result cache.
	jr2, code := postJob(t, ts, `{"game":"doom3","width":320,"height":240,"design":"baseline"}`)
	if code != http.StatusAccepted {
		t.Fatalf("duplicate POST status = %d", code)
	}
	dup := pollJob(t, ts, jr2.ID)
	if dup.State != "done" {
		t.Fatalf("duplicate state = %s", dup.State)
	}
	if !dup.CacheHit && !dup.Deduped {
		t.Fatal("duplicate submission was fully re-simulated (no cache hit or dedup)")
	}

	// Listing shows both jobs.
	resp, err := http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var list struct {
		Jobs []farm.View `json:"jobs"`
	}
	err = json.NewDecoder(resp.Body).Decode(&list)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(list.Jobs) != 2 {
		t.Fatalf("listed %d jobs, want 2", len(list.Jobs))
	}
}

func TestHealthAndVarz(t *testing.T) {
	ts, _ := newTestServer(t)

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}

	resp, err = http.Get(ts.URL + "/varz")
	if err != nil {
		t.Fatal(err)
	}
	var c farm.Counters
	err = json.NewDecoder(resp.Body).Decode(&c)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if c.Submitted != 0 || c.UptimeSeconds <= 0 {
		t.Fatalf("varz counters: %+v", c)
	}
}

func TestAPIBadRequests(t *testing.T) {
	ts, _ := newTestServer(t)
	cases := []struct {
		name, body string
	}{
		{"unknown game", `{"game":"quake","width":320,"height":240,"design":"baseline"}`},
		{"unknown design", `{"game":"doom3","width":320,"height":240,"design":"warp"}`},
		{"invalid combo", `{"game":"doom3","width":320,"height":240,"design":"atfim","compressed":true}`},
		{"bad json", `{"game":`},
		{"unknown field", `{"game":"doom3","width":320,"height":240,"design":"baseline","bogus":1}`},
	}
	for _, tc := range cases {
		if _, code := postJob(t, ts, tc.body); code != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", tc.name, code)
		}
	}

	resp, err := http.Get(ts.URL + "/v1/jobs/job-999999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job = %d, want 404", resp.StatusCode)
	}
}

// decodeErrorBody asserts resp carries a JSON error object with the right
// Content-Type and returns its message.
func decodeErrorBody(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q, want application/json", ct)
	}
	var body struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("error body is not JSON: %v", err)
	}
	if body.Error == "" {
		t.Error("error body has empty message")
	}
	return body.Error
}

// TestAPIJSONErrors pins the error contract: malformed bodies, unknown job
// IDs, wrong verbs and unknown paths all answer JSON bodies with
// Content-Type: application/json and the proper status code.
func TestAPIJSONErrors(t *testing.T) {
	ts, _ := newTestServer(t)
	client := ts.Client()

	do := func(method, path, body string) *http.Response {
		t.Helper()
		req, err := http.NewRequest(method, ts.URL+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	t.Run("malformed body is 400 JSON", func(t *testing.T) {
		resp := do("POST", "/v1/jobs", `{"game":`)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status = %d, want 400", resp.StatusCode)
		}
		if msg := decodeErrorBody(t, resp); !strings.Contains(msg, "bad request body") {
			t.Errorf("message %q does not mention the body", msg)
		}
	})
	t.Run("unknown job id is 404 JSON", func(t *testing.T) {
		resp := do("GET", "/v1/jobs/job-999999", "")
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("status = %d, want 404", resp.StatusCode)
		}
		if msg := decodeErrorBody(t, resp); !strings.Contains(msg, "job-999999") {
			t.Errorf("message %q does not name the job", msg)
		}
	})
	t.Run("wrong verb is 405 JSON with Allow", func(t *testing.T) {
		for path, allow := range map[string]string{
			"/v1/jobs":            "GET, POST",
			"/v1/jobs/job-000001": "GET, DELETE",
			"/v1/experiments":     "GET",
			"/varz":               "GET",
			"/healthz":            "GET",
		} {
			resp := do("PUT", path, "")
			if resp.StatusCode != http.StatusMethodNotAllowed {
				t.Fatalf("PUT %s status = %d, want 405", path, resp.StatusCode)
			}
			if got := resp.Header.Get("Allow"); got != allow {
				t.Errorf("PUT %s Allow = %q, want %q", path, got, allow)
			}
			decodeErrorBody(t, resp)
		}
	})
	t.Run("unknown path is 404 JSON", func(t *testing.T) {
		resp := do("GET", "/v2/nope", "")
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("status = %d, want 404", resp.StatusCode)
		}
		if msg := decodeErrorBody(t, resp); !strings.Contains(msg, "/v2/nope") {
			t.Errorf("message %q does not name the path", msg)
		}
	})
}

// TestStoreSurvivesRestart is the persistence contract end to end: a job
// simulated by one farm is served from the durable store by a fresh farm
// pointed at the same directory — no re-simulation after a restart.
func TestStoreSurvivesRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real simulation")
	}
	dir := t.TempDir()
	body := `{"game":"doom3","width":320,"height":240,"design":"baseline"}`

	runOnce := func() (jobResponse, farm.Counters, store.Counters) {
		st, err := store.Open(store.Config{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		f := farm.New(farm.Config{Tier: core.StoreTier(st)})
		ts := httptest.NewServer(newLocalServer(t, f, st, 2))
		defer func() {
			ts.Close()
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			if err := f.Close(ctx); err != nil {
				t.Error(err)
			}
		}()
		jr, code := postJob(t, ts, body)
		if code != http.StatusAccepted {
			t.Fatalf("POST status = %d", code)
		}
		final := pollJob(t, ts, jr.ID)
		if final.State != "done" {
			t.Fatalf("state = %s (%s)", final.State, final.Error)
		}
		return final, f.Counters(), st.Counters()
	}

	cold, c1, s1 := runOnce()
	if c1.TierHits != 0 || s1.Puts != 1 {
		t.Fatalf("cold run: tier_hits=%d store puts=%d, want 0/1", c1.TierHits, s1.Puts)
	}

	// Simulate a restart: new farm, new worker, same store dir.
	warm, c2, _ := runOnce()
	if c2.TierHits != 1 {
		t.Fatalf("warm run: tier_hits=%d, want 1 (job was re-simulated)", c2.TierHits)
	}
	if !warm.TierHit {
		t.Error("warm job view does not report tier_hit")
	}
	if warm.Result == nil || cold.Result == nil {
		t.Fatal("missing result bodies")
	}
	coldJSON, _ := json.Marshal(cold.Result)
	warmJSON, _ := json.Marshal(warm.Result)
	if string(coldJSON) != string(warmJSON) {
		t.Error("restored result's metrics differ from the original run")
	}
}

// TestLocalStoreWritesOnce: local mode with -store. The in-process
// worker's engine holds the store, and its chain owns the write: one cold
// job writes one entry, the payload the worker shipped is that entry's
// payload byte for byte, and the worker keeps no memory copy — a later
// RunCached of the same cell is a disk hit, not a memory one.
func TestLocalStoreWritesOnce(t *testing.T) {
	st := openStore(slog.New(slog.NewTextHandler(io.Discard, nil)),
		store.Config{Dir: t.TempDir(), Metrics: telem.NewRegistry()})
	engine := core.NewEngine(core.EngineConfig{Store: st})

	f := farm.New(farm.Config{Tier: core.StoreTier(st)})
	coord := dist.NewCoordinator(dist.Config{Metrics: telem.NewRegistry()})
	api := newServer(f, st, coord)
	var (
		mu      sync.Mutex
		shipped [][]byte
	)
	w := api.localWorker(1)
	exec := w.Exec
	w.Exec = func(ctx context.Context, g *dist.Grant, progress func(any)) ([]byte, []byte, error) {
		payload, profile, err := exec(ctx, g, progress)
		mu.Lock()
		shipped = append(shipped, payload)
		mu.Unlock()
		return payload, profile, err
	}
	stop := startWorker(engine, w)
	ts := httptest.NewServer(api)
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		if err := f.Close(ctx); err != nil {
			t.Error(err)
		}
		stop()
		coord.Close()
	})

	wl := workload.MustGet("riddick", 160, 120)
	opts := core.Options{Design: config.ATFIM}
	jr, code := postJob(t, ts, `{"game":"riddick","width":160,"height":120,"design":"atfim"}`)
	if code != http.StatusAccepted {
		t.Fatalf("POST status = %d", code)
	}
	if final := pollJob(t, ts, jr.ID); final.State != "done" || final.TierHit {
		t.Fatalf("cold job: %s tier_hit=%v (%s)", final.State, final.TierHit, final.Error)
	}
	if c := st.Counters(); c.Puts != 1 {
		t.Fatalf("store puts = %d after one cold job, want 1", c.Puts)
	}
	stored, _, ok := st.Get(core.CacheKey(wl, opts))
	if !ok {
		t.Fatal("no store entry for the cold job")
	}
	mu.Lock()
	if len(shipped) != 1 || !bytes.Equal(shipped[0], stored) {
		t.Fatalf("worker shipped %d payloads; the first is not the stored entry's payload", len(shipped))
	}
	mu.Unlock()

	before := core.RunCacheCounters()
	if _, err := core.RunCachedContext(core.WithEngine(context.Background(), engine), wl, opts); err != nil {
		t.Fatal(err)
	}
	after := core.RunCacheCounters()
	if after["disk"] != before["disk"]+1 || after["memory"] != before["memory"] {
		t.Fatalf("RunCached after the job: disk %d -> %d, memory %d -> %d; want one disk hit",
			before["disk"], after["disk"], before["memory"], after["memory"])
	}
}

// TestExperimentsEndpoint pins GET /v1/experiments to the registry's
// presentation order.
func TestExperimentsEndpoint(t *testing.T) {
	ts, _ := newTestServer(t)
	resp, err := http.Get(ts.URL + "/v1/experiments")
	if err != nil {
		t.Fatal(err)
	}
	var body struct {
		Experiments []string `json:"experiments"`
	}
	err = json.NewDecoder(resp.Body).Decode(&body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	want := repro.Registry().Names()
	if len(body.Experiments) != len(want) {
		t.Fatalf("listed %d experiments, want %d", len(body.Experiments), len(want))
	}
	for i := range want {
		if body.Experiments[i] != want[i] {
			t.Fatalf("experiments[%d] = %q, want %q", i, body.Experiments[i], want[i])
		}
	}
}

// TestJobCancel is the DELETE /v1/jobs/{id} contract: a queued job cancels
// (200 with the canceled view), a second DELETE answers 409, and an unknown
// id 404.
func TestJobCancel(t *testing.T) {
	// One worker: the first job occupies it, so the second stays queued
	// and its cancellation is deterministic.
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
	queued, code := postJob(t, ts, `{"game":"doom3","width":320,"height":240,"design":"bpim"}`)
	if code != http.StatusAccepted {
		t.Fatalf("POST status = %d", code)
	}

	del := func(id string) *http.Response {
		t.Helper()
		req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	resp := del(queued.ID)
	var jr jobResponse
	err := json.NewDecoder(resp.Body).Decode(&jr)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE status = %d, want 200", resp.StatusCode)
	}
	if jr.State != "canceled" {
		t.Fatalf("canceled job state = %q", jr.State)
	}

	resp = del(queued.ID)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("second DELETE status = %d, want 409", resp.StatusCode)
	}
	decodeErrorBody(t, resp)

	resp = del("job-999999")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("DELETE unknown status = %d, want 404", resp.StatusCode)
	}
	decodeErrorBody(t, resp)

	if final := pollJob(t, ts, blocker.ID); final.State != "done" {
		t.Fatalf("blocker state = %s (%s), want done", final.State, final.Error)
	}
}

// TestSubmitWaitAndDisconnect covers ?wait=true: a live client gets the
// finished job inline, and a client that hangs up while waiting cancels
// the abandoned job so the farm records it canceled.
func TestSubmitWaitAndDisconnect(t *testing.T) {
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

	// Occupy the single worker so the waited-on job stays queued until
	// the client has provably gone away.
	blocker, code := postJob(t, ts, `{"game":"doom3","width":320,"height":240,"design":"baseline"}`)
	if code != http.StatusAccepted {
		t.Fatalf("POST status = %d", code)
	}

	reqCtx, hangUp := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(reqCtx, http.MethodPost, ts.URL+"/v1/jobs?wait=true",
		strings.NewReader(`{"game":"doom3","width":320,"height":240,"design":"stfim"}`))
	if err != nil {
		t.Fatal(err)
	}
	errCh := make(chan error, 1)
	go func() {
		resp, err := ts.Client().Do(req)
		if err == nil {
			resp.Body.Close()
		}
		errCh <- err
	}()
	time.Sleep(100 * time.Millisecond) // let the submit land and start waiting
	hangUp()
	if err := <-errCh; err == nil {
		t.Fatal("hung-up request reported no error")
	}

	// The abandoned job must end canceled (it never got a worker).
	deadline := time.Now().Add(time.Minute)
	for {
		var canceled bool
		for _, j := range f.Jobs() {
			if j.State() == farm.Canceled {
				canceled = true
			}
		}
		if canceled {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("abandoned job never became canceled")
		}
		time.Sleep(20 * time.Millisecond)
	}

	if final := pollJob(t, ts, blocker.ID); final.State != "done" {
		t.Fatalf("blocker state = %s (%s), want done", final.State, final.Error)
	}

	// A live waited-on submission returns the finished job inline (the
	// blocker's cell is cached now, so this is immediate).
	resp, err := http.Post(ts.URL+"/v1/jobs?wait=true", "application/json",
		strings.NewReader(`{"game":"doom3","width":320,"height":240,"design":"baseline"}`))
	if err != nil {
		t.Fatal(err)
	}
	var jr jobResponse
	err = json.NewDecoder(resp.Body).Decode(&jr)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("wait=true status = %d, want 200", resp.StatusCode)
	}
	if jr.State != "done" || jr.Result == nil {
		t.Fatalf("wait=true job state = %q (result %v), want done with result", jr.State, jr.Result != nil)
	}
}

func TestParseDesign(t *testing.T) {
	for in, wantErr := range map[string]bool{
		"baseline": false, "bpim": false, "B-PIM": false, "stfim": false,
		"atfim": false, "A-TFIM": false, "": false, "gddr7": true,
	} {
		if _, err := repro.ParseDesign(in); (err != nil) != wantErr {
			t.Errorf("ParseDesign(%q) err = %v, wantErr %v", in, err, wantErr)
		}
	}
	// Sanity: label formatting used in Submit.
	if got := fmt.Sprintf("%s@%dx%d", "doom3", 320, 240); got != "doom3@320x240" {
		t.Fatal(got)
	}
}

// startLocalServer is newLocalServer with a hand-built one-slot in-process
// worker, for tests that adjust it before it starts.
func startLocalServer(t *testing.T, f *farm.Farm, adjust func(*dist.Worker)) *httptest.Server {
	t.Helper()
	coord := dist.NewCoordinator(dist.Config{Metrics: telem.NewRegistry()})
	api := newServer(f, nil, coord)
	w := api.localWorker(1)
	adjust(w)
	stop := startWorker(nil, w)
	ts := httptest.NewServer(api)
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		if err := f.Close(ctx); err != nil {
			t.Error(err)
		}
		stop()
		coord.Close()
	})
	return ts
}

// TestLocalWorkerTakesJobsWithoutPolling: the in-process worker waits on
// the coordinator's queue instead of polling it, so an idle worker takes a
// new job at once.
func TestLocalWorkerTakesJobsWithoutPolling(t *testing.T) {
	ts := startLocalServer(t, farm.New(farm.Config{}), func(*dist.Worker) {})

	// Let the worker find the queue empty before the job arrives.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if v := getVarz(t, ts); v.Dist != nil && len(v.Dist.Workers) == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("in-process worker never asked for work")
		}
		time.Sleep(10 * time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/jobs?wait=true",
		strings.NewReader(`{"game":"doom3","width":160,"height":120,"design":"baseline"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatalf("job did not complete: %v", err)
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
}

// TestLocalCancelStopsExecution: DELETE of a running local job cancels the
// in-process worker's execution context at once, not at its next
// heartbeat.
func TestLocalCancelStopsExecution(t *testing.T) {
	started, canceled := make(chan struct{}), make(chan struct{})
	ts := startLocalServer(t, farm.New(farm.Config{}),
		func(w *dist.Worker) {
			w.Exec = func(ctx context.Context, g *dist.Grant, progress func(any)) ([]byte, []byte, error) {
				close(started)
				go func() {
					<-ctx.Done()
					close(canceled)
				}()
				return execGrant(ctx, g, progress)
			}
		})

	// Eight frames keep the job running well past the DELETE.
	jr, code := postJob(t, ts, `{"game":"doom3","width":320,"height":240,"design":"atfim","frames":8}`)
	if code != http.StatusAccepted {
		t.Fatalf("POST status = %d", code)
	}
	select {
	case <-started:
	case <-time.After(time.Minute):
		t.Fatal("the in-process worker never started the job")
	}
	deadline := time.Now().Add(time.Second)
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+jr.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE status = %d, want 200", resp.StatusCode)
	}
	select {
	case <-canceled:
	case <-time.After(time.Until(deadline)):
		t.Fatal("execution context still live 1 s after DELETE")
	}
	if final := pollJob(t, ts, jr.ID); final.State != "canceled" {
		t.Fatalf("job state = %s, want canceled", final.State)
	}
}

// TestLocalJobsWaitInCoordinatorQueue: an accepted job goes straight to
// the coordinator, whose class queue is the only place it waits. With a
// one-slot in-process worker held busy, two more distinct jobs show up in
// /varz dist.queued; DELETE of a waiting one answers 200 with the
// canceled view, and that job is never leased.
func TestLocalJobsWaitInCoordinatorQueue(t *testing.T) {
	release := make(chan struct{})
	var mu sync.Mutex
	var leased []string
	ts := startLocalServer(t, farm.New(farm.Config{}), func(w *dist.Worker) {
		w.Exec = func(ctx context.Context, g *dist.Grant, progress func(any)) ([]byte, []byte, error) {
			mu.Lock()
			leased = append(leased, g.Key)
			first := len(leased) == 1
			mu.Unlock()
			if first {
				<-release
			}
			return execGrant(ctx, g, progress)
		}
	})

	var ids []string
	for _, design := range []string{"baseline", "bpim", "stfim"} {
		jr, code := postJob(t, ts, fmt.Sprintf(`{"game":"wolf","width":48,"height":36,"design":%q}`, design))
		if code != http.StatusAccepted {
			close(release)
			t.Fatalf("POST %s status = %d", design, code)
		}
		ids = append(ids, jr.ID)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		v := getVarz(t, ts)
		if v.Dist != nil && v.Dist.Queued == 2 {
			break
		}
		if time.Now().After(deadline) {
			close(release)
			t.Fatalf("dist queue never held the two waiting jobs: %+v", v.Dist)
		}
		time.Sleep(10 * time.Millisecond)
	}

	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+ids[2], nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var jr jobResponse
	err = json.NewDecoder(resp.Body).Decode(&jr)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || jr.State != "canceled" || jr.Key == "" {
		t.Fatalf("DELETE of a waiting job = %d state %q key %q, want 200 canceled", resp.StatusCode, jr.State, jr.Key)
	}
	if v := getVarz(t, ts); v.Dist.Queued != 1 {
		t.Fatalf("dist.queued = %d after DELETE, want 1", v.Dist.Queued)
	}

	close(release)
	for _, id := range ids[:2] {
		if final := pollJob(t, ts, id); final.State != "done" {
			t.Fatalf("job %s state = %s (%s), want done", id, final.State, final.Error)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(leased) != 2 {
		t.Fatalf("leased %v, want only the two live jobs", leased)
	}
	for _, key := range leased {
		if key == jr.Key {
			t.Fatalf("canceled job %s was leased: %v", jr.Key, leased)
		}
	}
}
