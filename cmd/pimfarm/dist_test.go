package main

// Distributed-mode tests at the HTTP API level: a coordinator server with
// real dist.Worker loops executing execGrant, exercising the acceptance
// contracts — dist results byte-identical to local mode, a worker killed
// mid-job requeues elsewhere, profiles and every progress stage reach the
// API, and a server restart replays journaled jobs exactly once (in local
// mode too).

import (
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/farm"
	"repro/internal/farm/dist"
	"repro/internal/obs"
	"repro/internal/obs/telem"
	"repro/internal/store"
	"repro/internal/workload"
)

// newDistTestServer builds a coordinator-mode API server: jobs dispatch
// through cfg's coordinator instead of simulating in-process.
func newDistTestServer(t *testing.T, cfg dist.Config) (*httptest.Server, *server) {
	return newDistStoreServer(t, cfg, nil)
}

// newDistStoreServer is newDistTestServer with st, when non-nil, as the
// farm's store tier (pimfarm -dist -store).
func newDistStoreServer(t *testing.T, cfg dist.Config, st *store.Store) (*httptest.Server, *server) {
	t.Helper()
	if cfg.Metrics == nil {
		cfg.Metrics = telem.NewRegistry()
	}
	f := farm.New(farm.Config{Tier: core.StoreTier(st)})
	coord := dist.NewCoordinator(cfg)
	api := newServer(f, st, coord)
	ts := httptest.NewServer(api)
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := f.Close(ctx); err != nil {
			t.Error(err)
		}
		coord.Close()
	})
	return ts, api
}

// startTestWorker runs a real dist.Worker (the production execGrant) in
// the test process, torn down with the test.
func startTestWorker(t *testing.T, base, id string) {
	t.Helper()
	t.Cleanup(startWorker(nil, &dist.Worker{
		Client: &dist.Client{Base: base, Worker: id},
		Exec:   execGrant,
	}))
}

// distVarz is the /varz shape the dist tests read back.
type distVarz struct {
	farm.Counters
	Dist *dist.Stats `json:"dist"`
}

func getVarz(t *testing.T, ts *httptest.Server) distVarz {
	t.Helper()
	resp, err := http.Get(ts.URL + "/varz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v distVarz
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

// TestDistEndToEndMatchesLocal is the core acceptance: the same job run
// through coordinator + remote worker produces a metrics snapshot
// byte-identical to the single-node path, worker progress reaches the SSE
// stream, and the worker shows up in GET /v1/workers and the /varz dist
// block.
func TestDistEndToEndMatchesLocal(t *testing.T) {
	const body = `{"game":"doom3","width":320,"height":240,"design":"bpim"}`

	local, _ := newTestServer(t)
	jr, code := postJob(t, local, body)
	if code != http.StatusAccepted {
		t.Fatalf("local POST = %d", code)
	}
	localFinal := pollJob(t, local, jr.ID)
	if localFinal.State != "done" {
		t.Fatalf("local job: %s (%s)", localFinal.State, localFinal.Error)
	}
	localJSON, err := json.Marshal(localFinal.Result)
	if err != nil {
		t.Fatal(err)
	}

	ts, _ := newDistTestServer(t, dist.Config{TTL: time.Minute})
	startTestWorker(t, ts.URL, "e2e-worker")
	jr, code = postJob(t, ts, body)
	if code != http.StatusAccepted {
		t.Fatalf("dist POST = %d", code)
	}
	distFinal := pollJob(t, ts, jr.ID)
	if distFinal.State != "done" {
		t.Fatalf("dist job: %s (%s)", distFinal.State, distFinal.Error)
	}
	distJSON, err := json.Marshal(distFinal.Result)
	if err != nil {
		t.Fatal(err)
	}
	if string(localJSON) != string(distJSON) {
		t.Fatalf("dist result differs from local:\nlocal: %.200s\ndist:  %.200s",
			localJSON, distJSON)
	}

	// The worker's progress documents were republished onto the job's SSE
	// stream; replaying the retained history must include at least one.
	resp, err := http.Get(ts.URL + "/v1/jobs/" + jr.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	events, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(events), "event: progress") {
		t.Error("no progress events on the dist job's SSE stream")
	}
	if !strings.Contains(string(events), "event: end") {
		t.Error("SSE stream did not terminate with an end event")
	}

	// Worker introspection: the executing worker is live and credited.
	resp, err = http.Get(ts.URL + "/v1/workers")
	if err != nil {
		t.Fatal(err)
	}
	var wl struct {
		Workers []dist.WorkerView `json:"workers"`
	}
	err = json.NewDecoder(resp.Body).Decode(&wl)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(wl.Workers) != 1 || wl.Workers[0].ID != "e2e-worker" || !wl.Workers[0].Live {
		t.Fatalf("/v1/workers = %+v", wl.Workers)
	}
	if wl.Workers[0].Completed < 1 {
		t.Fatalf("worker completed = %d, want >= 1", wl.Workers[0].Completed)
	}

	v := getVarz(t, ts)
	if v.Dist == nil {
		t.Fatal("/varz has no dist block in coordinator mode")
	}
	if v.Dist.LeaseOps.Grants < 1 || v.Dist.WorkersLive != 1 {
		t.Fatalf("/varz dist = %+v", v.Dist)
	}

	// A repeated submission in dist mode is served from the result cache —
	// no second lease round-trip.
	grantsBefore := v.Dist.LeaseOps.Grants
	jr2, _ := postJob(t, ts, body)
	dup := pollJob(t, ts, jr2.ID)
	if dup.State != "done" || (!dup.CacheHit && !dup.Deduped) {
		t.Fatalf("duplicate dist submission re-dispatched: %+v", dup.View)
	}
	if v2 := getVarz(t, ts); v2.Dist.LeaseOps.Grants != grantsBefore {
		t.Fatalf("cache-served job granted a lease (%d -> %d)",
			grantsBefore, v2.Dist.LeaseOps.Grants)
	}
}

// TestDistSharedStoreWritesOnce: under -dist the worker's store chain and
// the coordinator's farm tier share one store directory (pimfarm -dist
// -store DIR plus pimfarm worker -store DIR). Each cold job is encoded and
// written once between them, and the entry serves warm hits on the worker
// and on a restarted coordinator.
func TestDistSharedStoreWritesOnce(t *testing.T) {
	dir := t.TempDir()
	open := func() *store.Store {
		st, err := store.Open(store.Config{Dir: dir, Metrics: telem.NewRegistry()})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	workerStore := open()
	workerEngine := core.NewEngine(core.EngineConfig{Store: workerStore})

	coordStore := open()
	ts, _ := newDistStoreServer(t, dist.Config{TTL: time.Minute}, coordStore)
	t.Cleanup(startWorker(workerEngine, &dist.Worker{
		Client: &dist.Client{Base: ts.URL, Worker: "store-worker"},
		Exec:   execGrant,
	}))
	bodies := []string{
		`{"game":"doom3","width":160,"height":120,"design":"baseline"}`,
		`{"game":"wolf","width":160,"height":120,"design":"bpim"}`,
	}
	for i, body := range bodies {
		jr, code := postJob(t, ts, body)
		if code != http.StatusAccepted {
			t.Fatalf("POST = %d", code)
		}
		if final := pollJob(t, ts, jr.ID); final.State != "done" || final.TierHit {
			t.Fatalf("cold job %d: %s tier_hit=%v (%s)", i, final.State, final.TierHit, final.Error)
		}
		coord, worker := coordStore.Counters().Puts, workerStore.Counters().Puts
		if coord+worker != uint64(i+1) {
			t.Fatalf("after %d cold jobs: coordinator puts=%d + worker puts=%d, want %d",
				i+1, coord, worker, i+1)
		}
	}

	// RunCached on the worker's engine reads the entry back from disk: the
	// worker kept no memory copy.
	disk := core.RunCacheCounters()["disk"]
	ctx := core.WithEngine(context.Background(), workerEngine)
	if _, err := core.RunCachedContext(ctx, workload.MustGet("doom3", 160, 120), core.Options{Design: config.Baseline}); err != nil {
		t.Fatal(err)
	}
	if got := core.RunCacheCounters()["disk"]; got != disk+1 {
		t.Fatalf("worker run-cache disk hits %d -> %d, want one more", disk, got)
	}

	// A restarted coordinator on the same directory serves both jobs as
	// store-tier hits, with no worker attached.
	restarted, _ := newDistStoreServer(t, dist.Config{TTL: time.Minute}, open())
	for i, body := range bodies {
		jr, _ := postJob(t, restarted, body)
		if final := pollJob(t, restarted, jr.ID); final.State != "done" || !final.TierHit {
			t.Fatalf("warm job %d: %s tier_hit=%v (%s)", i, final.State, final.TierHit, final.Error)
		}
	}
}

// TestDistWorkerDeathRequeues: a worker that leases a job and dies without
// a word (kill -9 semantics — no renew, no complete) loses the lease on
// TTL expiry; the job requeues and a healthy worker finishes it.
func TestDistWorkerDeathRequeues(t *testing.T) {
	ts, _ := newDistTestServer(t, dist.Config{
		TTL: 150 * time.Millisecond, SweepEvery: 25 * time.Millisecond,
	})

	jr, code := postJob(t, ts, `{"game":"doom3","width":320,"height":240,"design":"baseline"}`)
	if code != http.StatusAccepted {
		t.Fatalf("POST = %d", code)
	}

	// The doomed "worker": a raw client that takes the lease and vanishes.
	doomed := &dist.Client{Base: ts.URL, Worker: "doomed"}
	deadline := time.Now().Add(10 * time.Second)
	var got *dist.Grant
	for time.Now().Before(deadline) {
		g, err := doomed.Lease(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if g != nil {
			got = g
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got == nil {
		t.Fatal("job never reached the lease queue")
	}

	startTestWorker(t, ts.URL, "survivor")
	final := pollJob(t, ts, jr.ID)
	if final.State != "done" {
		t.Fatalf("job after worker death: %s (%s)", final.State, final.Error)
	}
	if final.Result == nil || final.Result.Cycles <= 0 {
		t.Fatal("requeued job has no real result")
	}

	v := getVarz(t, ts)
	if v.Dist.LeaseOps.Expires < 1 || v.Dist.LeaseOps.Requeues < 1 {
		t.Fatalf("lease ops after worker death = %+v", v.Dist.LeaseOps)
	}
	var doomedView *dist.WorkerView
	for i := range v.Dist.Workers {
		if v.Dist.Workers[i].ID == "doomed" {
			doomedView = &v.Dist.Workers[i]
		}
	}
	if doomedView == nil || doomedView.Expired < 1 {
		t.Fatalf("doomed worker view = %+v", doomedView)
	}
}

// TestDistJobProfile: a dist-mode job submitted with "profile": true
// serves its frame-anatomy artifact — the remote worker captures it and
// ships it back on the completion.
func TestDistJobProfile(t *testing.T) {
	ts, _ := newDistTestServer(t, dist.Config{TTL: time.Minute})
	startTestWorker(t, ts.URL, "profile-worker")

	jr, code := postJob(t, ts, `{"game":"doom3","width":160,"height":120,"design":"bpim","profile":true}`)
	if code != http.StatusAccepted {
		t.Fatalf("POST = %d", code)
	}
	if final := pollJob(t, ts, jr.ID); final.State != "done" {
		t.Fatalf("job: %s (%s)", final.State, final.Error)
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/" + jr.ID + "/profile")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("profile status = %d: %s", resp.StatusCode, body)
	}
	fp, err := obs.ReadFrameProfile(resp.Body)
	if err != nil {
		t.Fatalf("profile body is not a frameprofile/v1 artifact: %v", err)
	}
	if fp.Workload != "doom3-160x120" || fp.Design != "B-PIM" || len(fp.Frames) == 0 {
		t.Fatalf("artifact %q/%q with %d frames", fp.Workload, fp.Design, len(fp.Frames))
	}
}

// TestDistJobEventsReachDone: the "resolve" and "done" progress reports
// arrive right after the last fragment group, inside the worker's
// progress throttle interval; a stage boundary is always forwarded, so a
// dist job's event stream still ends its progress with "done".
func TestDistJobEventsReachDone(t *testing.T) {
	ts, _ := newDistTestServer(t, dist.Config{TTL: time.Minute})
	startTestWorker(t, ts.URL, "events-worker")

	jr, code := postJob(t, ts, `{"game":"doom3","width":160,"height":120,"design":"stfim"}`)
	if code != http.StatusAccepted {
		t.Fatalf("POST = %d", code)
	}
	if final := pollJob(t, ts, jr.ID); final.State != "done" {
		t.Fatalf("job: %s (%s)", final.State, final.Error)
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/" + jr.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stages []string
	for _, ev := range readSSE(t, resp.Body) {
		if ev.typ != "progress" {
			continue
		}
		var p core.Progress
		if err := json.Unmarshal([]byte(ev.data), &p); err != nil {
			t.Fatalf("progress event %q: %v", ev.data, err)
		}
		stages = append(stages, string(p.Stage))
	}
	if !slices.Contains(stages, "resolve") || len(stages) == 0 || stages[len(stages)-1] != "done" {
		t.Fatalf("progress stages %v, want resolve and a final done", stages)
	}
}

// TestJournalReplayAcrossServerRestart: a server killed with a job
// accepted but unfinished replays exactly that job on restart, a worker
// completes it, and the settled record never replays again — in dist
// mode by a remote worker, in local mode by the in-process one.
func TestJournalReplayAcrossServerRestart(t *testing.T) {
	for _, mode := range []string{"dist", "local"} {
		t.Run(mode, func(t *testing.T) { testJournalReplay(t, mode == "local") })
	}
}

func testJournalReplay(t *testing.T, local bool) {
	dir := t.TempDir()

	// Incarnation 1: accept a job with no workers attached, then "crash"
	// (stop serving without any orderly farm/journal shutdown, so no
	// terminal record is ever written). In both modes this is a server
	// that died before any worker took the job.
	f1 := farm.New(farm.Config{})
	coord1 := dist.NewCoordinator(dist.Config{TTL: time.Minute, Metrics: telem.NewRegistry()})
	api1 := newServer(f1, nil, coord1)
	jn1, err := dist.OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	api1.journal = jn1
	api1.replayJournal()
	ts1 := httptest.NewServer(api1)

	const body = `{"game":"doom3","width":320,"height":240,"design":"stfim"}`
	if _, code := postJob(t, ts1, body); code != http.StatusAccepted {
		t.Fatalf("POST = %d", code)
	}
	if n := jn1.Len(); n != 1 {
		t.Fatalf("journal pending after accept = %d, want 1", n)
	}
	ts1.Close() // crash: f1, coord1 and jn1 are deliberately leaked

	// Incarnation 2: reopen the journal, replay, and let a worker finish
	// the recovered job.
	jn2, err := dist.OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if n := jn2.Len(); n != 1 {
		t.Fatalf("journal pending after restart = %d, want exactly 1", n)
	}
	var ts2 *httptest.Server
	var api2 *server
	if local {
		f2 := farm.New(farm.Config{})
		api2 = newLocalServer(t, f2, nil, 2)
		ts2 = httptest.NewServer(api2)
		t.Cleanup(func() {
			ts2.Close()
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			if err := f2.Close(ctx); err != nil {
				t.Error(err)
			}
		})
	} else {
		ts2, api2 = newDistTestServer(t, dist.Config{TTL: time.Minute})
	}
	api2.journal = jn2
	api2.replayJournal()
	if !local {
		startTestWorker(t, ts2.URL, "recovery-worker")
	}

	// The replayed job is a fresh farm job whose origin names the journal
	// record it will settle.
	var replayed farm.View
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) && replayed.ID == "" {
		resp, err := http.Get(ts2.URL + "/v1/jobs")
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
		for _, j := range list.Jobs {
			if strings.HasPrefix(j.Origin, "journal:") {
				replayed = j
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	if replayed.ID == "" {
		t.Fatal("no replayed job appeared after restart")
	}
	final := pollJob(t, ts2, replayed.ID)
	if final.State != "done" {
		t.Fatalf("replayed job: %s (%s)", final.State, final.Error)
	}
	if final.Result == nil || final.Result.Cycles <= 0 {
		t.Fatal("replayed job has no real result")
	}

	// The terminal record lands asynchronously once the job settles; after
	// it does, a third incarnation has nothing to replay (exactly-once).
	deadline = time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) && jn2.Len() != 0 {
		time.Sleep(20 * time.Millisecond)
	}
	if n := jn2.Len(); n != 0 {
		t.Fatalf("journal pending after completion = %d, want 0", n)
	}
	if err := jn2.Close(); err != nil {
		t.Fatal(err)
	}
	jn3, err := dist.OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer jn3.Close()
	if n := jn3.Len(); n != 0 {
		t.Fatalf("third incarnation would replay %d jobs, want 0", n)
	}
}

// TestDrainLetsRemoteWorkerFinish: SIGTERM's drain while a remote worker
// holds a lease mid-job keeps the lease endpoints served until the farm
// has drained, so the worker's completion lands: the job ends done, its
// journal record settles done, and the drain returns long before its
// deadline instead of forcing the shutdown.
func TestDrainLetsRemoteWorkerFinish(t *testing.T) {
	dir := t.TempDir()
	f := farm.New(farm.Config{})
	coord := dist.NewCoordinator(dist.Config{TTL: time.Minute, Metrics: telem.NewRegistry()})
	api := newServer(f, nil, coord)
	jn, err := dist.OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	api.journal = jn
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: api}
	go srv.Serve(ln)
	base := "http://" + ln.Addr().String()

	started, release := make(chan struct{}), make(chan struct{})
	t.Cleanup(startWorker(nil, &dist.Worker{
		Client: &dist.Client{Base: base, Worker: "draining-worker"},
		Exec: func(ctx context.Context, g *dist.Grant, progress func(any)) ([]byte, []byte, error) {
			close(started)
			<-release
			return execGrant(ctx, g, progress)
		},
	}))
	resp, err := http.Post(base+"/v1/jobs", "application/json",
		strings.NewReader(`{"game":"doom3","width":160,"height":120,"design":"atfim"}`))
	if err != nil {
		t.Fatal(err)
	}
	var jr jobResponse
	err = json.NewDecoder(resp.Body).Decode(&jr)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST = %d (%v)", resp.StatusCode, err)
	}
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("worker never leased the job")
	}

	const deadline = 20 * time.Second
	drained := make(chan time.Duration)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), deadline)
		defer cancel()
		t0 := time.Now()
		api.drain(ctx, srv, func() {})
		drained <- time.Since(t0)
	}()
	time.Sleep(200 * time.Millisecond) // the drain is under way, the job still running
	close(release)

	var took time.Duration
	select {
	case took = <-drained:
	case <-time.After(2 * deadline):
		t.Fatal("drain never returned")
	}
	j, ok := f.Job(jr.ID)
	if !ok || j.State() != farm.Done {
		t.Fatalf("job after drain: %v (%v)", j.State(), j.View().Error)
	}
	if took > deadline/2 {
		t.Fatalf("drain took %v of its %v deadline", took, deadline)
	}
	raw, err := os.ReadFile(filepath.Join(dir, "journal.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), `"op":"done"`) {
		t.Fatalf("journal never settled the job done:\n%s", raw)
	}
	jn2, err := dist.OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer jn2.Close()
	if n := jn2.Len(); n != 0 {
		t.Fatalf("journal would replay %d jobs after the drain, want 0", n)
	}
}
