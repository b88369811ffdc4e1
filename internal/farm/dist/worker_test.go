package dist

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs/telem"
)

func testWire(t *testing.T, cfg Config) (*Coordinator, *httptest.Server) {
	t.Helper()
	c, ts, _ := leaseWire(t, cfg)
	return c, ts
}

// TestWorkerPullLoop drives the full wire protocol: jobs enqueued on the
// coordinator are leased over HTTP by a Worker, executed, and their
// payloads delivered back to the enqueuer — including worker-side
// progress documents landing on the OnProgress sink.
func TestWorkerPullLoop(t *testing.T) {
	c, ts := testWire(t, Config{TTL: time.Minute})

	var progressed atomic.Int64
	const jobs = 4
	chans := make([]<-chan Outcome, jobs)
	for i := 0; i < jobs; i++ {
		_, ch, err := c.Enqueue(Job{
			Key:        fmt.Sprintf("key-%d", i),
			Label:      fmt.Sprintf("job %d", i),
			Spec:       json.RawMessage(fmt.Sprintf(`{"n":%d}`, i)),
			OnProgress: func(json.RawMessage) { progressed.Add(1) },
		})
		if err != nil {
			t.Fatal(err)
		}
		chans[i] = ch
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w := &Worker{
		Client: &Client{Base: ts.URL, Worker: "test-worker"},
		Slots:  2,
		Exec: func(ctx context.Context, g *Grant, progress func(any)) ([]byte, []byte, error) {
			progress(map[string]any{"stage": "go", "job": g.Job})
			var spec struct {
				N int `json:"n"`
			}
			if err := json.Unmarshal(g.Spec, &spec); err != nil {
				return nil, nil, err
			}
			return []byte(fmt.Sprintf("result-%d", spec.N)), nil, nil
		},
	}
	done := make(chan error, 1)
	go func() { done <- w.Run(ctx) }()

	for i, ch := range chans {
		o := waitOutcome(t, ch, 10*time.Second)
		if o.Err != "" {
			t.Fatalf("job %d failed: %s", i, o.Err)
		}
		if string(o.Payload) != fmt.Sprintf("result-%d", i) {
			t.Fatalf("job %d payload = %q", i, o.Payload)
		}
		if o.Worker != "test-worker" {
			t.Fatalf("job %d worker = %q", i, o.Worker)
		}
	}
	if progressed.Load() == 0 {
		t.Fatal("no progress documents forwarded")
	}

	views := c.Workers()
	if len(views) != 1 || views[0].ID != "test-worker" || !views[0].Live {
		t.Fatalf("workers = %+v", views)
	}
	if views[0].Completed != jobs {
		t.Fatalf("worker completed = %d, want %d", views[0].Completed, jobs)
	}

	cancel()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("worker did not stop on context cancel")
	}
}

// TestWorkerHeartbeatOutlivesTTL: a job that takes several TTLs completes
// on the original worker because the heartbeat keeps renewing — the lease
// must not expire under a live worker.
func TestWorkerHeartbeatOutlivesTTL(t *testing.T) {
	c, ts := testWire(t, Config{TTL: 120 * time.Millisecond, SweepEvery: 20 * time.Millisecond})
	_, ch, err := c.Enqueue(Job{Label: "slow", Spec: json.RawMessage(`{}`)})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w := &Worker{
		Client: &Client{Base: ts.URL, Worker: "slowpoke"},
		Exec: func(ctx context.Context, g *Grant, progress func(any)) ([]byte, []byte, error) {
			select {
			case <-time.After(500 * time.Millisecond): // ~4 TTLs
				return []byte("slow-ok"), nil, nil
			case <-ctx.Done():
				return nil, nil, ctx.Err()
			}
		},
	}
	go w.Run(ctx)

	o := waitOutcome(t, ch, 10*time.Second)
	if o.Err != "" || string(o.Payload) != "slow-ok" {
		t.Fatalf("outcome = %+v", o)
	}
	if o.Requeues != 0 {
		t.Fatalf("live worker's lease expired %d times", o.Requeues)
	}
	st := c.Stats()
	if st.LeaseOps.Renews == 0 {
		t.Fatal("no renews recorded for a multi-TTL job")
	}
	if st.LeaseOps.Expires != 0 {
		t.Fatalf("lease expired under a heartbeating worker: %+v", st.LeaseOps)
	}
}

// TestWorkerAbortsOnLostLease: when the job is abandoned (canceled
// upstream), the worker's renew discovers the lease is gone and the exec
// context is canceled promptly.
func TestWorkerAbortsOnLostLease(t *testing.T) {
	c, ts := testWire(t, Config{TTL: 90 * time.Millisecond, SweepEvery: 15 * time.Millisecond})
	id, _, err := c.Enqueue(Job{Label: "doomed", Spec: json.RawMessage(`{}`)})
	if err != nil {
		t.Fatal(err)
	}
	started := make(chan struct{})
	aborted := make(chan struct{})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w := &Worker{
		Client: &Client{Base: ts.URL, Worker: "victim"},
		Exec: func(ctx context.Context, g *Grant, progress func(any)) ([]byte, []byte, error) {
			close(started)
			select {
			case <-ctx.Done():
				close(aborted)
				return nil, nil, ctx.Err()
			case <-time.After(30 * time.Second):
				return []byte("should never finish"), nil, nil
			}
		},
	}
	go w.Run(ctx)

	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("worker never started the job")
	}
	c.Abandon(id)
	select {
	case <-aborted:
	case <-time.After(5 * time.Second):
		t.Fatal("worker kept executing after its lease was abandoned")
	}
}

// TestWorkerReportsExecErrors: execution failures travel back as Outcome
// errors, and the worker view counts them as failed.
func TestWorkerReportsExecErrors(t *testing.T) {
	c, ts := testWire(t, Config{TTL: time.Minute})
	_, ch, err := c.Enqueue(Job{Label: "broken", Spec: json.RawMessage(`{}`)})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w := &Worker{
		Client: &Client{Base: ts.URL, Worker: "honest"},
		Exec: func(ctx context.Context, g *Grant, progress func(any)) ([]byte, []byte, error) {
			return nil, nil, fmt.Errorf("synthetic failure")
		},
	}
	go w.Run(ctx)

	o := waitOutcome(t, ch, 10*time.Second)
	if o.Err != "synthetic failure" {
		t.Fatalf("outcome err = %q", o.Err)
	}
	views := c.Workers()
	if len(views) != 1 || views[0].Failed != 1 {
		t.Fatalf("workers = %+v", views)
	}
}

// TestHTTPErrorShapes: the lease endpoints answer JSON error bodies with
// the documented status codes (400 on bad bodies, 410 on lost leases,
// 204 once the lease wait cap passes on an empty queue). The short TTL
// keeps that cap, TTL/2, brief.
func TestHTTPErrorShapes(t *testing.T) {
	_, ts := testWire(t, Config{TTL: 100 * time.Millisecond})

	post := func(path, body string) (int, map[string]any) {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "application/json",
			strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var m map[string]any
		_ = json.NewDecoder(resp.Body).Decode(&m)
		return resp.StatusCode, m
	}

	if code, _ := post("/v1/leases", `{"worker":"w"}`); code != http.StatusNoContent {
		t.Fatalf("empty-queue lease status = %d, want 204", code)
	}
	if code, m := post("/v1/leases", `{"worker":`); code != http.StatusBadRequest || m["error"] == "" {
		t.Fatalf("bad body: status %d body %v, want 400 with error", code, m)
	}
	if code, m := post("/v1/leases/nope/renew", `{"worker":"w"}`); code != http.StatusGone || m["error"] == "" {
		t.Fatalf("unknown lease renew: status %d body %v, want 410 with error", code, m)
	}
	if code, m := post("/v1/leases/nope/complete", `{"worker":"w"}`); code != http.StatusGone || m["error"] == "" {
		t.Fatalf("unknown lease complete: status %d body %v, want 410 with error", code, m)
	}
}

// TestLocalWorkerStaysLiveWhileIdle: a worker waiting for work still
// counts as live, in process or over HTTP: it asks again once per wait
// cap (TTL/2), well inside the liveness window (3*TTL).
func TestLocalWorkerStaysLiveWhileIdle(t *testing.T) {
	for _, remote := range []bool{false, true} {
		name := map[bool]string{false: "in-process", true: "http"}[remote]
		t.Run(name, func(t *testing.T) {
			c, ts := testWire(t, Config{TTL: 40 * time.Millisecond})
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			w := &Worker{
				Client: c.Local(name),
				Exec: func(ctx context.Context, g *Grant, progress func(any)) ([]byte, []byte, error) {
					return nil, nil, nil
				},
			}
			if remote {
				w.Client = &Client{Base: ts.URL, Worker: name}
			}
			go w.Run(ctx)

			time.Sleep(300 * time.Millisecond) // more than twice the liveness window
			views := c.Workers()
			if len(views) != 1 || views[0].ID != name || !views[0].Live {
				t.Fatalf("idle %s worker: %+v", name, views)
			}
		})
	}
}

// leaseWire serves c's lease protocol over HTTP. Every POST /v1/leases
// handler that returns also sends on the returned channel (dropped when
// nobody listens). Cleanup closes the coordinator first, which releases
// parked lease requests that would otherwise hold the server's Close.
func leaseWire(t *testing.T, cfg Config) (*Coordinator, *httptest.Server, <-chan struct{}) {
	t.Helper()
	if cfg.Metrics == nil {
		cfg.Metrics = telem.NewRegistry()
	}
	c := NewCoordinator(cfg)
	mux := http.NewServeMux()
	c.Routes(mux)
	returned := make(chan struct{}, 1)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mux.ServeHTTP(w, r)
		if r.URL.Path == "/v1/leases" {
			select {
			case returned <- struct{}{}:
			default:
			}
		}
	}))
	t.Cleanup(func() {
		c.Close()
		ts.Close()
	})
	return c, ts, returned
}

// TestRemoteWorkerTakesJobAtOnce: after an empty lease a remote worker
// asks again at once and waits on the coordinator, so a job enqueued right
// after that empty answer starts within 100 ms — no poll interval.
func TestRemoteWorkerTakesJobAtOnce(t *testing.T) {
	c, ts, returned := leaseWire(t, Config{TTL: time.Second})
	started := make(chan time.Time, 1)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w := &Worker{
		Client: &Client{Base: ts.URL, Worker: "remote"},
		Exec: func(ctx context.Context, g *Grant, progress func(any)) ([]byte, []byte, error) {
			started <- time.Now()
			return []byte("ok"), nil, nil
		},
	}
	go w.Run(ctx)

	select {
	case <-returned: // the first lease found nothing queued
	case <-time.After(10 * time.Second):
		t.Fatal("worker never asked for work")
	}
	enqueued := time.Now()
	_, ch, err := c.Enqueue(Job{Label: "prompt", Spec: json.RawMessage(`{}`)})
	if err != nil {
		t.Fatal(err)
	}
	if o := waitOutcome(t, ch, 10*time.Second); o.Err != "" {
		t.Fatalf("outcome = %+v", o)
	}
	if d := (<-started).Sub(enqueued); d >= 100*time.Millisecond {
		t.Fatalf("job started %v after enqueue, want < 100ms", d)
	}
}

// TestLeaseDisconnectGrantsNothing: a worker that gives up on a parked
// HTTP lease is granted nothing; a job enqueued afterwards stays queued
// for the next worker and costs no requeue.
func TestLeaseDisconnectGrantsNothing(t *testing.T) {
	c, ts, returned := leaseWire(t, Config{TTL: time.Minute})
	ctx, cancel := context.WithCancel(context.Background())
	leased := make(chan *Grant, 1)
	go func() {
		g, _ := (&Client{Base: ts.URL, Worker: "quitter"}).Lease(ctx)
		leased <- g
	}()
	waitWorkers(t, c, 1) // the lease is parked in the coordinator
	cancel()
	select {
	case <-returned:
	case <-time.After(5 * time.Second):
		t.Fatal("parked lease outlived its client")
	}
	if g := <-leased; g != nil {
		t.Fatalf("disconnected client got grant %+v", g)
	}

	_, ch, err := c.Enqueue(Job{Label: "orphan-proof", Spec: json.RawMessage(`{}`)})
	if err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Queued != 1 || st.LeaseOps.Grants != 0 {
		t.Fatalf("after disconnect: queued %d, grants %d; want 1, 0", st.Queued, st.LeaseOps.Grants)
	}
	g, ok := tryLease(c, "next")
	if !ok {
		t.Fatal("job not queued for the next worker")
	}
	if err := c.Complete(g.Lease, CompleteRequest{Worker: "next", Payload: []byte("ok")}); err != nil {
		t.Fatal(err)
	}
	if o := waitOutcome(t, ch, time.Second); o.Requeues != 0 || o.Worker != "next" {
		t.Fatalf("outcome = %+v, want no requeue, worker next", o)
	}
	if st := c.Stats(); st.LeaseOps.Requeues != 0 || st.LeaseOps.Expires != 0 {
		t.Fatalf("lease ops = %+v", st.LeaseOps)
	}
}

// TestCloseReleasesParkedLeases: Close answers every parked lease at
// once, over HTTP (503) and in process (ErrClosed), rather than after the
// wait cap.
func TestCloseReleasesParkedLeases(t *testing.T) {
	c, ts, _ := leaseWire(t, Config{TTL: time.Minute}) // wait cap: 20 s
	errs := make(chan error, 2)
	for _, tr := range []Transport{&Client{Base: ts.URL, Worker: "remote"}, c.Local("in-process")} {
		go func() {
			g, err := tr.Lease(context.Background())
			if g != nil {
				err = fmt.Errorf("granted %+v", g)
			}
			errs <- err
		}()
	}
	waitWorkers(t, c, 2)
	c.Close()
	for i := 0; i < 2; i++ {
		select {
		case err := <-errs:
			if err == nil || !strings.Contains(err.Error(), ErrClosed.Error()) {
				t.Fatalf("parked lease after Close: %v, want %v", err, ErrClosed)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("Close left a lease parked")
		}
	}
}

// waitWorkers waits until the coordinator has heard from n workers.
func waitWorkers(t *testing.T, c *Coordinator, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for len(c.Workers()) < n {
		if time.Now().After(deadline) {
			t.Fatalf("workers seen = %d, want %d", len(c.Workers()), n)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
