package dist

import (
	"context"
	"encoding/json"
	"sync"
	"testing"
	"time"

	"repro/internal/obs/telem"
)

func testCoordinator(t *testing.T, cfg Config) *Coordinator {
	t.Helper()
	if cfg.Metrics == nil {
		cfg.Metrics = telem.NewRegistry()
	}
	c := NewCoordinator(cfg)
	t.Cleanup(c.Close)
	return c
}

// tryLease is Lease that does not wait for work: a queued job is granted
// at once, and an empty queue answers no grant after a moment.
func tryLease(c *Coordinator, worker string) (*Grant, bool) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	g, _ := c.Lease(ctx, worker)
	return g, g != nil
}

func waitOutcome(t *testing.T, ch <-chan Outcome, within time.Duration) Outcome {
	t.Helper()
	select {
	case o := <-ch:
		return o
	case <-time.After(within):
		t.Fatal("no outcome within deadline")
		return Outcome{}
	}
}

// TestLeaseCompleteRoundTrip: enqueue → lease → renew → complete delivers
// the worker's payload to the enqueuer and retires the lease.
func TestLeaseCompleteRoundTrip(t *testing.T) {
	c := testCoordinator(t, Config{TTL: time.Minute})
	id, ch, err := c.Enqueue(Job{Key: "k1", Label: "one", Spec: json.RawMessage(`{"x":1}`)})
	if err != nil {
		t.Fatal(err)
	}
	g, ok := tryLease(c, "w1")
	if !ok {
		t.Fatal("no grant for queued job")
	}
	if g.Job != id || g.Key != "k1" || string(g.Spec) != `{"x":1}` {
		t.Fatalf("grant = %+v", g)
	}
	if _, ok := tryLease(c, "w2"); ok {
		t.Fatal("second lease granted for an empty queue")
	}
	if err := c.Renew(g.Lease, "w1"); err != nil {
		t.Fatal(err)
	}
	if err := c.Complete(g.Lease, CompleteRequest{Worker: "w1", Payload: []byte("payload")}); err != nil {
		t.Fatal(err)
	}
	o := waitOutcome(t, ch, time.Second)
	if string(o.Payload) != "payload" || o.Err != "" || o.Worker != "w1" || o.Requeues != 0 {
		t.Fatalf("outcome = %+v", o)
	}
	// The lease is gone: late renew/complete are rejected.
	if err := c.Renew(g.Lease, "w1"); err != ErrGone {
		t.Fatalf("renew after complete = %v, want ErrGone", err)
	}
	if err := c.Complete(g.Lease, CompleteRequest{Worker: "w1"}); err != ErrGone {
		t.Fatalf("double complete = %v, want ErrGone", err)
	}
}

// TestExpiredLeaseRequeues is the stalled-worker contract: a worker that
// leases and never renews loses the job on TTL expiry; the job requeues
// with its requeue count bumped and a second worker completes it. The
// expiry and requeue land in the lease-op counters, and a late completion
// from the stalled worker is rejected.
func TestExpiredLeaseRequeues(t *testing.T) {
	c := testCoordinator(t, Config{TTL: 60 * time.Millisecond, SweepEvery: 10 * time.Millisecond})
	_, ch, err := c.Enqueue(Job{Key: "k", Label: "stall-me", Spec: json.RawMessage(`{}`)})
	if err != nil {
		t.Fatal(err)
	}
	g1, ok := tryLease(c, "stalled")
	if !ok {
		t.Fatal("no grant")
	}

	// The stalled worker never renews; the sweeper must reclaim the lease.
	deadline := time.Now().Add(5 * time.Second)
	var g2 *Grant
	for time.Now().Before(deadline) {
		if g, ok := tryLease(c, "healthy"); ok {
			g2 = g
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if g2 == nil {
		t.Fatal("expired lease never requeued")
	}
	if g2.Job != g1.Job {
		t.Fatalf("requeued job %s != original %s", g2.Job, g1.Job)
	}

	// The original lease is dead even though its worker wakes up late.
	if err := c.Complete(g1.Lease, CompleteRequest{Worker: "stalled", Payload: []byte("zombie")}); err != ErrGone {
		t.Fatalf("stalled worker completion = %v, want ErrGone", err)
	}

	if err := c.Complete(g2.Lease, CompleteRequest{Worker: "healthy", Payload: []byte("real")}); err != nil {
		t.Fatal(err)
	}
	o := waitOutcome(t, ch, time.Second)
	if string(o.Payload) != "real" || o.Worker != "healthy" {
		t.Fatalf("outcome = %+v", o)
	}
	if o.Requeues != 1 {
		t.Fatalf("outcome requeues = %d, want 1", o.Requeues)
	}

	st := c.Stats()
	if st.LeaseOps.Grants != 2 || st.LeaseOps.Expires != 1 || st.LeaseOps.Requeues != 1 {
		t.Fatalf("lease ops = %+v", st.LeaseOps)
	}
	var stalled *WorkerView
	for i := range st.Workers {
		if st.Workers[i].ID == "stalled" {
			stalled = &st.Workers[i]
		}
	}
	if stalled == nil || stalled.Expired != 1 {
		t.Fatalf("stalled worker view = %+v", stalled)
	}
}

// TestMaxRequeuesFails: a job whose leases keep expiring eventually
// resolves as failed instead of looping forever.
func TestMaxRequeuesFails(t *testing.T) {
	c := testCoordinator(t, Config{
		TTL: 20 * time.Millisecond, SweepEvery: 5 * time.Millisecond, MaxRequeues: 2,
	})
	_, ch, err := c.Enqueue(Job{Label: "poison", Spec: json.RawMessage(`{}`)})
	if err != nil {
		t.Fatal(err)
	}
	// Keep leasing and stalling until the coordinator gives up.
	go func() {
		for {
			select {
			case <-c.stop:
				return
			default:
			}
			tryLease(c, "black-hole")
			time.Sleep(5 * time.Millisecond)
		}
	}()
	o := waitOutcome(t, ch, 10*time.Second)
	if o.Err == "" {
		t.Fatalf("poison job resolved successfully: %+v", o)
	}
	if o.Requeues != 2 {
		t.Fatalf("outcome requeues = %d, want MaxRequeues=2", o.Requeues)
	}
}

// TestAbandonInvalidatesLease: canceling the dispatch side kills the
// lease, so the worker's renew learns the work is dead; an abandoned
// queued job is never granted.
func TestAbandonInvalidatesLease(t *testing.T) {
	c := testCoordinator(t, Config{TTL: time.Minute})
	idA, _, err := c.Enqueue(Job{Label: "leased-then-abandoned"})
	if err != nil {
		t.Fatal(err)
	}
	g, ok := tryLease(c, "w")
	if !ok || g.Job != idA {
		t.Fatalf("grant = %+v, %v", g, ok)
	}
	c.Abandon(idA)
	if err := c.Renew(g.Lease, "w"); err != ErrGone {
		t.Fatalf("renew after abandon = %v, want ErrGone", err)
	}

	idB, _, err := c.Enqueue(Job{Label: "abandoned-while-queued"})
	if err != nil {
		t.Fatal(err)
	}
	c.Abandon(idB)
	if g, ok := tryLease(c, "w"); ok {
		t.Fatalf("abandoned queued job was granted: %+v", g)
	}
}

// TestProgressForwarding: worker progress documents reach the job's
// OnProgress sink verbatim and extend the lease like a renew.
func TestProgressForwarding(t *testing.T) {
	c := testCoordinator(t, Config{TTL: time.Minute})
	var mu sync.Mutex
	var got []string
	_, _, err := c.Enqueue(Job{
		Label: "chatty",
		OnProgress: func(raw json.RawMessage) {
			mu.Lock()
			got = append(got, string(raw))
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	g, ok := tryLease(c, "w")
	if !ok {
		t.Fatal("no grant")
	}
	if err := c.Progress(g.Lease, "w", json.RawMessage(`{"pct":50}`)); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 1 || got[0] != `{"pct":50}` {
		t.Fatalf("forwarded progress = %v", got)
	}
}

// TestCloseResolvesWaiters: coordinator shutdown fails outstanding
// dispatches instead of leaving them blocked.
func TestCloseResolvesWaiters(t *testing.T) {
	c := NewCoordinator(Config{TTL: time.Minute, Metrics: telem.NewRegistry()})
	_, ch, err := c.Enqueue(Job{Label: "stranded"})
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	o := waitOutcome(t, ch, time.Second)
	if o.Err == "" {
		t.Fatal("shutdown outcome carried no error")
	}
	if _, _, err := c.Enqueue(Job{}); err != ErrClosed {
		t.Fatalf("enqueue after close = %v, want ErrClosed", err)
	}
}

// TestClassOrderedLeasing: interactive jobs are leased ahead of batch work
// that was queued earlier, batch keeps FIFO order among itself, and the
// per-class queue split shows up in Stats.
func TestClassOrderedLeasing(t *testing.T) {
	c := testCoordinator(t, Config{TTL: time.Minute})
	b1, _, _ := c.Enqueue(Job{Label: "batch-1", Class: "batch", Spec: json.RawMessage(`{}`)})
	b2, _, _ := c.Enqueue(Job{Label: "batch-2", Spec: json.RawMessage(`{}`)}) // empty class queues as batch
	i1, _, _ := c.Enqueue(Job{Label: "inter-1", Class: "interactive", Spec: json.RawMessage(`{}`)})
	i2, _, _ := c.Enqueue(Job{Label: "inter-2", Class: "interactive", Spec: json.RawMessage(`{}`)})

	st := c.Stats()
	if st.Queued != 4 || st.QueuedByClass["interactive"] != 2 || st.QueuedByClass["batch"] != 2 {
		t.Fatalf("stats = %+v", st)
	}

	var order []string
	for k := 0; k < 4; k++ {
		g, ok := tryLease(c, "w1")
		if !ok {
			t.Fatalf("lease %d: no grant", k)
		}
		order = append(order, g.Job)
		if k < 2 && g.Class != "interactive" {
			t.Fatalf("lease %d granted class %q, want interactive first", k, g.Class)
		}
	}
	want := []string{i1, i2, b1, b2}
	for k := range want {
		if order[k] != want[k] {
			t.Fatalf("lease order = %v, want %v", order, want)
		}
	}
}
