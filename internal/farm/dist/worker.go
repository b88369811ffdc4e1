package dist

import (
	"context"
	"encoding/json"
	"log/slog"
	"sync"
	"time"

	"repro/internal/obs/dtrace"
	"repro/internal/obs/slogx"
)

// leaseBackoff is how long a lease slot sleeps after a failed lease
// request (coordinator unreachable, restarting or closed). An empty lease
// is not a failure: the coordinator already waited for work, so the slot
// asks again at once.
const leaseBackoff = 500 * time.Millisecond

// progressMinInterval throttles progress forwarding within one stage:
// simulation progress callbacks fire per tile group, far faster than the
// coordinator needs.
const progressMinInterval = 100 * time.Millisecond

// ExecFunc executes one granted job and returns its result payload plus,
// when the job asked for one, its frame-anatomy profile document.
// ctx is canceled when the lease is lost (expired or the job was
// canceled upstream) — execution should stop promptly. progress may be
// called freely; the worker throttles and forwards it to the
// coordinator.
type ExecFunc func(ctx context.Context, g *Grant, progress func(any)) (payload, profile []byte, err error)

// Transport is the worker's side of the lease protocol. *Client speaks
// it to a remote coordinator over HTTP; Coordinator.Local speaks it to a
// coordinator in the same process. Lease waits for work on the
// coordinator and returns a nil grant when its wait cap passes; Renew,
// Progress and Complete answer a lost lease with an error IsGone
// recognises.
type Transport interface {
	Lease(ctx context.Context) (*Grant, error)
	Renew(ctx context.Context, leaseID string) error
	Progress(ctx context.Context, leaseID string, data json.RawMessage) error
	Complete(ctx context.Context, leaseID string, req CompleteRequest) error
}

// Worker pulls leases from a coordinator and executes them. One Worker
// runs Slots concurrent lease loops; each loop leases, heartbeats at a
// third of the TTL while executing, and reports completion. cmd/pimfarm
// runs one Worker per `pimfarm worker` process, and one in-process in
// local mode, with an ExecFunc that decodes the job spec and simulates
// through core.RunPayload, which reads and writes the store of the
// worker's core engine — so pointing workers at a shared -store directory
// makes every node's results warm hits everywhere.
type Worker struct {
	// Client speaks to the coordinator; required.
	Client Transport
	// Exec executes granted jobs; required.
	Exec ExecFunc
	// Slots is the number of concurrent leases; <= 0 selects 1.
	Slots int
	// Log receives worker lifecycle lines; nil discards.
	Log *slog.Logger
}

// Run pulls and executes jobs until ctx is canceled. It returns ctx's
// error; a dead coordinator is retried after a fixed backoff, never fatal
// (the farm may restart while workers stay up — journal replay refills
// the queue they draw from).
func (w *Worker) Run(ctx context.Context) error {
	slots := w.Slots
	if slots <= 0 {
		slots = 1
	}
	log := w.Log
	if log == nil {
		log = slogx.Discard()
	}
	var wg sync.WaitGroup
	wg.Add(slots)
	for i := 0; i < slots; i++ {
		go func(slot int) {
			defer wg.Done()
			w.loop(ctx, slot, log)
		}(i)
	}
	wg.Wait()
	return ctx.Err()
}

// loop is one lease slot: lease, execute, complete, repeat. It sleeps
// only after a failed lease request (see leaseBackoff).
func (w *Worker) loop(ctx context.Context, slot int, log *slog.Logger) {
	for ctx.Err() == nil {
		g, err := w.Client.Lease(ctx)
		if err != nil {
			if ctx.Err() != nil {
				return
			}
			log.Warn("lease request failed", "slot", slot, "err", err.Error())
			sleep(ctx, leaseBackoff)
			continue
		}
		if g == nil {
			continue
		}
		log.Info("leased", "slot", slot, "lease", g.Lease, "job", g.Job, "label", g.Label)
		w.runLease(ctx, g, log)
	}
}

// runLease executes one grant under a heartbeat. The lease is renewed at
// TTL/3; a renew answered ErrGone — or, for an in-process grant, the
// coordinator dropping the lease — cancels the execution context (the
// coordinator gave the job to someone else or it was canceled), and the
// result — if any — is not reported.
//
// When the grant carries a sampled trace context, a span recorder rides
// the execution context (dtrace.RecorderFrom) and the recorded spans —
// plus this worker's grant-receive and send stamps, the skew anchors —
// ship back inside the completion request. The per-lease logger carries
// trace_id/request_id so worker log lines correlate end to end.
func (w *Worker) runLease(ctx context.Context, g *Grant, log *slog.Logger) {
	grantRecv := time.Now() // t1 of the clock-skew estimate
	var rec *dtrace.Recorder
	if tc, ok := dtrace.Parse(g.Trace); ok && tc.Sampled {
		rec = dtrace.NewRecorder(tc, 0)
		log = log.With("trace_id", tc.TraceID)
	}
	if g.Origin != "" {
		log = log.With("request_id", g.Origin)
	}
	execCtx, cancelExec := context.WithCancel(ctx)
	defer cancelExec()
	execCtx = slogx.WithLogger(dtrace.WithRecorder(execCtx, rec), log)

	var lost bool
	var mu sync.Mutex
	heartbeatDone := make(chan struct{})
	interval := g.TTL() / 3
	if interval <= 0 {
		interval = time.Second
	}
	go func() {
		defer close(heartbeatDone)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-execCtx.Done():
				return
			case <-g.lost:
				mu.Lock()
				lost = true
				mu.Unlock()
				log.Warn("lease lost", "lease", g.Lease, "job", g.Job)
				cancelExec()
				return
			case <-t.C:
				if err := w.Client.Renew(ctx, g.Lease); err != nil {
					if IsGone(err) {
						mu.Lock()
						lost = true
						mu.Unlock()
						log.Warn("lease lost", "lease", g.Lease, "job", g.Job)
						cancelExec()
						return
					}
					// Transient coordinator trouble: keep heartbeating —
					// the TTL gives several attempts before expiry.
					log.Warn("renew failed", "lease", g.Lease, "err", err.Error())
				}
			}
		}
	}()

	payload, profile, execErr := w.Exec(execCtx, g, w.progressFunc(ctx, g))
	cancelExec()
	<-heartbeatDone

	mu.Lock()
	wasLost := lost
	mu.Unlock()
	if wasLost {
		return // coordinator moved on; drop the result
	}
	req := CompleteRequest{Payload: payload, Profile: profile}
	if execErr != nil {
		req.Error = execErr.Error()
	}
	if rec != nil {
		req.Trace = &dtrace.WorkerReport{
			Context:     g.Trace,
			GrantRecvUS: grantRecv.UnixMicro(),
			SendUS:      time.Now().UnixMicro(), // t2
			Spans:       rec.Spans(),
			Dropped:     rec.Dropped(),
		}
	}
	// Report completion with the parent context (exec cancellation must
	// not block the report); a few retries smooth over transient network
	// trouble, and ErrGone means the expiry beat us — nothing to do.
	var err error
	for attempt := 0; attempt < 3; attempt++ {
		if err = w.Client.Complete(ctx, g.Lease, req); err == nil || IsGone(err) || ctx.Err() != nil {
			break
		}
		sleep(ctx, time.Duration(attempt+1)*200*time.Millisecond)
	}
	switch {
	case err == nil:
		log.Info("completed", "lease", g.Lease, "job", g.Job, "error", req.Error)
	case IsGone(err):
		log.Warn("completion discarded (lease expired)", "lease", g.Lease, "job", g.Job)
	default:
		log.Error("completion report failed", "lease", g.Lease, "err", err.Error())
	}
}

// progressFunc builds the progress forwarder for one lease. The first
// report of each "stage" (a member of the JSON document) is always
// forwarded, so every stage boundary — the final "done" included —
// reaches the job's event stream; further reports within a stage are
// throttled to one per progressMinInterval.
func (w *Worker) progressFunc(ctx context.Context, g *Grant) func(any) {
	var mu sync.Mutex
	var last time.Time
	var lastStage string
	return func(data any) {
		raw, err := json.Marshal(data)
		if err != nil {
			return
		}
		var doc struct {
			Stage string `json:"stage"`
		}
		_ = json.Unmarshal(raw, &doc) // a document without a stage throttles as one stage
		mu.Lock()
		now := time.Now()
		if doc.Stage == lastStage && now.Sub(last) < progressMinInterval {
			mu.Unlock()
			return
		}
		last, lastStage = now, doc.Stage
		mu.Unlock()
		// Best-effort: progress is cosmetic and must never stall the
		// simulation; a lost event only thins the SSE stream.
		pctx, cancel := context.WithTimeout(ctx, 5*time.Second)
		_ = w.Client.Progress(pctx, g.Lease, raw)
		cancel()
	}
}

// sleep waits d or until ctx is canceled.
func sleep(ctx context.Context, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
	case <-t.C:
	}
}
