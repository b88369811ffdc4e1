package dist

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs/telem"
)

// Defaults used when Config fields are zero.
const (
	// DefaultTTL is the lease duration workers must renew within.
	DefaultTTL = 15 * time.Second
	// DefaultMaxRequeues bounds how many expired leases one dispatch
	// survives before it resolves as failed. Requeueing an expired lease
	// is the only way a job runs again.
	DefaultMaxRequeues = 8
)

// Errors returned by the coordinator.
var (
	// ErrGone rejects operations on a lease the coordinator no longer
	// holds: it expired and was requeued, its job completed on another
	// worker, or the job was abandoned. Workers drop the work on ErrGone.
	ErrGone = errors.New("dist: lease gone")
	// ErrClosed rejects enqueues after Close.
	ErrClosed = errors.New("dist: coordinator closed")
)

// Config configures a Coordinator.
type Config struct {
	// TTL is the lease duration; <= 0 selects DefaultTTL.
	TTL time.Duration
	// SweepEvery is the expiry-scan interval; <= 0 selects TTL/4.
	SweepEvery time.Duration
	// LivenessWindow is how recently a worker must have spoken to count
	// as live; <= 0 selects 3*TTL.
	LivenessWindow time.Duration
	// MaxRequeues bounds expired-lease requeues per dispatch; <= 0
	// selects DefaultMaxRequeues.
	MaxRequeues int
	// Metrics is the live-telemetry registry the coordinator publishes
	// pim_farm_lease_* and pim_farm_workers_live into; nil selects
	// telem.Default().
	Metrics *telem.Registry
}

// coordMetrics holds the coordinator's live-telemetry instruments; the
// atomics behind Stats stay authoritative for /varz.
type coordMetrics struct {
	grants, renews, expires, requeues *telem.Counter
	workersLive                       *telem.Gauge
	leaseAge                          *telem.Histogram
}

func newCoordMetrics(r *telem.Registry) coordMetrics {
	op := func(op string) *telem.Counter {
		return r.Counter("pim_farm_lease_ops_total",
			"Distributed lease-protocol operations by type.", telem.Labels{"op": op})
	}
	return coordMetrics{
		grants:   op("grant"),
		renews:   op("renew"),
		expires:  op("expire"),
		requeues: op("requeue"),
		workersLive: r.Gauge("pim_farm_workers_live",
			"Workers that leased, renewed or completed within the liveness window.", nil),
		leaseAge: r.Histogram("pim_farm_lease_age_seconds",
			"Lease lifetime from grant to completion or expiry.", nil, nil),
	}
}

// Class-queue indexes: interactive work is always leased first.
const (
	classInteractive = iota
	classBatch
	numClassQueues
)

// classIndex maps a job's class label to its lease queue.
func classIndex(class string) int {
	if class == "interactive" {
		return classInteractive
	}
	return classBatch
}

// pending is one job waiting in the queue or out on a lease.
type pending struct {
	id       string
	job      Job
	ch       chan Outcome // buffered 1; resolved exactly once
	enqueued time.Time
	requeues int
	lease    *lease // nil while queued
	gone     bool   // abandoned by the dispatcher (job canceled)
}

// lease is one grant out to a worker.
type lease struct {
	id      string
	p       *pending
	worker  string
	granted time.Time
	expires time.Time
	renews  int
	lost    chan struct{} // closed when the lease leaves the table
}

// workerInfo is one worker's liveness record.
type workerInfo struct {
	id        string
	firstSeen time.Time
	lastSeen  time.Time
	completed uint64
	failed    uint64
	expired   uint64
}

// Coordinator owns the distributed job queue and the lease table. Jobs
// enter through Enqueue (called from farm Task Run closures), leave
// through worker Lease/Complete calls, and come back on lease expiry.
// Safe for concurrent use.
type Coordinator struct {
	cfg Config
	met coordMetrics

	mu     sync.Mutex
	closed bool
	// queues holds the two class-ordered FIFO lease queues (gone entries
	// skipped lazily): index 0 is interactive, drained completely before
	// index 1 (batch) is touched, so interactive jobs preempt queued
	// batch work at the lease layer exactly as they do at admission.
	queues    [numClassQueues][]*pending
	byID      map[string]*pending // unresolved jobs (queued or leased)
	leases    map[string]*lease
	workers   map[string]*workerInfo
	nextJob   uint64
	nextLease uint64
	// wake is closed (and replaced) whenever a job becomes leasable, so
	// workers parked in Lease take it at once; Close closes it for good.
	wake chan struct{}

	grants   atomic.Uint64
	renews   atomic.Uint64
	expires  atomic.Uint64
	requeues atomic.Uint64

	stop     chan struct{}
	stopOnce sync.Once
	swept    chan struct{} // closed when the sweeper exits
}

// NewCoordinator builds a coordinator and starts its expiry sweeper.
func NewCoordinator(cfg Config) *Coordinator {
	if cfg.TTL <= 0 {
		cfg.TTL = DefaultTTL
	}
	if cfg.SweepEvery <= 0 {
		cfg.SweepEvery = cfg.TTL / 4
	}
	if cfg.LivenessWindow <= 0 {
		cfg.LivenessWindow = 3 * cfg.TTL
	}
	if cfg.MaxRequeues <= 0 {
		cfg.MaxRequeues = DefaultMaxRequeues
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = telem.Default()
	}
	c := &Coordinator{
		cfg:     cfg,
		met:     newCoordMetrics(reg),
		byID:    make(map[string]*pending),
		leases:  make(map[string]*lease),
		workers: make(map[string]*workerInfo),
		wake:    make(chan struct{}),
		stop:    make(chan struct{}),
		swept:   make(chan struct{}),
	}
	go c.sweeper()
	return c
}

// TTL returns the configured lease duration.
func (c *Coordinator) TTL() time.Duration { return c.cfg.TTL }

// Enqueue queues a job for the next free worker and returns its dispatch
// id plus the channel its Outcome arrives on (buffered; never blocks the
// resolver). The caller that stops waiting must Abandon the id so the
// coordinator does not dispatch dead work.
func (c *Coordinator) Enqueue(job Job) (string, <-chan Outcome, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return "", nil, ErrClosed
	}
	c.nextJob++
	p := &pending{
		id:       fmt.Sprintf("dj-%08d", c.nextJob),
		job:      job,
		ch:       make(chan Outcome, 1),
		enqueued: time.Now(),
	}
	c.byID[p.id] = p
	c.queueLocked(p)
	return p.id, p.ch, nil
}

// queueLocked appends p to its class queue and wakes the workers parked
// in Lease. Caller holds c.mu.
func (c *Coordinator) queueLocked(p *pending) {
	q := classIndex(p.job.Class)
	c.queues[q] = append(c.queues[q], p)
	close(c.wake)
	c.wake = make(chan struct{})
}

// dropLeaseLocked takes l out of the lease table and signals an
// in-process holder that the lease is gone. Caller holds c.mu.
func (c *Coordinator) dropLeaseLocked(l *lease) {
	delete(c.leases, l.id)
	l.p.lease = nil
	close(l.lost)
}

// Abandon withdraws a dispatched job (its farm-side context was
// canceled): a queued job is dropped; a leased one has its lease
// invalidated, so the worker stops wasting cycles — an in-process worker
// at once, a remote one when its next renew answers ErrGone.
func (c *Coordinator) Abandon(id string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	p, ok := c.byID[id]
	if !ok {
		return
	}
	p.gone = true
	delete(c.byID, id)
	if p.lease != nil {
		c.dropLeaseLocked(p.lease)
	}
}

// maxLeaseWait caps Lease's wait for work below the Client's 30 s request
// timeout, so a parked HTTP lease answers 204 before the client gives up.
const maxLeaseWait = 20 * time.Second

// Lease grants workerID the oldest queued job, interactive before batch.
// With nothing queued it waits until a job is queued or requeued, ctx
// ends, the coordinator closes (ErrClosed), or half the TTL, at most
// maxLeaseWait, passes; the last returns no grant and no error, and the
// worker asks again, which keeps it inside the liveness window. It never
// grants once ctx has ended, since that grant could not be delivered.
// Both transports call it: POST /v1/leases with the request's context,
// the in-process worker with its own.
func (c *Coordinator) Lease(ctx context.Context, workerID string) (*Grant, error) {
	wait := time.NewTimer(min(c.cfg.TTL/2, maxLeaseWait))
	defer wait.Stop()
	for {
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			return nil, ErrClosed
		}
		if err := ctx.Err(); err != nil {
			c.mu.Unlock()
			return nil, err
		}
		g := c.grantLocked(workerID, time.Now())
		wake := c.wake
		c.mu.Unlock()
		if g != nil {
			return g, nil
		}
		select {
		case <-wake:
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-wait.C:
			return nil, nil
		}
	}
}

// grantLocked records workerID's activity and leases it the oldest queued
// job, or returns nil when none is queued. Caller holds c.mu.
func (c *Coordinator) grantLocked(workerID string, now time.Time) *Grant {
	c.touchWorkerLocked(workerID, now)
	var p *pending
scan:
	for q := 0; q < numClassQueues; q++ {
		for len(c.queues[q]) > 0 {
			head := c.queues[q][0]
			c.queues[q] = c.queues[q][1:]
			if head.gone || head.lease != nil {
				continue // abandoned, or a stale queue entry from a requeue
			}
			p = head
			break scan
		}
	}
	if p == nil {
		return nil
	}
	c.nextLease++
	l := &lease{
		id:      fmt.Sprintf("lease-%08d", c.nextLease),
		p:       p,
		worker:  workerID,
		granted: now,
		expires: now.Add(c.cfg.TTL),
		lost:    make(chan struct{}),
	}
	p.lease = l
	c.leases[l.id] = l
	c.grants.Add(1)
	c.met.grants.Inc()
	return &Grant{
		Lease:     l.id,
		Job:       p.id,
		Key:       p.job.Key,
		Label:     p.job.Label,
		Class:     p.job.Class,
		Spec:      p.job.Spec,
		TTLMillis: c.cfg.TTL.Milliseconds(),
		Origin:    p.job.Origin,
		Trace:     p.job.Trace,
		// The grant stamp is t0 of the NTP-style clock-skew estimate the
		// trace assembly uses to put worker spans on this clock.
		GrantUnixUS: now.UnixMicro(),
		lost:        l.lost,
	}
}

// Renew extends a held lease by one TTL (the heartbeat). ErrGone tells
// the worker the lease was lost — expired and requeued, completed
// elsewhere, or its job abandoned — and the work should be dropped.
func (c *Coordinator) Renew(leaseID, workerID string) error {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.touchWorkerLocked(workerID, now)
	l, ok := c.leases[leaseID]
	if !ok {
		return ErrGone
	}
	l.expires = now.Add(c.cfg.TTL)
	l.renews++
	c.renews.Add(1)
	c.met.renews.Inc()
	return nil
}

// Progress forwards one worker-reported progress document onto the
// leased job's OnProgress sink. Progress on a lost lease is ErrGone.
func (c *Coordinator) Progress(leaseID, workerID string, data json.RawMessage) error {
	now := time.Now()
	c.mu.Lock()
	c.touchWorkerLocked(workerID, now)
	l, ok := c.leases[leaseID]
	if !ok {
		c.mu.Unlock()
		return ErrGone
	}
	// Progress implicitly proves the worker is alive; count it as a renew
	// so a chatty worker needs no separate heartbeat traffic.
	l.expires = now.Add(c.cfg.TTL)
	sink := l.p.job.OnProgress
	c.mu.Unlock()
	if sink != nil {
		sink(data)
	}
	return nil
}

// Complete resolves a leased job with the worker's payload or error and
// releases the lease. req.Trace, when non-nil, is the worker's trace
// half (stamped with req.Worker); the outcome carries it alongside the
// lease's coordinator-clock grant and receipt stamps so the dispatcher
// can skew-correct worker spans, and carries req.Profile as is. ErrGone
// means the result arrived too late (the lease expired and the job went
// elsewhere) and was discarded.
func (c *Coordinator) Complete(leaseID string, req CompleteRequest) error {
	now := time.Now()
	c.mu.Lock()
	w := c.touchWorkerLocked(req.Worker, now)
	l, ok := c.leases[leaseID]
	if !ok {
		c.mu.Unlock()
		return ErrGone
	}
	p := l.p
	c.dropLeaseLocked(l)
	delete(c.byID, p.id)
	if req.Error == "" {
		w.completed++
	} else {
		w.failed++
	}
	requeues := p.requeues
	c.mu.Unlock()

	c.met.leaseAge.Observe(now.Sub(l.granted).Seconds())
	if req.Trace != nil {
		req.Trace.Worker = req.Worker
	}
	p.ch <- Outcome{Payload: req.Payload, Err: req.Error, Worker: req.Worker, Requeues: requeues,
		Trace: req.Trace, Profile: req.Profile, Granted: l.granted, Completed: now}
	return nil
}

// sweeper periodically expires overdue leases (requeueing their jobs)
// and refreshes the live-workers gauge.
func (c *Coordinator) sweeper() {
	defer close(c.swept)
	t := time.NewTicker(c.cfg.SweepEvery)
	defer t.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-t.C:
			c.sweep(time.Now())
		}
	}
}

// sweep reclaims expired leases: the job goes back on the queue with its
// requeue count bumped unless it has burned through MaxRequeues, in which
// case it resolves as failed.
func (c *Coordinator) sweep(now time.Time) {
	type failed struct {
		p      *pending
		worker string
	}
	var fails []failed
	c.mu.Lock()
	for _, l := range c.leases {
		if !now.After(l.expires) {
			continue
		}
		p := l.p
		c.dropLeaseLocked(l)
		if w, ok := c.workers[l.worker]; ok {
			w.expired++
		}
		c.expires.Add(1)
		c.met.expires.Inc()
		c.met.leaseAge.Observe(now.Sub(l.granted).Seconds())
		if p.gone {
			continue
		}
		p.requeues++
		if p.requeues > c.cfg.MaxRequeues {
			delete(c.byID, p.id)
			fails = append(fails, failed{p: p, worker: l.worker})
			continue
		}
		c.queueLocked(p)
		c.requeues.Add(1)
		c.met.requeues.Inc()
	}
	c.met.workersLive.Set(float64(c.liveWorkersLocked(now)))
	c.mu.Unlock()
	for _, f := range fails {
		f.p.ch <- Outcome{
			Err:      fmt.Sprintf("lease expired %d times (last worker %s)", f.p.requeues-1, f.worker),
			Worker:   f.worker,
			Requeues: f.p.requeues - 1,
		}
	}
}

// touchWorkerLocked records worker activity and refreshes the live-worker
// gauge (the sweeper refreshes it too, so it also decays while workers
// are silent). Caller holds c.mu.
func (c *Coordinator) touchWorkerLocked(id string, now time.Time) *workerInfo {
	if id == "" {
		id = "anonymous"
	}
	w, ok := c.workers[id]
	if !ok {
		w = &workerInfo{id: id, firstSeen: now}
		c.workers[id] = w
	}
	w.lastSeen = now
	c.met.workersLive.Set(float64(c.liveWorkersLocked(now)))
	return w
}

// liveWorkersLocked counts workers seen within the liveness window.
// Caller holds c.mu.
func (c *Coordinator) liveWorkersLocked(now time.Time) int {
	live := 0
	for _, w := range c.workers {
		if now.Sub(w.lastSeen) <= c.cfg.LivenessWindow {
			live++
		}
	}
	return live
}

// Workers returns every known worker's liveness view, sorted by id.
func (c *Coordinator) Workers() []WorkerView {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	held := make(map[string]int, len(c.workers))
	for _, l := range c.leases {
		held[l.worker]++
	}
	out := make([]WorkerView, 0, len(c.workers))
	for _, w := range c.workers {
		out = append(out, WorkerView{
			ID:           w.id,
			Live:         now.Sub(w.lastSeen) <= c.cfg.LivenessWindow,
			FirstSeen:    w.firstSeen,
			LastSeen:     w.lastSeen,
			ActiveLeases: held[w.id],
			Completed:    w.completed,
			Failed:       w.failed,
			Expired:      w.expired,
		})
	}
	sort.Slice(out, func(a, b int) bool { return out[a].ID < out[b].ID })
	return out
}

// Stats snapshots coordinator activity (the "workers" block in /varz).
func (c *Coordinator) Stats() Stats {
	now := time.Now()
	c.mu.Lock()
	queued := 0
	byClass := map[string]int{"interactive": 0, "batch": 0}
	for q := 0; q < numClassQueues; q++ {
		n := 0
		for _, p := range c.queues[q] {
			if !p.gone && p.lease == nil {
				n++
			}
		}
		queued += n
		if q == classInteractive {
			byClass["interactive"] = n
		} else {
			byClass["batch"] = n
		}
	}
	leased := len(c.leases)
	live := c.liveWorkersLocked(now)
	c.mu.Unlock()
	return Stats{
		Queued:        queued,
		QueuedByClass: byClass,
		Leased:        leased,
		WorkersLive:   live,
		LeaseOps: LeaseOps{
			Grants:   c.grants.Load(),
			Renews:   c.renews.Load(),
			Expires:  c.expires.Load(),
			Requeues: c.requeues.Load(),
		},
		Workers: c.Workers(),
	}
}

// Close stops the sweeper, releases every worker parked in Lease (they
// answer ErrClosed) and resolves every unresolved job with a shutdown
// error so no dispatcher waits forever. Idempotent.
func (c *Coordinator) Close() {
	c.stopOnce.Do(func() { close(c.stop) })
	<-c.swept
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	close(c.wake)
	orphans := make([]*pending, 0, len(c.byID))
	for _, p := range c.byID {
		orphans = append(orphans, p)
	}
	for _, l := range c.leases {
		c.dropLeaseLocked(l)
	}
	c.byID = make(map[string]*pending)
	for q := range c.queues {
		c.queues[q] = nil
	}
	c.mu.Unlock()
	for _, p := range orphans {
		p.ch <- Outcome{Err: "coordinator shut down"}
	}
}
