// Package farm is the render-farm job layer: singleflight deduplication
// of identical in-flight work, an LRU-bounded result cache with an
// optional read-only durable tier, SSE lifecycle streams, cancellation, and
// graceful drain on shutdown. The farm runs each task once; re-execution
// belongs to whatever sits inside the Run closure (the lease coordinator
// requeues a job whose worker died).
//
// The farm does not schedule: Submit never blocks, and each deduplicated
// execution runs in its own goroutine. Whatever bounds the work sits in
// front of the farm (cmd/pimfarm's admission control) or inside the Run
// closure (the lease coordinator's class queues). The farm is
// deliberately independent of the simulator: a Task carries an opaque Run
// closure plus a dedup Key, so cmd/pimfarm can serve arbitrary render jobs
// without an import cycle. A job also carries what its run produced
// besides the result — a frame profile and a distributed-trace timeline —
// which leave memory with the job or at the retention age.
package farm

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/farm/lru"
	"repro/internal/obs/telem"
)

// Defaults used when Config fields are zero.
const (
	// DefaultCacheCap bounds the result cache (entries).
	DefaultCacheCap = 512
	// DefaultRetainDone bounds how many finished jobs the registry keeps
	// for listing; the oldest are pruned first.
	DefaultRetainDone = 1024
	// DefaultRetention is how long finished jobs keep their full SSE
	// replay rings, frame profiles and trace timelines before the janitor
	// drops them.
	DefaultRetention = 10 * time.Minute
)

// Errors returned by the farm.
var (
	// ErrClosed is returned by Submit after Close has begun.
	ErrClosed = errors.New("farm: closed")
	// ErrShutdown completes jobs that never ran — dedup followers — when
	// a forced shutdown canceled them.
	ErrShutdown = errors.New("farm: shut down before job ran")
)

// Tier is a read-only secondary result cache consulted after the
// in-memory LRU misses — typically a durable on-disk store (internal/store
// via core.StoreTier), so completed jobs survive restarts. The farm never
// writes it: whatever computes a result (in cmd/pimfarm, the worker that
// simulated it) owns persistence. Implementations must be safe for
// concurrent use.
type Tier interface {
	// Get returns the cached value for key, if present and valid.
	Get(key string) (any, bool)
}

// Task is one unit of work.
type Task struct {
	// Key identifies equal work: concurrent tasks with the same non-empty
	// Key collapse into one execution (singleflight) and completed values
	// are served from the LRU cache. An empty Key opts out of both.
	Key string
	// Label names the task in job listings and trace timelines.
	Label string
	// Origin tags the task with where it came from (e.g. an HTTP request
	// ID). It is surfaced in job views and trace timelines, tying a span
	// or log line back to the request that caused it.
	Origin string
	// Tenant names who the work was admitted for; it is carried into job
	// views, SSE "state" events and trace timelines. Empty when the
	// caller runs without admission control.
	Tenant string
	// Class is the admission priority-class label ("interactive",
	// "batch"); informational at this layer — ordering is enforced by the
	// admission controller in front of Submit and the queues behind Run.
	Class string
	// AdmitWait is how long the submission waited for admission before
	// Submit was called; surfaced on the job view as admit_wait_ms.
	AdmitWait time.Duration
	// Trace is the job's distributed-trace context in traceparent wire
	// form ("" when the submission was unsampled). Observational-only:
	// it never participates in Key, dedup, or caching.
	Trace string
	// Meta is an opaque caller payload surfaced on the Job (pimfarm stores
	// the parsed request here).
	Meta any
	// Run executes the work. The context is the job's own, derived from
	// the farm's root: it is canceled on forced shutdown and by
	// Farm.Cancel. Run must be safe to call concurrently with other
	// tasks' Run.
	Run func(ctx context.Context) (any, error)
}

// Config configures a Farm.
type Config struct {
	// RetainDone bounds how many finished jobs stay listable; <= 0 selects
	// DefaultRetainDone.
	RetainDone int
	// Retention is how long a finished job keeps its full SSE replay ring,
	// frame profile and trace timeline; once a job has been terminal this
	// long, the ring is compacted to the terminal "state" event and the
	// artifacts are dropped, so long-running servers do not hold every
	// retained job's progress history and documents. <= 0 selects
	// DefaultRetention.
	Retention time.Duration
	// Tier, when non-nil, is the second cache tier behind the in-memory
	// LRU (memory → tier → compute). It is consulted by the job's own
	// goroutine just before the task would run — never on the Submit
	// path. Singleflight spans tiers: followers of an in-flight key ride
	// the leader whether its result came from the tier or was computed.
	Tier Tier
	// Metrics is the live-telemetry registry the farm publishes pimfarm_*
	// series into; nil selects telem.Default().
	Metrics *telem.Registry
}

// farmMetrics holds the farm's live-telemetry instruments. They mirror
// the atomic counters behind Counters — the atomics stay authoritative
// for /varz; these exist so /metrics exposes the same activity in
// Prometheus form without a registry scrape touching farm internals.
type farmMetrics struct {
	submitted                    *telem.Counter
	done, failed, canceled       *telem.Counter
	deduped, cacheHits, tierHits *telem.Counter
	running                      *telem.Gauge
	runDur                       *telem.Histogram
}

func newFarmMetrics(r *telem.Registry) farmMetrics {
	completed := func(state string) *telem.Counter {
		return r.Counter("pimfarm_jobs_completed_total",
			"Jobs reaching a terminal state, by outcome.", telem.Labels{"state": state})
	}
	return farmMetrics{
		submitted: r.Counter("pimfarm_jobs_submitted_total",
			"Jobs accepted by Submit (including cache hits and dedup followers).", nil),
		done:     completed("done"),
		failed:   completed("failed"),
		canceled: completed("canceled"),
		deduped: r.Counter("pimfarm_jobs_deduped_total",
			"Submissions that attached to an in-flight job with the same key.", nil),
		cacheHits: r.Counter("pimfarm_cache_hits_total",
			"Submissions served from the in-memory result cache.", nil),
		tierHits: r.Counter("pimfarm_tier_hits_total",
			"Jobs served from the durable store tier.", nil),
		running: r.Gauge("pimfarm_jobs_running",
			"Jobs currently executing.", nil),
		runDur: r.Histogram("pimfarm_job_run_seconds",
			"Task execution time for computed jobs.", nil, nil),
	}
}

// Counters is a point-in-time snapshot of farm activity (the /varz body).
type Counters struct {
	Submitted     uint64  `json:"submitted"`
	Running       int64   `json:"running"`
	Done          uint64  `json:"done"`
	Failed        uint64  `json:"failed"`
	Canceled      uint64  `json:"canceled"`
	Deduped       uint64  `json:"deduped"`
	CacheHits     uint64  `json:"cache_hits"`
	CacheSize     int     `json:"cache_size"`
	TierHits      uint64  `json:"tier_hits"`
	UptimeSeconds float64 `json:"uptime_seconds"`
}

// Farm runs Tasks with dedup, caching and lifecycle tracking.
type Farm struct {
	cfg Config
	met farmMetrics
	t0  time.Time

	root   context.Context
	cancel context.CancelFunc

	cache *lru.Cache[any]

	mu       sync.Mutex
	closed   bool
	inflight map[string]*leader // key → leader among unfinished jobs
	jobs     map[string]*Job    // id → job
	order    []*Job             // submission order, pruned to RetainDone
	nextID   uint64

	jobsWG sync.WaitGroup // accepted jobs not yet terminal

	submitted atomic.Uint64
	running   atomic.Int64
	done      atomic.Uint64
	failed    atomic.Uint64
	canceled  atomic.Uint64
	deduped   atomic.Uint64
	cacheHits atomic.Uint64
	tierHits  atomic.Uint64
}

// leader tracks one in-flight execution and the duplicate submissions
// riding on it.
type leader struct {
	job       *Job
	followers []*Job
}

// New builds a farm.
func New(cfg Config) *Farm {
	if cfg.RetainDone <= 0 {
		cfg.RetainDone = DefaultRetainDone
	}
	if cfg.Retention <= 0 {
		cfg.Retention = DefaultRetention
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = telem.Default()
	}
	root, cancel := context.WithCancel(context.Background())
	f := &Farm{
		cfg:      cfg,
		met:      newFarmMetrics(reg),
		t0:       time.Now(),
		root:     root,
		cancel:   cancel,
		cache:    lru.New[any](DefaultCacheCap),
		inflight: make(map[string]*leader),
		jobs:     make(map[string]*Job),
	}
	go f.janitor()
	return f
}

// janitor periodically expires jobs that have been terminal longer than
// Retention, bounding what a long-running server retains per finished
// job. It exits with the root context.
func (f *Farm) janitor() {
	every := f.cfg.Retention / 4
	if every < time.Second {
		every = time.Second
	}
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-f.root.Done():
			return
		case now := <-t.C:
			cut := now.Add(-f.cfg.Retention)
			for _, j := range f.Jobs() {
				j.expire(cut)
			}
		}
	}
}

// Submit accepts a task and returns its Job without blocking. Cached keys
// complete immediately, duplicate keys of in-flight jobs attach to their
// leader, and any other task starts executing in its own goroutine under
// the farm's root context.
func (f *Farm) Submit(t Task) (*Job, error) {
	if t.Run == nil {
		return nil, errors.New("farm: task has no Run")
	}
	now := time.Now()

	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return nil, ErrClosed
	}
	j := &Job{
		id:        fmt.Sprintf("job-%06d", f.nextID+1),
		label:     t.Label,
		key:       t.Key,
		origin:    t.Origin,
		tenant:    t.Tenant,
		class:     t.Class,
		admitWait: t.AdmitWait,
		trace:     t.Trace,
		meta:      t.Meta,
		state:     Queued,
		enqueued:  now,
		done:      make(chan struct{}),
	}
	// The job rides in its own context so Run closures can reach it
	// (JobFromContext) to publish progress events before Submit returns.
	j.ctx, j.cancel = context.WithCancel(context.WithValue(f.root, jobCtxKey{}, j))
	f.nextID++
	f.jobsWG.Add(1)
	f.register(j)
	f.submitted.Add(1)
	f.met.submitted.Inc()

	// Cache hit: complete without running.
	if t.Key != "" {
		if v, ok := f.cache.Get(t.Key); ok {
			f.mu.Unlock()
			j.mu.Lock()
			j.cacheHit = true
			j.mu.Unlock()
			f.cacheHits.Add(1)
			f.met.cacheHits.Inc()
			j.publishState()
			f.finish(j, Done, v, nil)
			return j, nil
		}
		// Singleflight: ride the in-flight leader.
		if ld, ok := f.inflight[t.Key]; ok {
			ld.followers = append(ld.followers, j)
			f.mu.Unlock()
			j.mu.Lock()
			j.deduped = true
			j.mu.Unlock()
			f.deduped.Add(1)
			f.met.deduped.Inc()
			j.publishState()
			return j, nil
		}
		f.inflight[t.Key] = &leader{job: j}
	}
	j.run = t.Run
	f.mu.Unlock()
	j.publishState()
	go f.execute(j)
	return j, nil
}

// jobCtxKey keys the *Job carried by each job's execution context.
type jobCtxKey struct{}

// JobFromContext returns the job whose Run is executing under ctx, if
// any. Task closures use it to publish progress events onto their own
// job without needing the *Job handle (which Submit may not have returned
// yet when the task starts running).
func JobFromContext(ctx context.Context) (*Job, bool) {
	j, ok := ctx.Value(jobCtxKey{}).(*Job)
	return j, ok
}

// Do submits a task and waits for its result.
func (f *Farm) Do(ctx context.Context, t Task) (any, error) {
	j, err := f.Submit(t)
	if err != nil {
		return nil, err
	}
	return j.Wait(ctx)
}

// Cancel requests cancellation of a job by id. A job that has not started
// running (a dedup follower) completes Canceled immediately; a running job
// has its context canceled and completes Canceled when its Run returns.
// Cancel reports whether the request took effect — false for unknown ids
// and jobs already in a terminal state.
func (f *Farm) Cancel(id string) bool {
	f.mu.Lock()
	j, ok := f.jobs[id]
	f.mu.Unlock()
	if !ok {
		return false
	}
	j.mu.Lock()
	if j.state.Terminal() {
		j.mu.Unlock()
		return false
	}
	j.canceled = true
	queued := j.state == Queued
	j.mu.Unlock()
	j.cancel()
	if queued {
		f.finish(j, Canceled, nil, context.Canceled)
	}
	return true
}

// Job returns a submitted job by id.
func (f *Farm) Job(id string) (*Job, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	j, ok := f.jobs[id]
	return j, ok
}

// Jobs returns the retained jobs in submission order.
func (f *Farm) Jobs() []*Job {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]*Job, len(f.order))
	copy(out, f.order)
	return out
}

// Counters snapshots farm activity.
func (f *Farm) Counters() Counters {
	return Counters{
		Submitted:     f.submitted.Load(),
		Running:       f.running.Load(),
		Done:          f.done.Load(),
		Failed:        f.failed.Load(),
		Canceled:      f.canceled.Load(),
		Deduped:       f.deduped.Load(),
		CacheHits:     f.cacheHits.Load(),
		CacheSize:     f.cache.Len(),
		TierHits:      f.tierHits.Load(),
		UptimeSeconds: time.Since(f.t0).Seconds(),
	}
}

// Close drains the farm: no new submissions are accepted and accepted
// jobs run to completion. If ctx expires first the shutdown is forced —
// the root context is canceled, running jobs see their contexts end, and
// dedup followers complete as Canceled with ErrShutdown. Close returns
// ctx.Err() on a forced shutdown.
func (f *Farm) Close(ctx context.Context) error {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return nil
	}
	f.closed = true
	f.mu.Unlock()

	drained := make(chan struct{})
	go func() {
		f.jobsWG.Wait()
		close(drained)
	}()

	var err error
	select {
	case <-drained:
	case <-ctx.Done():
		err = ctx.Err()
		f.cancel()
		<-drained
	}
	f.cancel()
	return err
}

// register indexes a job and prunes the oldest finished jobs beyond the
// retention bound. Caller holds f.mu.
func (f *Farm) register(j *Job) {
	f.jobs[j.id] = j
	f.order = append(f.order, j)
	if len(f.order) <= f.cfg.RetainDone {
		return
	}
	kept := f.order[:0]
	excess := len(f.order) - f.cfg.RetainDone
	for _, old := range f.order {
		if excess > 0 && old.State().Terminal() {
			delete(f.jobs, old.id)
			excess--
			continue
		}
		kept = append(kept, old)
	}
	f.order = kept
}

// execute runs one leader job once and completes it (and any
// singleflight followers).
func (f *Farm) execute(j *Job) {
	start := time.Now()
	j.mu.Lock()
	if j.state.Terminal() { // canceled before it started
		j.mu.Unlock()
		return
	}
	j.state = Running
	j.started = start
	j.mu.Unlock()
	j.publishState()

	// Second-tier lookup (memory → tier → compute): a persisted result
	// completes the job — and its singleflight followers — without
	// running the task, and refills the memory LRU.
	if j.key != "" && f.cfg.Tier != nil {
		if v, ok := f.cfg.Tier.Get(j.key); ok {
			f.tierHits.Add(1)
			f.met.tierHits.Inc()
			j.mu.Lock()
			j.tierHit = true
			j.mu.Unlock()
			f.cache.Add(j.key, v)
			f.finish(j, Done, v, nil)
			return
		}
	}

	f.running.Add(1)
	f.met.running.Inc()
	v, err := j.run(j.ctx)
	f.running.Add(-1)
	f.met.running.Dec()

	f.met.runDur.Observe(time.Since(start).Seconds())

	if err != nil {
		// Only an explicit Farm.Cancel makes a run's failure a
		// cancellation; a forced shutdown mid-run still records Failed.
		if j.isCanceled() {
			f.finish(j, Canceled, nil, err)
			return
		}
		f.finish(j, Failed, nil, err)
		return
	}
	if j.key != "" {
		f.cache.Add(j.key, v)
	}
	f.finish(j, Done, v, nil)
}

// finish completes a job and its singleflight followers, updating counters
// and the inflight table exactly once per job.
func (f *Farm) finish(j *Job, s State, v any, err error) {
	now := time.Now()
	var followers []*Job
	if j.key != "" {
		f.mu.Lock()
		if ld, ok := f.inflight[j.key]; ok && ld.job == j {
			followers = ld.followers
			delete(f.inflight, j.key)
		}
		f.mu.Unlock()
	}
	f.completeOne(j, s, v, err, now)
	if s == Failed && f.root.Err() != nil {
		// Followers never ran: a forced shutdown cancels them rather than
		// handing on the leader's interrupted run.
		s, err = Canceled, ErrShutdown
	}
	for _, fo := range followers {
		f.completeOne(fo, s, v, err, now)
	}
}

func (f *Farm) completeOne(j *Job, s State, v any, err error, now time.Time) {
	j.mu.Lock()
	if j.state.Terminal() {
		j.mu.Unlock()
		return
	}
	j.state = s
	j.value = v
	j.err = err
	j.finished = now
	j.mu.Unlock()
	// Publish the terminal state, then close every event subscriber: an
	// SSE consumer always sees the terminal "state" event before EOF.
	j.publishState()
	j.closeEvents()
	// Count the outcome before close(j.done) releases Do/Wait, so a caller
	// that has seen its job finish also sees it in Counters.
	switch s {
	case Done:
		f.done.Add(1)
		f.met.done.Inc()
	case Failed:
		f.failed.Add(1)
		f.met.failed.Inc()
	case Canceled:
		f.canceled.Add(1)
		f.met.canceled.Inc()
	}
	close(j.done)
	if j.cancel != nil {
		j.cancel() // release the job context's resources
	}
	f.jobsWG.Done()
}
