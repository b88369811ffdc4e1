// Package admit is the multi-tenant admission-control layer in front of
// the render farm: a bounded, class-ordered admission queue with
// per-tenant concurrency quotas and token-bucket rate limits.
//
// The farm itself (internal/farm) accepts whatever it is given and the
// Prometheus histograms (internal/obs/telem) only observe latency; admit
// is what acts on it. Every submission first passes Admit, which either
// grants a Ticket — possibly after waiting in a priority queue where
// interactive jobs are always served before queued batch work — or
// rejects immediately with a typed *OverloadError carrying the reason and
// a Retry-After hint (cmd/pimfarm maps it to HTTP 429).
//
// Admission is observational-only with respect to simulation output: it
// decides when work enters the farm, never what the work computes, so
// served results are byte-identical to an unloaded serial run and cache
// keys are untouched.
package admit

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/obs/telem"
)

// Class is a job's priority class. Interactive work (single-frame,
// latency-sensitive) is always admitted ahead of queued Batch work
// (multi-frame sweeps), at every queueing point: the admission queue here
// and the distributed coordinator's lease queue.
type Class int

const (
	// Interactive is the latency-sensitive class (single-frame jobs).
	Interactive Class = iota
	// Batch is the throughput class (multi-frame sweeps); it yields to
	// Interactive whenever both are waiting.
	Batch
	numClasses
)

func (c Class) String() string {
	switch c {
	case Interactive:
		return "interactive"
	case Batch:
		return "batch"
	default:
		return "unknown"
	}
}

// ParseClass maps the wire spelling to a Class. The empty string is not
// accepted here — callers that infer a default (pimfarm infers Batch for
// multi-frame jobs) do so before parsing.
func ParseClass(s string) (Class, error) {
	switch s {
	case "interactive":
		return Interactive, nil
	case "batch":
		return Batch, nil
	default:
		return 0, fmt.Errorf("unknown class %q (interactive, batch)", s)
	}
}

// Reason is why an admission was refused.
type Reason int

const (
	// RateLimited: the tenant's token bucket is empty.
	RateLimited Reason = iota
	// OverQuota: the tenant already has MaxInFlight jobs admitted or
	// waiting.
	OverQuota
	// QueueFull: the class's admission wait queue is at capacity.
	QueueFull
	// Shutdown: the controller was closed.
	Shutdown
)

func (r Reason) String() string {
	switch r {
	case RateLimited:
		return "rate_limited"
	case OverQuota:
		return "over_quota"
	case QueueFull:
		return "queue_full"
	case Shutdown:
		return "shutdown"
	default:
		return "unknown"
	}
}

// ErrOverload is the sentinel every load-shed rejection wraps;
// errors.Is(err, ErrOverload) identifies a 429-able refusal regardless of
// reason.
var ErrOverload = errors.New("admit: overload")

// OverloadError is a typed load-shed rejection: which tenant was refused,
// why, and how long the client should back off before retrying.
type OverloadError struct {
	Tenant     string
	Class      Class
	Reason     Reason
	RetryAfter time.Duration
}

func (e *OverloadError) Error() string {
	return fmt.Sprintf("admit: %s: tenant %q class %s (retry after %s)",
		e.Reason, e.Tenant, e.Class, e.RetryAfter.Round(time.Millisecond))
}

// Unwrap makes errors.Is(err, ErrOverload) true for every rejection.
func (e *OverloadError) Unwrap() error { return ErrOverload }

// Defaults used when Config fields are zero.
const (
	// DefaultSlots bounds jobs concurrently admitted into the farm.
	DefaultSlots = 4
	// DefaultQueueDepth bounds each class's admission wait queue.
	DefaultQueueDepth = 256
	// DefaultRetryAfter is the back-off hint for quota and queue-full
	// rejections, where no token-refill arithmetic applies.
	DefaultRetryAfter = time.Second
)

// Config configures a Controller.
type Config struct {
	// Slots is how many admitted jobs may be inside the farm at once
	// (waiting for a worker or running). <= 0 selects DefaultSlots.
	// cmd/pimfarm defaults it to its worker count; admitted jobs then wait
	// only in the lease coordinator's queues, which keep the same class
	// order.
	Slots int
	// QueueDepth bounds each class's admission wait queue; a submission
	// arriving at a full queue is rejected immediately (QueueFull).
	// <= 0 selects DefaultQueueDepth.
	QueueDepth int
	// Tenants authorizes and bounds callers; nil selects an open set that
	// admits any tenant name under per-tenant defaults.
	Tenants *TenantSet
	// RetryAfter is the back-off hint attached to quota and queue-full
	// rejections; <= 0 selects DefaultRetryAfter. Rate-limit rejections
	// compute the exact time until the next token instead.
	RetryAfter time.Duration
	// Metrics is the live-telemetry registry admission publishes
	// pim_farm_admitted_total and friends into; nil selects
	// telem.Default().
	Metrics *telem.Registry
	// Now is the clock (tests inject a fake); nil selects time.Now.
	Now func() time.Time
}

// waiter is one submission parked in a class queue.
type waiter struct {
	tenant  string
	class   Class
	granted chan struct{} // closed when resolved (slot handed over, or shutdown)
	gone    bool          // abandoned (ctx canceled); slot must not stick
	// rejected is set (under the controller lock, before granted closes)
	// when the controller shut down instead of handing over a slot; the
	// close of granted orders the write before the waiter's read.
	rejected bool
}

// Controller is the admission gate. Safe for concurrent use.
type Controller struct {
	cfg  Config
	met  *admitMetrics
	burn burnTracker

	mu      sync.Mutex
	closed  bool
	free    int // unheld slots
	queues  [numClasses][]*waiter
	held    map[string]int     // tenant → admitted + waiting count (quota)
	buckets map[string]*bucket // tenant → token bucket
}

// bucket is a lazily refilled token bucket.
type bucket struct {
	tokens float64
	last   time.Time
}

// admitMetrics holds the admission-control telemetry instruments.
type admitMetrics struct {
	reg      *telem.Registry
	outcomes sync.Map // "tenant\x00class\x00outcome" → *telem.Counter
	rejected sync.Map // tenant → *telem.Counter
	depth    [numClasses]*telem.Gauge
	wait     [numClasses]*telem.Histogram
	burn     [numClasses][]*telem.Gauge // indexed by burnWindows position
}

func newAdmitMetrics(r *telem.Registry) *admitMetrics {
	m := &admitMetrics{reg: r}
	for c := Class(0); c < numClasses; c++ {
		m.depth[c] = r.Gauge("pim_farm_admit_queue_depth",
			"Submissions waiting in the admission queue, by class.",
			telem.Labels{"class": c.String()})
		m.wait[c] = r.Histogram("pim_farm_admission_wait_seconds",
			"Time admitted submissions waited for an admission slot, by class.",
			nil, telem.Labels{"class": c.String()})
		m.burn[c] = make([]*telem.Gauge, len(burnWindows))
		for wi, w := range burnWindows {
			m.burn[c][wi] = r.Gauge("pim_farm_slo_burn_ratio",
				"Admission-wait SLO burn ratio (miss fraction over error budget), by class and window.",
				telem.Labels{"class": c.String(), "window": w.name})
		}
	}
	return m
}

// outcome bumps pim_farm_admitted_total{tenant,class,outcome}, creating
// the series on first use (tenant names arrive at runtime, not
// registration time).
func (m *admitMetrics) outcome(tenant string, class Class, outcome string) {
	if m.reg == nil {
		return
	}
	key := tenant + "\x00" + class.String() + "\x00" + outcome
	v, ok := m.outcomes.Load(key)
	if !ok {
		v, _ = m.outcomes.LoadOrStore(key, m.reg.Counter("pim_farm_admitted_total",
			"Admission decisions by tenant, class and outcome.",
			telem.Labels{"tenant": tenant, "class": class.String(), "outcome": outcome}))
	}
	v.(*telem.Counter).Inc()
}

// reject bumps the per-tenant rejected counter alongside the outcome
// series.
func (m *admitMetrics) reject(tenant string, class Class, reason Reason) {
	m.outcome(tenant, class, "rejected_"+reason.String())
	if m.reg == nil {
		return
	}
	v, ok := m.rejected.Load(tenant)
	if !ok {
		v, _ = m.rejected.LoadOrStore(tenant, m.reg.Counter("pim_farm_admit_rejected_total",
			"Load-shed rejections by tenant (all reasons).",
			telem.Labels{"tenant": tenant}))
	}
	v.(*telem.Counter).Inc()
}

// New builds a Controller.
func New(cfg Config) *Controller {
	if cfg.Slots <= 0 {
		cfg.Slots = DefaultSlots
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = DefaultQueueDepth
	}
	if cfg.Tenants == nil {
		cfg.Tenants = OpenTenants()
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = DefaultRetryAfter
	}
	if cfg.Metrics == nil {
		cfg.Metrics = telem.Default()
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	return &Controller{
		cfg:     cfg,
		met:     newAdmitMetrics(cfg.Metrics),
		free:    cfg.Slots,
		held:    make(map[string]int),
		buckets: make(map[string]*bucket),
	}
}

// Tenants returns the controller's tenant set.
func (c *Controller) Tenants() *TenantSet { return c.cfg.Tenants }

// Ticket is one granted admission. Release returns the slot (idempotent);
// Wait reports how long admission took.
type Ticket struct {
	c      *Controller
	tenant string
	class  Class
	wait   time.Duration
	once   sync.Once
}

// Tenant returns the tenant the ticket was granted to.
func (t *Ticket) Tenant() string { return t.tenant }

// Class returns the granted priority class.
func (t *Ticket) Class() Class { return t.class }

// Wait returns the admission wait this ticket experienced.
func (t *Ticket) Wait() time.Duration { return t.wait }

// Release returns the admission slot, waking the highest-priority waiter.
// Idempotent and nil-safe.
func (t *Ticket) Release() {
	if t == nil {
		return
	}
	t.once.Do(func() { t.c.release(t.tenant) })
}

// Admit asks for one admission slot for tenant's job of the given class.
// It returns immediately when a slot is free, parks in the class's
// bounded wait queue when not (interactive waiters are always granted
// before batch waiters, regardless of arrival order), and rejects with a
// *OverloadError — wrapping ErrOverload — when the tenant is over its
// rate limit or quota or the class queue is full. ctx bounds the wait; a
// context expiry surfaces as QueueFull overload (the caller waited as
// long as it would, and the queue did not drain).
func (c *Controller) Admit(ctx context.Context, tenant *Tenant, class Class) (*Ticket, error) {
	if tenant == nil {
		return nil, errors.New("admit: nil tenant")
	}
	start := c.cfg.Now()

	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, &OverloadError{Tenant: tenant.Name, Class: class,
			Reason: Shutdown, RetryAfter: c.cfg.RetryAfter}
	}
	// Rate limit first: a token is consumed only if the bucket has one,
	// so refused submissions do not burn the tenant's budget.
	if wait, ok := c.takeTokenLocked(tenant, start); !ok {
		c.mu.Unlock()
		c.met.reject(tenant.Name, class, RateLimited)
		return nil, &OverloadError{Tenant: tenant.Name, Class: class,
			Reason: RateLimited, RetryAfter: wait}
	}
	// Quota: admitted + waiting jobs per tenant.
	if q := tenant.quota(); q > 0 && c.held[tenant.Name] >= q {
		c.mu.Unlock()
		c.met.reject(tenant.Name, class, OverQuota)
		return nil, &OverloadError{Tenant: tenant.Name, Class: class,
			Reason: OverQuota, RetryAfter: c.cfg.RetryAfter}
	}
	c.held[tenant.Name]++
	if c.free > 0 {
		c.free--
		c.mu.Unlock()
		c.met.outcome(tenant.Name, class, "admitted")
		c.met.wait[class].Observe(0)
		c.burn.record(class, 0, start)
		return &Ticket{c: c, tenant: tenant.Name, class: class}, nil
	}
	if len(c.queues[class]) >= c.cfg.QueueDepth {
		c.held[tenant.Name]--
		c.mu.Unlock()
		c.met.reject(tenant.Name, class, QueueFull)
		return nil, &OverloadError{Tenant: tenant.Name, Class: class,
			Reason: QueueFull, RetryAfter: c.cfg.RetryAfter}
	}
	w := &waiter{tenant: tenant.Name, class: class, granted: make(chan struct{})}
	c.queues[class] = append(c.queues[class], w)
	c.met.depth[class].Set(float64(c.queueLenLocked(class)))
	c.mu.Unlock()

	select {
	case <-w.granted:
		return c.resolveGrant(w, tenant.Name, class, start)
	case <-ctx.Done():
		c.mu.Lock()
		select {
		case <-w.granted:
			// Lost the race: a release granted us between ctx firing and
			// taking the lock. Keep the grant.
			c.mu.Unlock()
			return c.resolveGrant(w, tenant.Name, class, start)
		default:
		}
		w.gone = true
		c.decHeldLocked(tenant.Name)
		c.met.depth[class].Set(float64(c.queueLenLocked(class)))
		c.mu.Unlock()
		c.met.reject(tenant.Name, class, QueueFull)
		return nil, &OverloadError{Tenant: tenant.Name, Class: class,
			Reason: QueueFull, RetryAfter: c.cfg.RetryAfter}
	}
}

// resolveGrant finishes a woken waiter: a real slot becomes a ticket; a
// shutdown wake becomes the Shutdown overload error (Close already
// returned the tenant's quota hold).
func (c *Controller) resolveGrant(w *waiter, tenant string, class Class, start time.Time) (*Ticket, error) {
	if w.rejected {
		c.met.reject(tenant, class, Shutdown)
		return nil, &OverloadError{Tenant: tenant, Class: class,
			Reason: Shutdown, RetryAfter: c.cfg.RetryAfter}
	}
	wait := c.cfg.Now().Sub(start)
	c.met.outcome(tenant, class, "admitted")
	c.met.wait[class].Observe(wait.Seconds())
	c.burn.record(class, wait, c.cfg.Now())
	return &Ticket{c: c, tenant: tenant, class: class, wait: wait}, nil
}

// release returns one slot: the oldest interactive waiter gets it, then
// the oldest batch waiter, then it goes back to the free pool.
func (c *Controller) release(tenant string) {
	c.mu.Lock()
	c.decHeldLocked(tenant)
	for class := Class(0); class < numClasses; class++ {
		for len(c.queues[class]) > 0 {
			w := c.queues[class][0]
			c.queues[class] = c.queues[class][1:]
			if w.gone {
				continue
			}
			close(w.granted)
			c.met.depth[class].Set(float64(c.queueLenLocked(class)))
			c.mu.Unlock()
			return
		}
		c.met.depth[class].Set(0)
	}
	c.free++
	c.mu.Unlock()
}

// takeTokenLocked refills tenant's bucket to now and consumes one token.
// On an empty bucket it reports the wait until the next token. Caller
// holds c.mu.
func (c *Controller) takeTokenLocked(t *Tenant, now time.Time) (time.Duration, bool) {
	rate := t.rate()
	if rate <= 0 { // unlimited
		return 0, true
	}
	burst := t.burst()
	b, ok := c.buckets[t.Name]
	if !ok {
		b = &bucket{tokens: burst, last: now}
		c.buckets[t.Name] = b
	}
	if dt := now.Sub(b.last).Seconds(); dt > 0 {
		b.tokens = math.Min(burst, b.tokens+dt*rate)
	}
	b.last = now
	if b.tokens >= 1 {
		b.tokens--
		return 0, true
	}
	need := (1 - b.tokens) / rate
	return time.Duration(need * float64(time.Second)), false
}

// queueLenLocked counts live (non-abandoned) waiters in a class queue.
// Caller holds c.mu.
func (c *Controller) queueLenLocked(class Class) int {
	n := 0
	for _, w := range c.queues[class] {
		if !w.gone {
			n++
		}
	}
	return n
}

// ClassStats is one class's admission-queue view.
type ClassStats struct {
	Waiting int `json:"waiting"`
}

// Stats is a point-in-time snapshot of admission state (the "admit"
// block in pimfarm's /varz).
type Stats struct {
	Slots        int                   `json:"slots"`
	FreeSlots    int                   `json:"free_slots"`
	QueueDepth   int                   `json:"queue_depth"`
	Queues       map[string]ClassStats `json:"queues"`
	HeldByTenant map[string]int        `json:"held_by_tenant,omitempty"`
	// SLOBurn is the admission-wait burn ratio by class and window (see
	// BurnRatios); the /varz twin of pim_farm_slo_burn_ratio.
	SLOBurn map[string]map[string]float64 `json:"slo_burn,omitempty"`
}

// Stats snapshots the controller.
func (c *Controller) Stats() Stats {
	burn := c.BurnRatios()
	c.mu.Lock()
	defer c.mu.Unlock()
	s := Stats{
		SLOBurn:    burn,
		Slots:      c.cfg.Slots,
		FreeSlots:  c.free,
		QueueDepth: c.cfg.QueueDepth,
		Queues:     make(map[string]ClassStats, numClasses),
	}
	for class := Class(0); class < numClasses; class++ {
		s.Queues[class.String()] = ClassStats{Waiting: c.queueLenLocked(class)}
	}
	if len(c.held) > 0 {
		s.HeldByTenant = make(map[string]int, len(c.held))
		for t, n := range c.held {
			s.HeldByTenant[t] = n
		}
	}
	return s
}

// decHeldLocked returns one of tenant's quota holds. Caller holds c.mu.
func (c *Controller) decHeldLocked(tenant string) {
	if n := c.held[tenant]; n > 1 {
		c.held[tenant] = n - 1
	} else {
		delete(c.held, tenant)
	}
}

// Close rejects all future admissions and wakes every parked waiter with
// a Shutdown overload (their Admit calls return the error, not a ticket).
// Idempotent. Tickets already granted remain valid; their Release still
// returns slots (harmlessly, since nothing new is admitted).
func (c *Controller) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	for class := Class(0); class < numClasses; class++ {
		for _, w := range c.queues[class] {
			if w.gone {
				continue
			}
			w.gone = true
			w.rejected = true
			c.decHeldLocked(w.tenant)
			close(w.granted)
		}
		c.queues[class] = nil
		c.met.depth[class].Set(0)
	}
	c.mu.Unlock()
}
