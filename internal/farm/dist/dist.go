// Package dist runs the render farm's jobs on pull-based workers: a
// coordinator owns the job queue and hands work out under a lease
// protocol (a lease grants a job with a TTL; periodic renews keep it; an
// expired lease requeues the job for another worker), and a durable
// append-only journal lets a restarted coordinator replay queued jobs
// instead of losing them. Workers speak the protocol through a Transport:
// remote processes over HTTP (Client), or a worker inside the
// coordinator's own process by direct call (Coordinator.Local).
//
// Like internal/farm, the package is independent of the simulator: a Job
// carries an opaque JSON spec and workers return an opaque byte payload,
// so cmd/pimfarm supplies the encode/execute/decode glue (specs are
// pim-render/spec/v1 documents; payloads are pim-render/result/v1
// documents) without
// an import cycle. The coordinator plugs in as the body of a farm Task's
// Run closure: the farm keeps job lifecycle, SSE event streams,
// singleflight dedup, the memory cache and reads of the store tier; dist
// owns dispatch — where jobs wait, how workers wait for them, and the
// lease requeue that is the only way a job runs again. Because workers
// execute through core.RunPayload against a shared store directory, which
// they alone write, a result computed on any node is a warm hit
// everywhere.
package dist

import (
	"encoding/json"
	"time"

	"repro/internal/obs/dtrace"
)

// Job is one unit of distributed work handed to the coordinator.
type Job struct {
	// Key is the dedup/cache identity (core.CacheKey for render jobs).
	// Informational on this layer — the farm above dedups on it — but
	// carried to workers so their own caches key identically.
	Key string
	// Label names the job in grants and worker logs.
	Label string
	// Class is the admission priority-class label: "interactive" jobs
	// are leased ahead of queued batch work; any other value (including
	// empty) queues at batch priority.
	Class string
	// Origin is the sanitized request ID the submission arrived with;
	// grants carry it so worker log lines correlate end to end.
	Origin string
	// Trace is the job's traceparent context ("" when unsampled); grants
	// carry it and workers record spans against it.
	Trace string
	// Spec is the opaque job description a worker's Exec understands
	// (cmd/pimfarm marshals the canonical pim-render/spec/v1 document
	// here).
	Spec json.RawMessage
	// OnProgress, when non-nil, receives progress documents forwarded by
	// the executing worker (raw JSON, published verbatim onto the farm
	// job's SSE stream). Called from HTTP handler or in-process worker
	// goroutines; must be safe for concurrent use and must not block.
	OnProgress func(json.RawMessage)
}

// Outcome resolves one dispatched job.
type Outcome struct {
	// Payload is the worker-produced result document (nil on error).
	Payload []byte
	// Err is the worker-reported execution error ("" on success).
	Err string
	// Worker identifies the worker that resolved the job.
	Worker string
	// Requeues counts how many expired leases the job survived before
	// this outcome.
	Requeues int
	// Trace is the worker's half of the job's distributed trace (nil
	// when the job was unsampled or the worker predates tracing).
	Trace *dtrace.WorkerReport
	// Profile is the worker-captured pim-render/frameprofile/v1
	// document (nil unless the job asked for one and really simulated).
	Profile json.RawMessage
	// Granted/Completed are the resolving lease's coordinator-clock
	// grant and completion-receipt instants (t0 and t3 of the skew
	// estimate); zero on failure paths that never held a lease.
	Granted   time.Time
	Completed time.Time
}

// Wire types for the lease protocol. All bodies are JSON; error responses
// everywhere are {"error": "..."} with a meaningful status code, matching
// the rest of the pimfarm API.

// LeaseRequest is the POST /v1/leases body: a worker asking for work.
type LeaseRequest struct {
	// Worker is the caller's self-chosen stable identity.
	Worker string `json:"worker"`
}

// Grant is a granted lease: one job plus the TTL the worker must renew
// within. A 204 response means the coordinator's wait cap passed with no
// job queued.
type Grant struct {
	Lease string          `json:"lease"`
	Job   string          `json:"job"`
	Key   string          `json:"key,omitempty"`
	Label string          `json:"label,omitempty"`
	Class string          `json:"class,omitempty"`
	Spec  json.RawMessage `json:"spec"`
	// TTLMillis is the lease duration; the worker should renew at a
	// comfortable fraction of it (the bundled Worker renews at TTL/3).
	TTLMillis int64 `json:"ttl_ms"`
	// Origin is the submission's sanitized request ID, for worker logs.
	Origin string `json:"origin,omitempty"`
	// Trace is the job's traceparent context ("" when unsampled).
	Trace string `json:"trace,omitempty"`
	// GrantUnixUS is the coordinator-clock grant instant (t0 of the
	// clock-skew estimate), Unix microseconds.
	GrantUnixUS int64 `json:"grant_unix_us,omitempty"`

	// lost is closed when the coordinator drops the lease (abandoned,
	// expired or shut down). Only grants handed out in-process carry it;
	// a remote worker learns the same thing from its next renew.
	lost <-chan struct{}
}

// TTL returns the grant's lease duration.
func (g *Grant) TTL() time.Duration { return time.Duration(g.TTLMillis) * time.Millisecond }

// RenewRequest is the POST /v1/leases/{id}/renew body (heartbeat).
type RenewRequest struct {
	Worker string `json:"worker"`
}

// ProgressRequest is the POST /v1/leases/{id}/progress body: one progress
// document to forward onto the job's event stream.
type ProgressRequest struct {
	Worker string          `json:"worker"`
	Data   json.RawMessage `json:"data"`
}

// CompleteRequest is the POST /v1/leases/{id}/complete body: the job's
// result payload (base64 over JSON) or execution error.
type CompleteRequest struct {
	Worker  string `json:"worker"`
	Payload []byte `json:"payload,omitempty"`
	Error   string `json:"error,omitempty"`
	// Trace is the worker's span report for the job: its grant-receive
	// and send stamps (worker clock) plus the spans it recorded. Nil
	// when the grant carried no sampled context.
	Trace *dtrace.WorkerReport `json:"trace,omitempty"`
	// Profile is the frame-anatomy document the job captured, when it
	// asked for one (opaque here, like the payload).
	Profile json.RawMessage `json:"profile,omitempty"`
}

// WorkerView is one worker's liveness record (the GET /v1/workers body
// carries a list of these).
type WorkerView struct {
	ID        string    `json:"id"`
	Live      bool      `json:"live"`
	FirstSeen time.Time `json:"first_seen"`
	LastSeen  time.Time `json:"last_seen"`
	// ActiveLeases is how many leases the worker currently holds.
	ActiveLeases int `json:"active_leases"`
	// Completed / Failed count jobs the worker resolved; Expired counts
	// leases the coordinator reclaimed from it.
	Completed uint64 `json:"completed"`
	Failed    uint64 `json:"failed"`
	Expired   uint64 `json:"expired"`
}

// LeaseOps is the cumulative lease-operation counters (mirrored into the
// pim_farm_lease_ops_total metric).
type LeaseOps struct {
	Grants   uint64 `json:"grants"`
	Renews   uint64 `json:"renews"`
	Expires  uint64 `json:"expires"`
	Requeues uint64 `json:"requeues"`
}

// Stats is a point-in-time snapshot of coordinator state (the "workers"
// block in pimfarm's /varz).
type Stats struct {
	Queued int `json:"queued"`
	// QueuedByClass splits Queued into the coordinator's two lease
	// queues ("interactive" is always drained first).
	QueuedByClass map[string]int `json:"queued_by_class,omitempty"`
	Leased        int            `json:"leased"`
	WorkersLive   int            `json:"workers_live"`
	LeaseOps      LeaseOps       `json:"lease_ops"`
	Workers       []WorkerView   `json:"workers,omitempty"`
}
