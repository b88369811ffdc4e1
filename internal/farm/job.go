package farm

import (
	"context"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/dtrace"
)

// State is a job's position in the queued → running → done lifecycle.
type State int

const (
	// Queued: accepted, not yet running (a dedup follower stays here
	// until its leader finishes).
	Queued State = iota
	// Running: the task is executing.
	Running
	// Done: finished successfully; Value holds the result.
	Done
	// Failed: the task's one run returned an error.
	Failed
	// Canceled: the farm shut down before the job could run, or the job
	// was canceled (Farm.Cancel) while queued or running.
	Canceled
)

func (s State) String() string {
	switch s {
	case Queued:
		return "queued"
	case Running:
		return "running"
	case Done:
		return "done"
	case Failed:
		return "failed"
	case Canceled:
		return "canceled"
	default:
		return "unknown"
	}
}

// Terminal reports whether the state is final.
func (s State) Terminal() bool { return s == Done || s == Failed || s == Canceled }

// Event capacities. The subscriber channel is deeper than the replay log
// so preloading history into a fresh subscription can never block.
const (
	// evLogCap bounds the per-job replay ring: a late subscriber sees at
	// most this many historical events before the live tail.
	evLogCap = 256
	// evSubChanCap is each subscriber channel's buffer; a subscriber this
	// far behind loses events rather than stalling the publisher.
	evSubChanCap = 512
)

// Event is one entry in a job's lifecycle/progress stream (what pimfarm
// serves over GET /v1/jobs/{id}/events). Seq increases by one per event
// within a job, so consumers can detect drops.
type Event struct {
	Seq  int64     `json:"seq"`
	Type string    `json:"type"` // "state", "progress", ...
	Time time.Time `json:"time"`
	Data any       `json:"data,omitempty"`
}

// Job is one submitted task tracked through its lifecycle. All fields are
// guarded; read them through the accessor methods or View.
type Job struct {
	id        string
	label     string
	key       string
	origin    string
	tenant    string
	class     string
	admitWait time.Duration
	trace     string
	meta      any
	run       func(ctx context.Context) (any, error)

	// ctx is the job's execution context, derived from the farm's root at
	// submission; cancel aborts this job alone (Farm.Cancel).
	ctx    context.Context
	cancel context.CancelFunc

	mu       sync.Mutex
	state    State
	value    any
	err      error
	deduped  bool
	cacheHit bool
	tierHit  bool
	canceled bool // Farm.Cancel was called before the job finished
	enqueued time.Time
	started  time.Time
	finished time.Time
	// What the run produced besides the result, dropped at the retention
	// age: the frame-anatomy profile and the distributed-trace timeline.
	profile  *obs.FrameProfile
	timeline *dtrace.Timeline

	done chan struct{}

	// Event stream state, under its own lock so publishers (execution
	// goroutines, progress callbacks) never contend with job-state reads.
	evMu     sync.Mutex
	evSeq    int64
	evLog    []Event
	evSubs   map[chan Event]struct{}
	evClosed bool
}

// ID returns the farm-assigned job identifier.
func (j *Job) ID() string { return j.id }

// Label returns the human-readable task label.
func (j *Job) Label() string { return j.label }

// Key returns the dedup/cache key ("" when the task opted out).
func (j *Job) Key() string { return j.key }

// Meta returns the caller payload attached at submission.
func (j *Job) Meta() any { return j.meta }

// Origin returns the request origin tag attached at submission ("" when
// the caller set none).
func (j *Job) Origin() string { return j.origin }

// Tenant returns the tenant the job was admitted for ("" when admission
// control is not in front of this farm).
func (j *Job) Tenant() string { return j.tenant }

// Class returns the job's priority class label ("" when unset).
func (j *Job) Class() string { return j.class }

// AdmitWait returns how long the submission waited in the admission
// queue before entering the farm (zero when admission was immediate or
// absent).
func (j *Job) AdmitWait() time.Duration { return j.admitWait }

// Trace returns the job's traceparent context ("" when unsampled).
func (j *Job) Trace() string { return j.trace }

// SetProfile attaches the frame profile the job's run captured.
func (j *Job) SetProfile(p *obs.FrameProfile) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.profile = p
}

// Profile returns the job's frame profile, or nil when its run captured
// none or the profile has expired.
func (j *Job) Profile() *obs.FrameProfile {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.profile
}

// SetTimeline attaches the trace timeline of the job's run.
func (j *Job) SetTimeline(tl *dtrace.Timeline) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.timeline = tl
}

// Timeline returns the job's trace timeline, or nil when the job was not
// sampled, never ran, or the timeline has expired.
func (j *Job) Timeline() *dtrace.Timeline {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.timeline
}

// Publish appends an event to the job's stream: it is recorded in the
// bounded replay ring and fanned out to live subscribers (a subscriber
// whose buffer is full loses the event rather than blocking the
// publisher). Publishing to a job whose stream has closed is a no-op.
// Safe for concurrent use; task Run closures may call it freely.
func (j *Job) Publish(typ string, data any) {
	j.evMu.Lock()
	defer j.evMu.Unlock()
	if j.evClosed {
		return
	}
	j.evSeq++
	ev := Event{Seq: j.evSeq, Type: typ, Time: time.Now(), Data: data}
	j.evLog = append(j.evLog, ev)
	if len(j.evLog) > evLogCap {
		j.evLog = append(j.evLog[:0], j.evLog[len(j.evLog)-evLogCap:]...)
	}
	for ch := range j.evSubs {
		select {
		case ch <- ev:
		default: // slow subscriber: drop rather than stall
		}
	}
}

// publishState emits a "state" event carrying the job's current View.
func (j *Job) publishState() { j.Publish("state", j.View()) }

// Subscribe returns a channel of the job's events, starting with a replay
// of the retained history, and a cancel func releasing the subscription.
// The channel is closed when the job reaches a terminal state (after the
// terminal "state" event is delivered) or when cancel is called.
// Subscribing to an already-terminal job replays history and returns an
// already-closed channel.
func (j *Job) Subscribe() (<-chan Event, func()) {
	j.evMu.Lock()
	ch := make(chan Event, evSubChanCap)
	for _, ev := range j.evLog {
		ch <- ev // buffer cap exceeds evLogCap; never blocks
	}
	if j.evClosed {
		close(ch)
		j.evMu.Unlock()
		return ch, func() {}
	}
	if j.evSubs == nil {
		j.evSubs = make(map[chan Event]struct{})
	}
	j.evSubs[ch] = struct{}{}
	j.evMu.Unlock()
	cancel := func() {
		j.evMu.Lock()
		if _, ok := j.evSubs[ch]; ok {
			delete(j.evSubs, ch)
			close(ch)
		}
		j.evMu.Unlock()
	}
	return ch, cancel
}

// closeEvents marks the stream terminal and closes every subscriber
// channel. Later Publish and Subscribe calls observe the closed state.
func (j *Job) closeEvents() {
	j.evMu.Lock()
	j.evClosed = true
	for ch := range j.evSubs {
		close(ch)
	}
	j.evSubs = nil
	j.evMu.Unlock()
}

// expire drops what a job that finished before cut holds beyond its
// outcome: the profile, the timeline and the SSE progress trail. The
// janitor calls it on every retained job with cut = now − Retention.
func (j *Job) expire(cut time.Time) {
	j.mu.Lock()
	stale := j.state.Terminal() && !j.finished.IsZero() && j.finished.Before(cut)
	if stale {
		j.profile, j.timeline = nil, nil
	}
	j.mu.Unlock()
	if stale {
		j.compactEvents()
	}
}

// compactEvents shrinks a terminal job's replay ring to its final event
// (the terminal "state" record), so long-retained finished jobs stop
// holding their full progress history. A late SSE subscriber still sees
// the job's outcome followed by the stream's "end" event; only the
// per-frame progress trail is gone. No-op while the stream is live.
func (j *Job) compactEvents() {
	j.evMu.Lock()
	defer j.evMu.Unlock()
	if !j.evClosed || len(j.evLog) <= 1 {
		return
	}
	j.evLog = append([]Event(nil), j.evLog[len(j.evLog)-1])
}

// State returns the current lifecycle state.
func (j *Job) State() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Wait blocks until the job finishes or ctx is canceled, returning the
// task's value and error.
func (j *Job) Wait(ctx context.Context) (any, error) {
	select {
	case <-j.done:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.value, j.err
}

// Result returns the value and error of a finished job (zero values while
// the job is still pending).
func (j *Job) Result() (any, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.value, j.err
}

// isCanceled reports whether Farm.Cancel targeted this job.
func (j *Job) isCanceled() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.canceled
}

// View is a point-in-time, JSON-marshalable summary of a job (what
// pimfarm's GET /v1/jobs endpoints return, minus the result body).
type View struct {
	ID     string `json:"id"`
	Label  string `json:"label,omitempty"`
	Key    string `json:"key,omitempty"`
	Origin string `json:"origin,omitempty"`
	// Tenant and Class identify who the job was admitted for and at what
	// priority; AdmitWaitMS is the time the submission spent in the
	// admission queue (the SLO quantity cmd/pimload aggregates).
	Tenant      string  `json:"tenant,omitempty"`
	Class       string  `json:"class,omitempty"`
	AdmitWaitMS float64 `json:"admit_wait_ms,omitempty"`
	// TraceID is the job's distributed-trace ID (GET /v1/jobs/{id}/trace
	// serves the assembled timeline); empty when the job was unsampled.
	TraceID  string     `json:"trace_id,omitempty"`
	State    string     `json:"state"`
	Error    string     `json:"error,omitempty"`
	Deduped  bool       `json:"deduped,omitempty"`
	CacheHit bool       `json:"cache_hit,omitempty"`
	TierHit  bool       `json:"tier_hit,omitempty"`
	Enqueued time.Time  `json:"enqueued"`
	Started  *time.Time `json:"started,omitempty"`
	Finished *time.Time `json:"finished,omitempty"`
}

// traceID extracts the trace-ID component of a traceparent context.
func traceID(trace string) string {
	c, ok := dtrace.Parse(trace)
	if !ok {
		return ""
	}
	return c.TraceID
}

// View snapshots the job.
func (j *Job) View() View {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := View{
		ID:          j.id,
		Label:       j.label,
		Key:         j.key,
		Origin:      j.origin,
		Tenant:      j.tenant,
		Class:       j.class,
		AdmitWaitMS: float64(j.admitWait) / float64(time.Millisecond),
		TraceID:     traceID(j.trace),
		State:       j.state.String(),
		Deduped:     j.deduped,
		CacheHit:    j.cacheHit,
		TierHit:     j.tierHit,
		Enqueued:    j.enqueued,
	}
	if j.err != nil {
		v.Error = j.err.Error()
	}
	if !j.started.IsZero() {
		t := j.started
		v.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		v.Finished = &t
	}
	return v
}
