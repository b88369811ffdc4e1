package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/farm"
	"repro/internal/farm/admit"
	"repro/internal/farm/dist"
	"repro/internal/obs"
	"repro/internal/obs/dtrace"
	"repro/internal/obs/slogx"
	"repro/internal/obs/telem"
	"repro/internal/store"
	"repro/internal/suite"
)

// The POST /v1/jobs body is the canonical pim-render/spec/v1 simulation
// spec (suite.Spec): the same document pimsim flags build, suite files
// embed per case, dist lease grants carry, and the journal records —
// one wire format, one Spec → core.Options/CacheKey mapping.

// specClass resolves a spec's admission class, inferring one when unset:
// a multi-frame sweep is batch work, a single frame is interactive.
// Class inference is serving policy, so it lives here, not in the spec.
func specClass(sp *suite.Spec) (admit.Class, error) {
	if sp.Class == "" {
		if sp.Frames > 1 {
			return admit.Batch, nil
		}
		return admit.Interactive, nil
	}
	return admit.ParseClass(sp.Class)
}

// jobResponse is the GET /v1/jobs/{id} body: lifecycle view, the original
// request, and — once the job is done — the pim-render/metrics/v1 snapshot.
type jobResponse struct {
	farm.View
	Request *suite.Spec   `json:"request,omitempty"`
	Result  *obs.Snapshot `json:"result,omitempty"`
}

// server is the pimfarm HTTP API over one Farm, the coordinator that
// executes its jobs and, optionally, the durable result store backing it.
type server struct {
	farm    *farm.Farm
	store   *store.Store
	mux     *http.ServeMux
	log     *slog.Logger
	metrics *telem.Registry
	pprofOn bool
	reqSeq  atomic.Uint64

	// coord executes every job: Run closures enqueue on it and block for
	// a worker's outcome — the in-process worker in local mode, remote
	// `pimfarm worker` processes under -dist. journal, when set, makes
	// accepted jobs durable — every submission appends an enqueue record
	// and every settled job a terminal record, so a restarted server
	// replays what was in flight.
	coord    *dist.Coordinator
	journal  *dist.Journal
	settling sync.WaitGroup // settleJournal goroutines not yet written

	// admit, when set (enableAdmit), gates every POST /v1/jobs through
	// multi-tenant admission control: per-tenant rate limits and quotas,
	// class-ordered bounded queueing, and 429 + Retry-After load shedding.
	// admitTimeout bounds how long one submission may park in the
	// admission queue before it is shed as queue-full.
	admit        *admit.Controller
	admitTimeout time.Duration

	// Distributed tracing (see trace.go). traceSample is the fraction of
	// jobs minted a sampled trace context at submission; tsum aggregates
	// stage durations for GET /v1/traces/summary. Each job's timeline and
	// frame profile live on its farm.Job.
	traceSample float64
	tsum        *dtrace.Summary

	// suites tracks accepted suite runs (POST /v1/suites): each is a
	// batch of ordinary farm jobs plus the grouping needed for the
	// suite-level roll-up views. See suites.go.
	suites suiteState
}

// newServer builds the API handler (httptest mounts it directly) over
// farm f, whose jobs coord executes; st may be nil when the farm runs
// without persistence. The lease-protocol and worker-introspection
// endpoints are mounted too, so remote workers can always attach. The
// logger defaults to discard and the metrics registry to the process
// default; main overrides them via the exported fields before serving.
func newServer(f *farm.Farm, st *store.Store, coord *dist.Coordinator) *server {
	s := &server{
		farm:        f,
		store:       st,
		coord:       coord,
		mux:         http.NewServeMux(),
		log:         slogx.Discard(),
		metrics:     telem.Default(),
		traceSample: 1,
		tsum:        dtrace.NewSummary(0, 0),
	}
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs", s.handleList)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleGet)
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	s.mux.HandleFunc("GET /v1/jobs/{id}/profile", s.handleProfile)
	s.mux.HandleFunc("GET /v1/jobs/{id}/trace", s.handleJobTrace)
	s.mux.HandleFunc("GET /v1/traces/summary", s.handleTraceSummary)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	s.mux.HandleFunc("POST /v1/suites", s.handleSuiteSubmit)
	s.mux.HandleFunc("GET /v1/suites", s.handleSuiteList)
	s.mux.HandleFunc("GET /v1/suites/{id}", s.handleSuiteGet)
	s.mux.HandleFunc("GET /v1/suites/{id}/events", s.handleSuiteEvents)
	s.mux.HandleFunc("GET /v1/experiments", s.handleExperiments)
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /varz", s.handleVarz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("/debug/pprof/", s.handlePprof)
	coord.Routes(s.mux)
	// Method-less fallbacks: a known path with the wrong verb answers a JSON
	// 405 with Allow, and anything else a JSON 404 — clients always get a
	// machine-readable error body.
	s.mux.HandleFunc("/v1/jobs", methodNotAllowed("GET, POST"))
	s.mux.HandleFunc("/v1/jobs/{id}", methodNotAllowed("GET, DELETE"))
	s.mux.HandleFunc("/v1/jobs/{id}/events", methodNotAllowed("GET"))
	s.mux.HandleFunc("/v1/jobs/{id}/profile", methodNotAllowed("GET"))
	s.mux.HandleFunc("/v1/jobs/{id}/trace", methodNotAllowed("GET"))
	s.mux.HandleFunc("/v1/traces/summary", methodNotAllowed("GET"))
	s.mux.HandleFunc("/v1/suites", methodNotAllowed("GET, POST"))
	s.mux.HandleFunc("/v1/suites/{id}", methodNotAllowed("GET"))
	s.mux.HandleFunc("/v1/suites/{id}/events", methodNotAllowed("GET"))
	s.mux.HandleFunc("/v1/experiments", methodNotAllowed("GET"))
	s.mux.HandleFunc("/healthz", methodNotAllowed("GET"))
	s.mux.HandleFunc("/varz", methodNotAllowed("GET"))
	s.mux.HandleFunc("/metrics", methodNotAllowed("GET"))
	s.mux.HandleFunc("/v1/leases", methodNotAllowed("POST"))
	s.mux.HandleFunc("/v1/leases/{id}/renew", methodNotAllowed("POST"))
	s.mux.HandleFunc("/v1/leases/{id}/progress", methodNotAllowed("POST"))
	s.mux.HandleFunc("/v1/leases/{id}/complete", methodNotAllowed("POST"))
	s.mux.HandleFunc("/v1/workers", methodNotAllowed("GET"))
	s.mux.HandleFunc("/", handleUnknown)
	return s
}

// localWorker builds the in-process worker of local mode: slots lease
// loops on the coordinator's in-process transport, executing through
// execGrant exactly as a remote worker does.
func (s *server) localWorker(slots int) *dist.Worker {
	return &dist.Worker{Client: s.coord.Local("in-process"), Slots: slots, Log: s.log, Exec: execGrant}
}

// enableAdmit puts the admission controller in front of job submission.
// timeout bounds the in-queue wait per submission (<= 0 selects
// DefaultAdmitTimeout). Admission is scheduling-only: it decides when and
// whether a job enters the farm, never what it computes, so results stay
// byte-identical to an unadmitted run.
func (s *server) enableAdmit(c *admit.Controller, timeout time.Duration) {
	if timeout <= 0 {
		timeout = DefaultAdmitTimeout
	}
	s.admit = c
	s.admitTimeout = timeout
}

// DefaultAdmitTimeout bounds how long a submission may wait in the
// admission queue before it is shed with 429.
const DefaultAdmitTimeout = 30 * time.Second

// reqIDKey carries the request ID in the request context so error bodies
// (httpError) can echo it without replumbing every handler signature.
type reqIDKey struct{}

// requestID returns the ID ServeHTTP assigned this request ("" outside
// the middleware, e.g. direct handler tests).
func requestID(r *http.Request) string {
	id, _ := r.Context().Value(reqIDKey{}).(string)
	return id
}

// sanitizeRequestID validates a client-supplied X-Request-ID: short and
// header/log-safe, or "" to mint a fresh one.
func sanitizeRequestID(id string) string {
	if len(id) == 0 || len(id) > 64 {
		return ""
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '-', c == '_', c == '.', c == ':':
		default:
			return ""
		}
	}
	return id
}

// ServeHTTP stamps every request with an ID — honoring a well-formed
// client-supplied X-Request-ID so callers can correlate retries — answers
// it in the X-Request-ID response header and in every JSON error body,
// carries a request-scoped logger in the context, and logs one structured
// line per request with the status and duration.
func (s *server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	reqID := sanitizeRequestID(r.Header.Get("X-Request-ID"))
	if reqID == "" {
		reqID = fmt.Sprintf("r-%06d", s.reqSeq.Add(1))
	}
	log := s.log.With("req", reqID)
	w.Header().Set("X-Request-ID", reqID)
	sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
	start := time.Now()
	ctx := context.WithValue(slogx.WithLogger(r.Context(), log), reqIDKey{}, reqID)
	r = r.WithContext(ctx)
	s.mux.ServeHTTP(sw, r)
	log.Info("request", "method", r.Method, "path", r.URL.Path,
		"status", sw.status, "dur", time.Since(start).Round(time.Microsecond).String())
}

// statusWriter records the response status for the request log. It
// forwards Flush so streaming handlers (SSE) keep working through the
// middleware.
type statusWriter struct {
	http.ResponseWriter
	status int
	wrote  bool
}

func (w *statusWriter) WriteHeader(status int) {
	if !w.wrote {
		w.status = status
		w.wrote = true
	}
	w.ResponseWriter.WriteHeader(status)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	w.wrote = true
	return w.ResponseWriter.Write(p)
}

func (w *statusWriter) Flush() {
	if fl, ok := w.ResponseWriter.(http.Flusher); ok {
		fl.Flush()
	}
}

func (s *server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req suite.Spec
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		httpError(w, r, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return
	}
	class, err := specClass(&req)
	if err != nil {
		httpError(w, r, http.StatusBadRequest, err)
		return
	}
	task, err := s.buildTask(&req, requestID(r))
	if err != nil {
		httpError(w, r, http.StatusBadRequest, err)
		return
	}
	task.Class = class.String()

	// Admission: authenticate the tenant, then hold a slot (parking in the
	// class-ordered queue under load). Rejections — over rate, over quota,
	// queue full, or wait timed out — shed with 429 + Retry-After before
	// the job is journaled or enters the farm. The ticket is held until
	// the job settles, so per-tenant quotas bound work in flight, not
	// merely submissions.
	var ticket *admit.Ticket
	if s.admit != nil {
		tenant, err := s.resolveTenant(r)
		if err != nil {
			httpError(w, r, http.StatusUnauthorized, err)
			return
		}
		actx, cancel := context.WithTimeout(r.Context(), s.admitTimeout)
		ticket, err = s.admit.Admit(actx, tenant, class)
		cancel()
		if err != nil {
			writeOverload(w, r, err)
			return
		}
		task.Tenant = ticket.Tenant()
		task.AdmitWait = ticket.Wait()
	}

	job, err := s.submit(task, &req)
	if err != nil {
		if ticket != nil {
			ticket.Release()
		}
		submitError(w, r, err)
		return
	}
	if ticket != nil {
		t := ticket
		go func() {
			<-job.Done()
			t.Release()
		}()
	}

	// ?wait=true turns the submit synchronous: the response carries the
	// finished job (metrics included). A client that hangs up while
	// waiting cancels the job — abandoned work is abandoned promptly.
	if r.URL.Query().Get("wait") == "true" {
		if _, err := job.Wait(r.Context()); err != nil && r.Context().Err() != nil {
			s.farm.Cancel(job.ID())
			httpError(w, r, http.StatusRequestTimeout, fmt.Errorf("client went away: %w", err))
			return
		}
		s.writeJob(w, http.StatusOK, job)
		return
	}
	writeJSON(w, http.StatusAccepted, jobResponse{View: job.View(), Request: &req})
}

// submitError renders a failed farm submission: 503 while the farm shuts
// down, 500 otherwise (a journal that cannot record the job).
func submitError(w http.ResponseWriter, r *http.Request, err error) {
	if errors.Is(err, farm.ErrClosed) {
		httpError(w, r, http.StatusServiceUnavailable, errors.New("farm is shutting down"))
		return
	}
	httpError(w, r, http.StatusInternalServerError, err)
}

// resolveTenant authenticates the submission against the admission
// controller's tenant set: an API key from "Authorization: Bearer <key>"
// (key wins), or a bare ?tenant= name for unkeyed/dev tenants.
func (s *server) resolveTenant(r *http.Request) (*admit.Tenant, error) {
	var key string
	if h := r.Header.Get("Authorization"); h != "" {
		bearer, ok := strings.CutPrefix(h, "Bearer ")
		if !ok {
			return nil, errors.New("authorization header must be \"Bearer <api-key>\"")
		}
		key = strings.TrimSpace(bearer)
	}
	return s.admit.Tenants().Authorize(key, r.URL.Query().Get("tenant"))
}

// writeOverload renders an admission rejection: HTTP 429 with a
// Retry-After header (whole seconds, rounded up) and a machine-readable
// body carrying the precise back-off and reason.
func writeOverload(w http.ResponseWriter, r *http.Request, err error) {
	var oe *admit.OverloadError
	if !errors.As(err, &oe) {
		httpError(w, r, http.StatusServiceUnavailable, err)
		return
	}
	secs := int(math.Ceil(oe.RetryAfter.Seconds()))
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	writeJSON(w, http.StatusTooManyRequests, map[string]any{
		"error":          oe.Error(),
		"reason":         oe.Reason.String(),
		"tenant":         oe.Tenant,
		"class":          oe.Class.String(),
		"retry_after_ms": oe.RetryAfter.Milliseconds(),
		"request_id":     requestID(r),
	})
}

// buildTask resolves the spec through the canonical Spec → Options/
// CacheKey mapping and assembles the farm task, whose Run closure
// dispatches the job to a worker through the coordinator. The farm keeps
// everything else about the job: dedup key, SSE lifecycle and cache
// tiers.
func (s *server) buildTask(req *suite.Spec, origin string) (farm.Task, error) {
	rv, err := req.Resolve()
	if err != nil {
		return farm.Task{}, err
	}
	t := farm.Task{
		Key:    rv.Key,
		Label:  req.Label(),
		Origin: origin,
		Meta:   req,
	}
	// Mint the distributed-trace context, seeded from the origin (the
	// sanitized X-Request-ID, or "journal:<rec>" for replays — a replayed
	// job always gets a fresh trace root, never its ancestor's). Unsampled
	// jobs carry no context at all: zero spans recorded anywhere.
	if tc := dtrace.Mint(origin, s.traceSample); tc.Sampled {
		t.Trace = tc.String()
	}
	t.Run = s.dispatch(req, t.Key, t.Label)
	return t, nil
}

// dispatch hands the job to a worker through the coordinator and blocks
// until a worker delivers the outcome. Worker progress documents are
// republished onto the job's SSE stream (GET /v1/jobs/{id}/events), and a
// captured frame profile is set on the job for GET /v1/jobs/{id}/profile.
// Lease expiries (worker crashed or stalled) requeue inside the
// coordinator without returning from Run; that requeue is the only way a
// job runs again. The job's context is canceled by DELETE
// /v1/jobs/{id}, by a waiting client disconnecting, or on forced
// shutdown; canceling abandons the dispatch, which invalidates any
// outstanding lease so the worker stops.
func (s *server) dispatch(req *suite.Spec, key, label string) func(context.Context) (any, error) {
	return func(runCtx context.Context) (any, error) {
		spec, err := json.Marshal(req)
		if err != nil {
			return nil, fmt.Errorf("dist: encode spec: %w", err)
		}
		j, _ := farm.JobFromContext(runCtx) // the farm runs every task with its job in context
		enqStart := time.Now()
		id, ch, err := s.coord.Enqueue(dist.Job{
			Key: key, Label: label, Class: j.Class(), Spec: spec,
			Origin: j.Origin(), Trace: j.Trace(),
			OnProgress: func(raw json.RawMessage) { j.Publish("progress", raw) },
		})
		if err != nil {
			return nil, err
		}
		select {
		case o := <-ch:
			if tc, ok := dtrace.Parse(j.Trace()); ok && tc.Sampled {
				s.recordTrace(j, tc, &o, enqStart)
			}
			if o.Err != "" {
				return nil, fmt.Errorf("dist: worker %s: %s", o.Worker, o.Err)
			}
			res, err := core.DecodeResultPayload(key, o.Payload)
			if err != nil {
				return nil, fmt.Errorf("dist: worker %s result: %w", o.Worker, err)
			}
			if len(o.Profile) > 0 {
				// The profile is a side artifact: a bad one is logged and
				// dropped, never allowed to fail a good result.
				if fp, err := obs.ReadFrameProfile(bytes.NewReader(o.Profile)); err != nil {
					s.log.Error("worker profile", "job", j.ID(), "worker", o.Worker, "err", err.Error())
				} else {
					j.SetProfile(fp)
				}
			}
			return res, nil
		case <-runCtx.Done():
			s.coord.Abandon(id)
			return nil, runCtx.Err()
		}
	}
}

// submit journals the job (when a journal is attached) and submits it to
// the farm. The journal record is settled when the job reaches a terminal
// state; a job accepted but never settled — the coordinator died first —
// replays on the next start.
func (s *server) submit(t farm.Task, req *suite.Spec) (*farm.Job, error) {
	var recID string
	if s.journal != nil {
		spec, err := json.Marshal(req)
		if err == nil {
			recID, err = s.journal.Enqueue(t.Key, t.Label, spec)
		}
		if err != nil {
			// Durability is the journal's whole point: refuse the job
			// rather than accept it on a dead disk.
			return nil, fmt.Errorf("journal: %w", err)
		}
	}
	job, err := s.farm.Submit(t)
	if err != nil {
		if recID != "" {
			if terr := s.journal.Terminal(recID, dist.OpCanceled); terr != nil {
				s.log.Error("journal terminal", "rec", recID, "err", terr.Error())
			}
		}
		return nil, err
	}
	if recID != "" {
		s.settling.Add(1)
		go s.settleJournal(job, recID)
	}
	return job, nil
}

// settleJournal writes the journal terminal record once the job settles,
// mapping the farm state to the journal op.
func (s *server) settleJournal(job *farm.Job, recID string) {
	defer s.settling.Done()
	<-job.Done()
	op := dist.OpDone
	switch job.State() {
	case farm.Failed:
		op = dist.OpFailed
	case farm.Canceled:
		op = dist.OpCanceled
	}
	if err := s.journal.Terminal(recID, op); err != nil {
		s.log.Error("journal terminal", "rec", recID, "err", err.Error())
	}
}

// replayJournal resubmits the journal's pending records — jobs that were
// queued or leased when the previous coordinator process died. Each
// replayed job settles the same journal record its original submission
// opened, so recovery is exactly-once: a record replays until some
// incarnation of the job reaches a terminal state, and never again after.
// Records whose spec no longer parses (simulator evolved across the
// restart) are settled as failed rather than wedging the journal.
func (s *server) replayJournal() {
	if s.journal == nil {
		return
	}
	pend := s.journal.Pending()
	if len(pend) == 0 {
		return
	}
	recovered := 0
	for _, rec := range pend {
		var req suite.Spec
		if err := json.Unmarshal(rec.Spec, &req); err != nil {
			s.log.Error("journal replay: bad spec", "rec", rec.ID, "err", err.Error())
			_ = s.journal.Terminal(rec.ID, dist.OpFailed)
			continue
		}
		task, err := s.buildTask(&req, "journal:"+rec.ID)
		if err != nil {
			s.log.Error("journal replay: stale job", "rec", rec.ID, "err", err.Error())
			_ = s.journal.Terminal(rec.ID, dist.OpFailed)
			continue
		}
		job, err := s.farm.Submit(task)
		if err != nil {
			// Leave the record pending: the next restart retries it.
			s.log.Error("journal replay: submit", "rec", rec.ID, "err", err.Error())
			continue
		}
		s.settling.Add(1)
		go s.settleJournal(job, rec.ID)
		recovered++
	}
	s.log.Info("journal replay", "pending", len(pend), "recovered", recovered)
}

func (s *server) handleList(w http.ResponseWriter, r *http.Request) {
	jobs := s.farm.Jobs()
	views := make([]farm.View, 0, len(jobs))
	for _, j := range jobs {
		views = append(views, j.View())
	}
	writeJSON(w, http.StatusOK, map[string]any{"jobs": views})
}

func (s *server) handleGet(w http.ResponseWriter, r *http.Request) {
	j, ok := s.farm.Job(r.PathValue("id"))
	if !ok {
		httpError(w, r, http.StatusNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
		return
	}
	s.writeJob(w, http.StatusOK, j)
}

// handleCancel is DELETE /v1/jobs/{id}: cancel a job waiting for or
// running on a worker. Unknown ids answer 404; jobs already terminal
// answer 409 (their outcome is settled); a successful cancellation answers
// 200 with the job view once the job has settled — the dispatch returns as
// soon as its context ends, so that wait is brief.
func (s *server) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j, ok := s.farm.Job(id)
	if !ok {
		httpError(w, r, http.StatusNotFound, fmt.Errorf("unknown job %q", id))
		return
	}
	if !s.farm.Cancel(id) {
		httpError(w, r, http.StatusConflict,
			fmt.Errorf("job %s already %s", id, j.State()))
		return
	}
	select {
	case <-j.Done():
	case <-r.Context().Done():
	}
	s.writeJob(w, http.StatusOK, j)
}

// handleExperiments is GET /v1/experiments: the paper's figure/table
// catalog in presentation order (the names Registry().Run accepts).
func (s *server) handleExperiments(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"experiments": repro.Registry().Names()})
}

// writeJob renders the full job response: lifecycle view, original
// request, and the metrics snapshot once the job is done.
func (s *server) writeJob(w http.ResponseWriter, status int, j *farm.Job) {
	resp := jobResponse{View: j.View()}
	if req, ok := j.Meta().(*suite.Spec); ok {
		resp.Request = req
	}
	if v, err := j.Result(); err == nil {
		if res, ok := v.(*core.Result); ok {
			resp.Result = res.Metrics()
		}
	}
	writeJSON(w, status, resp)
}

// handleProfile is GET /v1/jobs/{id}/profile: the job's captured
// pim-render/frameprofile/v1 artifact. 404 when the job is unknown, was
// not submitted with "profile": true, is not finished, was served from a
// cache tier (profiles exist only for jobs that really simulated), or the
// profile expired with the job's retention.
func (s *server) handleProfile(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j, ok := s.farm.Job(id)
	if !ok {
		httpError(w, r, http.StatusNotFound, fmt.Errorf("unknown job %q", id))
		return
	}
	fp := j.Profile()
	if fp == nil {
		httpError(w, r, http.StatusNotFound, fmt.Errorf(
			"no profile for job %s (submit with \"profile\": true; profiles are captured only when the job simulates rather than hitting a cache tier, and are dropped at the farm's retention age, 10 min after the job finishes by default)", id))
		return
	}
	writeJSON(w, http.StatusOK, fp)
}

func (s *server) handleHealth(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *server) handleVarz(w http.ResponseWriter, r *http.Request) {
	resp := struct {
		farm.Counters
		Store    *store.Counters      `json:"store,omitempty"`
		RunCache map[string]uint64    `json:"run_cache"`
		BW       map[string][]float64 `json:"bw_utilization,omitempty"`
		// Dist is the coordinator view: its class queues, lease ops and
		// per-worker liveness.
		Dist dist.Stats `json:"dist"`
		// Admit is the admission-control view: free slots, per-class queue
		// depths and waiters, and per-tenant in-flight holds.
		Admit *admit.Stats `json:"admit,omitempty"`
	}{
		Counters: s.farm.Counters(),
		Dist:     s.coord.Stats(),
		RunCache: core.RunCacheCounters(),
		BW:       s.latestBWHistograms(),
	}
	if s.store != nil {
		c := s.store.Counters()
		resp.Store = &c
	}
	if s.admit != nil {
		st := s.admit.Stats()
		resp.Admit = &st
	}
	writeJSON(w, http.StatusOK, resp)
}

// latestBWHistograms returns the bandwidth-meter utilization histograms
// (16 bins over the frame's busy span, per meter) from the most recently
// finished successful job, or nil when no job has completed yet.
func (s *server) latestBWHistograms() map[string][]float64 {
	var (
		newest   time.Time
		snapshot *obs.Snapshot
	)
	for _, j := range s.farm.Jobs() {
		v := j.View()
		if v.State != farm.Done.String() || v.Finished == nil {
			continue
		}
		if snapshot != nil && !v.Finished.After(newest) {
			continue
		}
		if res, err := j.Result(); err == nil {
			if r, ok := res.(*core.Result); ok {
				newest, snapshot = *v.Finished, r.Metrics()
			}
		}
	}
	if snapshot == nil {
		return nil
	}
	bw := make(map[string][]float64)
	for name, bins := range snapshot.Histograms {
		if meter, ok := strings.CutPrefix(name, "bw."); ok {
			bw[meter] = bins
		}
	}
	if len(bw) == 0 {
		return nil
	}
	return bw
}

// handleMetrics is GET /metrics: the process telem registry in Prometheus
// text exposition format (farm, store, core-cache, and live simulation
// instruments all land in the same registry).
func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	telem.SampleRuntime(s.metrics)
	if s.store != nil {
		// Remote workers write the shared store directory; refresh the
		// store gauges from what it holds.
		s.store.Counters()
	}
	if s.admit != nil {
		// Burn-rate gauges are sliding-window derived; refresh at scrape
		// time so pim_farm_slo_burn_ratio is current, not last-admission.
		s.admit.BurnRatios()
	}
	s.metrics.Handler().ServeHTTP(w, r)
}

// sseKeepalive is how often an idle event stream emits a comment line so
// intermediaries don't reap the connection.
const sseKeepalive = 15 * time.Second

// handleEvents is GET /v1/jobs/{id}/events: a Server-Sent Events stream of
// the job's lifecycle ("state") and simulation-progress ("progress")
// events. The stream replays retained history, follows the live tail, and
// terminates with an "end" event carrying the final job view once the job
// reaches a terminal state.
func (s *server) handleEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j, ok := s.farm.Job(id)
	if !ok {
		httpError(w, r, http.StatusNotFound, fmt.Errorf("unknown job %q", id))
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		httpError(w, r, http.StatusInternalServerError, errors.New("streaming unsupported"))
		return
	}
	events, unsubscribe := j.Subscribe()
	defer unsubscribe()

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	fl.Flush()

	keepalive := time.NewTicker(sseKeepalive)
	defer keepalive.Stop()
	for {
		select {
		case <-r.Context().Done():
			return
		case <-keepalive.C:
			fmt.Fprint(w, ": keepalive\n\n")
			fl.Flush()
		case ev, ok := <-events:
			if !ok {
				// Channel closed: the job is terminal (the final "state"
				// event has already been delivered). Close the stream with
				// an explicit terminal event so clients need not infer the
				// outcome from the connection dropping.
				writeSSE(w, "end", 0, j.View())
				fl.Flush()
				return
			}
			writeSSE(w, ev.Type, ev.Seq, ev.Data)
			fl.Flush()
		}
	}
}

// writeSSE renders one Server-Sent Event. Seq 0 omits the id field (used
// by the synthetic terminal "end" event, which is outside the job's
// sequence space).
func writeSSE(w io.Writer, typ string, seq int64, data any) {
	body, err := json.Marshal(data)
	if err != nil {
		body = []byte(fmt.Sprintf("{\"error\":%q}", err.Error()))
	}
	if seq > 0 {
		fmt.Fprintf(w, "id: %d\n", seq)
	}
	fmt.Fprintf(w, "event: %s\ndata: %s\n\n", typ, body)
}

// handlePprof serves net/http/pprof under /debug/pprof/ when the server
// was started with -pprof; otherwise the whole subtree answers 404 so
// profiling endpoints are never exposed by accident.
func (s *server) handlePprof(w http.ResponseWriter, r *http.Request) {
	if !s.pprofOn {
		httpError(w, r, http.StatusNotFound, errors.New("profiling disabled (start pimfarm with -pprof)"))
		return
	}
	switch strings.TrimPrefix(r.URL.Path, "/debug/pprof/") {
	case "cmdline":
		pprof.Cmdline(w, r)
	case "profile":
		pprof.Profile(w, r)
	case "symbol":
		pprof.Symbol(w, r)
	case "trace":
		pprof.Trace(w, r)
	default:
		pprof.Index(w, r)
	}
}

// methodNotAllowed answers a JSON 405 for a known path hit with an
// unregistered verb, advertising the allowed set.
func methodNotAllowed(allow string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Allow", allow)
		httpError(w, r, http.StatusMethodNotAllowed,
			fmt.Errorf("method %s not allowed for %s (allowed: %s)", r.Method, r.URL.Path, allow))
	}
}

// handleUnknown answers a JSON 404 for paths outside the API surface.
func handleUnknown(w http.ResponseWriter, r *http.Request) {
	httpError(w, r, http.StatusNotFound, fmt.Errorf("no such endpoint %q", r.URL.Path))
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		// Headers are gone; nothing useful to do beyond logging.
		slog.Default().Error("encode response", "err", err.Error())
	}
}

// httpError writes the API's JSON error body. Every error response —
// 4xx and 5xx alike — carries the request's X-Request-ID, so a client
// holding only a logged error body can still correlate it with the
// server's request log.
func httpError(w http.ResponseWriter, r *http.Request, status int, err error) {
	body := map[string]string{"error": err.Error()}
	if id := requestID(r); id != "" {
		body["request_id"] = id
	}
	writeJSON(w, status, body)
}
