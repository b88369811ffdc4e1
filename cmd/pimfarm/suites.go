package main

// Suite endpoints: POST /v1/suites accepts a whole pim-render/suite/v1
// document, admits every selected case through the admission controller,
// and submits one farm job per case — each riding the existing dedup /
// cache-tier / journal / SSE machinery unchanged. GET /v1/suites{,/{id}}
// serve suite-level roll-ups with per-case terminal states, and
// GET /v1/suites/{id}/events streams the roll-up live. Error bodies and
// X-Request-ID echoes reuse the job endpoints' helpers — no new shapes.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/farm"
	"repro/internal/farm/admit"
	"repro/internal/suite"
)

// suiteState is the server's suite tracking: runs by ID plus the ID
// sequence. A field on server; all suite handling lives in this file.
type suiteState struct {
	runs sync.Map // string -> *suiteRun
	seq  atomic.Uint64
}

// suiteRun tracks one accepted suite: its identity plus the farm job of
// every selected case, in suite declaration order. Immutable after
// creation — per-case progress is read live from the jobs, so holding the
// *farm.Job keeps a suite's cases inspectable even after the farm evicts
// the job from its retained list.
type suiteRun struct {
	id      string
	name    string
	created time.Time
	cases   []suiteCaseRef
}

// suiteCaseRef binds a suite case ID to its farm job.
type suiteCaseRef struct {
	caseID string
	job    *farm.Job
}

// suiteCaseView is the per-case slice of the suite roll-up.
type suiteCaseView struct {
	Case  string `json:"case"`
	Job   string `json:"job"`
	State string `json:"state"`
	Error string `json:"error,omitempty"`
}

// suiteResponse is the suite-level roll-up served by GET /v1/suites/{id}.
// State rolls the per-case states up: "running" while any case is in
// flight, then "failed" if any case failed, "canceled" if any was
// canceled, and "done" only when every case completed.
type suiteResponse struct {
	ID      string          `json:"id"`
	Name    string          `json:"name"`
	Created time.Time       `json:"created"`
	State   string          `json:"state"`
	Total   int             `json:"total"`
	Done    int             `json:"done"`
	Cases   []suiteCaseView `json:"cases"`
}

// view snapshots the suite roll-up.
func (sr *suiteRun) view() suiteResponse {
	resp := suiteResponse{
		ID:      sr.id,
		Name:    sr.name,
		Created: sr.created,
		Total:   len(sr.cases),
		Cases:   make([]suiteCaseView, 0, len(sr.cases)),
	}
	terminal, failed, canceled := 0, 0, 0
	for _, c := range sr.cases {
		v := c.job.View()
		resp.Cases = append(resp.Cases, suiteCaseView{
			Case: c.caseID, Job: v.ID, State: v.State, Error: v.Error,
		})
		switch c.job.State() {
		case farm.Done:
			terminal++
			resp.Done++
		case farm.Failed:
			terminal++
			failed++
		case farm.Canceled:
			terminal++
			canceled++
		}
	}
	switch {
	case terminal < len(sr.cases):
		resp.State = "running"
	case failed > 0:
		resp.State = "failed"
	case canceled > 0:
		resp.State = "canceled"
	default:
		resp.State = "done"
	}
	return resp
}

// terminal reports whether every case of the suite has settled.
func (sr *suiteRun) terminal() bool {
	for _, c := range sr.cases {
		if !c.job.State().Terminal() {
			return false
		}
	}
	return true
}

// handleSuiteSubmit is POST /v1/suites: decode and validate the whole
// suite document first (one bad case rejects the batch with 400 before
// anything runs), then walk the cases in order — admit one, submit one —
// holding each admission ticket until that case's job settles. An
// admission rejection mid-batch cancels the already-submitted cases and
// sheds the whole suite with 429. ?tags=a,b&tier=...&difficulty=...
// filter cases exactly like paperbench -suite.
func (s *server) handleSuiteSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(r.Body)
	if err != nil {
		httpError(w, r, http.StatusBadRequest, fmt.Errorf("read body: %w", err))
		return
	}
	su, err := suite.Parse(body)
	if err != nil {
		httpError(w, r, http.StatusBadRequest, err)
		return
	}
	cases := su.Select(suiteFilterFromQuery(r))
	if len(cases) == 0 {
		httpError(w, r, http.StatusBadRequest,
			fmt.Errorf("suite %s: no cases match the filter", su.Name))
		return
	}

	// Build every task (resolving every spec and class) before admitting
	// or submitting anything: validation failures must reject the whole
	// batch, not strand a half-submitted suite.
	reqID := requestID(r)
	tasks := make([]farm.Task, len(cases))
	classes := make([]admit.Class, len(cases))
	specs := make([]*suite.Spec, len(cases))
	for i := range cases {
		sp := cases[i].Spec
		specs[i] = &sp
		class, err := specClass(&sp)
		if err != nil {
			httpError(w, r, http.StatusBadRequest,
				fmt.Errorf("case %s: %w", cases[i].ID, err))
			return
		}
		task, err := s.buildTask(&sp, reqID)
		if err != nil {
			httpError(w, r, http.StatusBadRequest,
				fmt.Errorf("case %s: %w", cases[i].ID, err))
			return
		}
		task.Label = su.Name + "/" + cases[i].ID
		task.Class = class.String()
		tasks[i] = task
		classes[i] = class
	}

	// Batch admission interleaves with submission: each case holds its
	// ticket from admission until its job settles, so per-tenant quotas
	// bound suite work in flight exactly like individually submitted
	// jobs. Admitting case i only after submitting case i-1 is what lets
	// a suite wider than the slot pool drain through it — already-running
	// cases release slots that later cases then wait for (bounded by the
	// admission timeout each). Acquiring every ticket up front instead
	// would deadlock such a suite against its own unsubmitted jobs.
	var tenant *admit.Tenant
	if s.admit != nil {
		var err error
		if tenant, err = s.resolveTenant(r); err != nil {
			httpError(w, r, http.StatusUnauthorized, err)
			return
		}
	}

	// shed cancels everything already submitted: a half-submitted suite
	// is worse than a rejected one. Tickets of canceled cases release as
	// the cancellations settle.
	run := &suiteRun{
		id:      fmt.Sprintf("s-%06d", s.suites.seq.Add(1)),
		name:    su.Name,
		created: time.Now(),
	}
	shed := func() {
		for _, c := range run.cases {
			s.farm.Cancel(c.job.ID())
		}
	}
	for i := range cases {
		var ticket *admit.Ticket
		if s.admit != nil {
			actx, cancel := context.WithTimeout(r.Context(), s.admitTimeout)
			ticket, err = s.admit.Admit(actx, tenant, classes[i])
			cancel()
			if err != nil {
				shed()
				writeOverload(w, r, err)
				return
			}
			tasks[i].Tenant = ticket.Tenant()
			tasks[i].AdmitWait = ticket.Wait()
		}
		job, err := s.submit(tasks[i], specs[i])
		if err != nil {
			if ticket != nil {
				ticket.Release()
			}
			shed()
			submitError(w, r, err)
			return
		}
		if ticket != nil {
			t, j := ticket, job
			go func() {
				<-j.Done()
				t.Release()
			}()
		}
		run.cases = append(run.cases, suiteCaseRef{caseID: cases[i].ID, job: job})
	}
	s.pruneSuites()
	s.suites.runs.Store(run.id, run)
	writeJSON(w, http.StatusAccepted, run.view())
}

// suiteFilterFromQuery builds the case filter from the request's
// ?tags=a,b&tier=...&difficulty=... query parameters.
func suiteFilterFromQuery(r *http.Request) suite.Filter {
	q := r.URL.Query()
	f := suite.Filter{
		Tier:       q.Get("tier"),
		Difficulty: q.Get("difficulty"),
	}
	for _, t := range strings.Split(q.Get("tags"), ",") {
		if t = strings.TrimSpace(t); t != "" {
			f.Tags = append(f.Tags, t)
		}
	}
	return f
}

// handleSuiteList is GET /v1/suites: every retained suite roll-up,
// newest first.
func (s *server) handleSuiteList(w http.ResponseWriter, r *http.Request) {
	s.pruneSuites()
	var views []suiteResponse
	s.suites.runs.Range(func(_, v any) bool {
		views = append(views, v.(*suiteRun).view())
		return true
	})
	// sync.Map iteration order is random; IDs are a zero-padded sequence,
	// so a reverse lexicographic sort is newest-first.
	sort.Slice(views, func(i, j int) bool { return views[i].ID > views[j].ID })
	writeJSON(w, http.StatusOK, map[string]any{"suites": views})
}

// handleSuiteGet is GET /v1/suites/{id}: one suite roll-up.
func (s *server) handleSuiteGet(w http.ResponseWriter, r *http.Request) {
	v, ok := s.suites.runs.Load(r.PathValue("id"))
	if !ok {
		httpError(w, r, http.StatusNotFound, fmt.Errorf("unknown suite %q", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, v.(*suiteRun).view())
}

// handleSuiteEvents is GET /v1/suites/{id}/events: a Server-Sent Events
// roll-up of the suite. A "case" event fires as each case's job settles
// (carrying that case's view), and the stream terminates with an "end"
// event carrying the final suite roll-up once every case is terminal.
// Per-case progress streams remain available on each case's own
// /v1/jobs/{id}/events.
func (s *server) handleSuiteEvents(w http.ResponseWriter, r *http.Request) {
	v, ok := s.suites.runs.Load(r.PathValue("id"))
	if !ok {
		httpError(w, r, http.StatusNotFound, fmt.Errorf("unknown suite %q", r.PathValue("id")))
		return
	}
	run := v.(*suiteRun)
	fl, ok := w.(http.Flusher)
	if !ok {
		httpError(w, r, http.StatusInternalServerError, errors.New("streaming unsupported"))
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	fl.Flush()

	// One waiter per case: job.Done() is a closed-channel broadcast, so
	// any number of concurrent streams can watch the same jobs. The
	// buffer holds every settlement, so waiters never block after the
	// client disconnects.
	settled := make(chan int, len(run.cases))
	for i := range run.cases {
		go func(i int) {
			select {
			case <-run.cases[i].job.Done():
				settled <- i
			case <-r.Context().Done():
			}
		}(i)
	}

	keepalive := time.NewTicker(sseKeepalive)
	defer keepalive.Stop()
	for remaining := len(run.cases); remaining > 0; {
		select {
		case <-r.Context().Done():
			return
		case <-keepalive.C:
			fmt.Fprint(w, ": keepalive\n\n")
			fl.Flush()
		case i := <-settled:
			c := run.cases[i]
			jv := c.job.View()
			writeSSE(w, "case", 0, suiteCaseView{
				Case: c.caseID, Job: jv.ID, State: jv.State, Error: jv.Error,
			})
			fl.Flush()
			remaining--
		}
	}
	writeSSE(w, "end", 0, run.view())
	fl.Flush()
}

// pruneSuites drops suite roll-ups whose cases are all terminal and whose
// jobs the farm no longer retains — the run's information is gone from
// every other surface at that point. Called on every suite store and
// list, which bounds the map without a background janitor.
func (s *server) pruneSuites() {
	s.suites.runs.Range(func(k, v any) bool {
		run := v.(*suiteRun)
		if !run.terminal() {
			return true
		}
		for _, c := range run.cases {
			if _, live := s.farm.Job(c.job.ID()); live {
				return true
			}
		}
		s.suites.runs.Delete(k)
		return true
	})
}
