package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro"
	"repro/internal/obs"
)

// Load shape of serve-dist. serveRate fixes the requests of a run
// (serveRate × --seconds) and is the rate they are offered at, about half
// the rate at which this mix saturates a 2-core host (README.md,
// "Capacity"). zipfS sets how sharply popularity falls over the 140-spec
// catalog, which fixes the share of requests that are first touches
// (simulate, store, journal) against repeats (coordinator cache hits).
const (
	serveRate = 16.0 // requests per second
	zipfS     = 1.2
	// tracedSample is the traced run's -trace-sample: the sampled jobs
	// give the per-layer timelines and the unsampled ones, loaded in the
	// same window, the untraced baseline for trace.overhead_frac.
	tracedSample = 0.5
	// drainTimeout bounds the wait for jobs still running when the load
	// window closes; a job not finished by then counts as failed.
	drainTimeout = 30 * time.Second
	pollInterval = 25 * time.Millisecond
	// spinLead is how long before a due time the generator stops sleeping
	// and spins: a timer alone wakes it up to a millisecond late, and that
	// lateness would count in every request's latency.
	spinLead = 2 * time.Millisecond
)

type serveWorkload struct {
	bin, workRoot string
	ref           *reference
	log           io.Writer
	// rate is the offered rate in requests per second. At a rate other
	// than serveRate the same requests arrive in a shorter or longer
	// window; capacity.py steps it to find where the mix saturates.
	rate float64
}

// jobView is the part of the pimfarm job document the benchmark reads.
type jobView struct {
	ID          string        `json:"id"`
	State       string        `json:"state"`
	Error       string        `json:"error"`
	CacheHit    bool          `json:"cache_hit"`
	Attempts    int           `json:"attempts"`
	AdmitWaitMS float64       `json:"admit_wait_ms"`
	TraceID     string        `json:"trace_id"`
	Enqueued    time.Time     `json:"enqueued"`
	Finished    *time.Time    `json:"finished"`
	Result      *obs.Snapshot `json:"result"`
}

func (v *jobView) terminal() bool {
	return v.State == "done" || v.State == "failed" || v.State == "canceled"
}

// request is one open-loop arrival and its outcome.
type request struct {
	spec  refSpec
	due   time.Time
	lagMS float64
	view  jobView
	err   error
}

func (r *request) latencyMS() float64 { return float64(r.view.Finished.Sub(r.due)) / 1e6 }

func specBody(s refSpec, extra string) []byte {
	return []byte(fmt.Sprintf(`{"game":%q,"width":%d,"height":%d,"design":%q,"frame_index":%d%s}`,
		s.game, s.w, s.h, s.design, s.frame, extra))
}

// newClient returns an HTTP client held to one connection.
func newClient() *http.Client {
	return &http.Client{
		Timeout:   10 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
	}
}

func submit(client *http.Client, base string, body []byte) (jobView, error) {
	var v jobView
	resp, err := client.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return v, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return v, err
	}
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		return v, fmt.Errorf("submit: %s: %s", resp.Status, bytes.TrimSpace(data))
	}
	return v, json.Unmarshal(data, &v)
}

// warmUp brings a fresh cluster to the state of a deployment that has
// been serving this traffic for a while. It pre-touches every spec the
// load requests more than once (the hot set such a deployment holds in
// its cache), so the load's first touches are the specs requested once,
// spread evenly over the window. It also makes sure both workers have
// built every game's 160x120 scene: hot specs are queued two per game at
// a time so each worker usually takes a job of every game, and any game
// the workers' logs show a worker has not run gets pairs of jobs outside
// the catalog (Baseline with anisotropic filtering off) until it has.
func warmUp(ctx context.Context, client *http.Client, c *cluster, hot []refSpec, log io.Writer) error {
	byGame := map[string][]refSpec{}
	for _, s := range hot {
		byGame[s.game] = append(byGame[s.game], s)
	}
	var queue []refSpec
	for r := 0; len(queue) < len(hot); r += 2 {
		for _, g := range games {
			queue = append(queue, byGame[g][min(r, len(byGame[g])):min(r+2, len(byGame[g]))]...)
		}
	}
	bodies := make([][]byte, len(queue))
	for i, s := range queue {
		bodies[i] = specBody(s, "")
	}
	if err := runJobs(ctx, client, c.base, bodies); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	for _, g := range games {
		for attempt := 0; ; attempt++ {
			ran, err := c.workerGames()
			if err != nil {
				return err
			}
			covered := len(ran) >= clusterWorkers
			for _, gs := range ran {
				covered = covered && gs[g]
			}
			if covered {
				break
			}
			if attempt == 3 {
				fmt.Fprintf(log, "warm-up: %s reached only one worker\n", g)
				break
			}
			pair := [][]byte{
				specBody(refSpec{g, serveW, serveH, repro.Baseline, 2*attempt + 1}, `,"disable_aniso":true`),
				specBody(refSpec{g, serveW, serveH, repro.Baseline, 2*attempt + 2}, `,"disable_aniso":true`),
			}
			if err := runJobs(ctx, client, c.base, pair); err != nil {
				return fmt.Errorf("warm-up %s: %w", g, err)
			}
		}
	}
	return nil
}

// runJobs submits every job at once and polls until all are done.
func runJobs(ctx context.Context, client *http.Client, base string, bodies [][]byte) error {
	var open []string
	for _, b := range bodies {
		v, err := submit(client, base, b)
		if err != nil {
			return err
		}
		open = append(open, v.ID)
	}
	for len(open) > 0 {
		keep := open[:0]
		for _, id := range open {
			var v jobView
			if err := getJSON(client, base+"/v1/jobs/"+id, &v); err != nil {
				return err
			}
			switch {
			case !v.terminal():
				keep = append(keep, id)
			case v.State != "done":
				return fmt.Errorf("job %s %s: %s", v.ID, v.State, v.Error)
			}
		}
		open = keep
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(pollInterval):
		}
	}
	return nil
}

// hotSpecs lists the catalog specs a load of n requests asks for more
// than once. It depends on n only, never on the seed.
func hotSpecs(n int) []refSpec {
	var out []refSpec
	pop := newPopularity(len(serveCatalogSpecs), zipfS)
	counts := pop.counts(n)
	for _, idx := range pop.rank {
		if counts[idx] > 1 {
			out = append(out, serveCatalogSpecs[idx])
		}
	}
	return out
}

// setUp starts a cluster and warms it for a load of n requests; it
// returns the cluster and the set-up time (spawn to first timed request).
func (sw *serveWorkload) setUp(ctx context.Context, traceSample float64, n int) (*cluster, float64, error) {
	start := time.Now()
	c, err := startCluster(ctx, sw.bin, sw.workRoot, traceSample)
	if err != nil {
		return nil, 0, err
	}
	// Close on an error or a panic in the warm-up: the caller gets no
	// cluster to close.
	up := false
	defer func() {
		if !up {
			c.Close()
		}
	}()
	if err := warmUp(ctx, newClient(), c, hotSpecs(n), sw.log); err != nil {
		return nil, 0, err
	}
	up = true
	return c, time.Since(start).Seconds(), nil
}

// loadRun is the outcome of one open-loop load window.
type loadRun struct {
	reqs    []*request
	start   time.Time
	lastEnd time.Time
	cpu     time.Duration // coordinator + workers, over the window and drain
	allocB  uint64        // coordinator heap allocation over the same span
}

// drive runs the open-loop load: n arrivals over window, submitted in
// order on one connection and followed up by polling on a second.
func (sw *serveWorkload) drive(ctx context.Context, c *cluster, seed uint64, n int, window time.Duration) (*loadRun, error) {
	due := arrivals(seed, n, window)
	reqs := make([]*request, n)
	for i, idx := range newPopularity(len(serveCatalogSpecs), zipfS).requests(seed, n) {
		reqs[i] = &request{spec: serveCatalogSpecs[idx]}
	}

	pids := c.pids()
	cpu0, err := clusterCPU(pids)
	if err != nil {
		return nil, err
	}
	alloc0, err := totalAlloc(c.base)
	if err != nil {
		return nil, err
	}

	submitClient, pollClient := newClient(), newClient()
	pending := make(chan *request, n) // sized to the number of sends
	var wg sync.WaitGroup
	wg.Add(1)
	pollCtx, cancelPoll := context.WithCancel(ctx)
	defer cancelPoll()
	go func() {
		defer wg.Done()
		pollPending(pollCtx, pollClient, c.base, pending)
	}()

	run := &loadRun{reqs: reqs, start: time.Now()}
	for i, r := range reqs {
		r.due = run.start.Add(due[i])
		select {
		case <-ctx.Done():
			close(pending)
			wg.Wait()
			return nil, ctx.Err()
		case <-time.After(time.Until(r.due) - spinLead):
		}
		for time.Now().Before(r.due) {
		}
		r.lagMS = float64(time.Since(r.due)) / 1e6
		// The submit response carries no result, so every job, cache hits
		// included, is read back by the poller.
		r.view, r.err = submit(submitClient, c.base, specBody(r.spec, ""))
		if r.err == nil {
			pending <- r
		}
	}
	close(pending)
	drained := make(chan struct{})
	go func() { wg.Wait(); close(drained) }()
	select {
	case <-drained:
	case <-time.After(drainTimeout):
		cancelPoll()
		<-drained
	case <-ctx.Done():
		cancelPoll()
		<-drained
		return nil, ctx.Err()
	}

	cpu1, err := clusterCPU(pids)
	if err != nil {
		return nil, err
	}
	alloc1, err := totalAlloc(c.base)
	if err != nil {
		return nil, err
	}
	run.cpu, run.allocB = cpu1-cpu0, alloc1-alloc0
	for _, r := range reqs {
		if r.view.Finished != nil && r.view.Finished.After(run.lastEnd) {
			run.lastEnd = *r.view.Finished
		}
	}
	return run, nil
}

// pollPending follows submitted jobs until each is terminal. Jobs still
// open when the context ends keep their last view and count as failed.
func pollPending(ctx context.Context, client *http.Client, base string, in <-chan *request) {
	var open []*request
	closed := false
	for !closed || len(open) > 0 {
		if !closed {
			// Take every queued submission without blocking the sweep.
		drain:
			for {
				select {
				case r, ok := <-in:
					if !ok {
						closed = true
						break drain
					}
					open = append(open, r)
				default:
					break drain
				}
			}
		}
		keep := open[:0]
		for _, r := range open {
			var v jobView
			if err := getJSON(client, base+"/v1/jobs/"+r.view.ID, &v); err != nil {
				r.err = err
				continue
			}
			r.view = v
			if !v.terminal() {
				keep = append(keep, r)
			}
		}
		open = keep
		select {
		case <-ctx.Done():
			for _, r := range open {
				r.err = fmt.Errorf("job %s not finished when the drain ended: %w", r.view.ID, ctx.Err())
			}
			return
		case <-time.After(pollInterval):
		}
	}
}

// outcome checks every request and returns the latency samples of the
// correct ones.
func (sw *serveWorkload) outcome(reqs []*request) (lat []float64, failed int) {
	for _, r := range reqs {
		err := r.err
		if err == nil {
			switch {
			case r.view.State != "done":
				err = fmt.Errorf("job %s %s: %s", r.view.ID, r.view.State, r.view.Error)
			case r.view.Result == nil || r.view.Finished == nil:
				err = fmt.Errorf("job %s done without result", r.view.ID)
			default:
				err = sw.ref.check(specKey(r.spec.game, r.spec.w, r.spec.h, r.spec.design, r.spec.frame), r.view.Result, nil, true)
			}
		}
		if err != nil {
			failed++
			fmt.Fprintln(sw.log, "request failed:", err)
			continue
		}
		lat = append(lat, r.latencyMS())
	}
	return lat, failed
}

var serveCatalogSpecs = serveCatalog()

// load returns the number of requests a run of the given length issues
// and the window they arrive in at the offered rate.
func (sw *serveWorkload) load(seconds int) (n int, window time.Duration) {
	n = int(serveRate * float64(seconds))
	return n, time.Duration(float64(n) / sw.rate * float64(time.Second))
}

func (sw *serveWorkload) run(ctx context.Context, seed uint64, seconds int) (*result, error) {
	// Earlier set-ups only time the spawn and warm-up; the last cluster
	// carries the load. Each cluster's Close is deferred as soon as it is
	// up, so a panic anywhere below still stops it and removes its store.
	n, window := sw.load(seconds)
	var setups []float64
	var c *cluster
	for i := 0; i < setupRepeats; i++ {
		cl, s, err := sw.setUp(ctx, 0, n)
		if err != nil {
			return nil, err
		}
		defer cl.Close()
		setups = append(setups, s)
		if i < setupRepeats-1 {
			cl.Close()
		}
		c = cl
	}

	run, err := sw.drive(ctx, c, seed, n, window)
	if err != nil {
		return nil, err
	}
	lat, failed := sw.outcome(run.reqs)
	s := summarize(lat)
	ok := len(lat)
	hits := 0
	for _, r := range run.reqs {
		if r.view.CacheHit {
			hits++
		}
	}
	fmt.Fprintf(sw.log, "requests: %d attempted at %.1f/s over %v, %d failed, %d cache hits, p90 has %d samples beyond it; last finished %.2f s after the window\n",
		n, sw.rate, window, failed, hits, s.n-int(float64(s.n)*0.9), (run.lastEnd.Sub(run.start) - window).Seconds())
	rss := 0.0
	for _, pid := range c.pids() {
		rss += peakRSSMB(pid)
	}
	r := newResult(n, failed)
	r.set("setup_s", median(setups), "s")
	r.set("frames_per_s", float64(ok)/run.lastEnd.Sub(run.start).Seconds(), "1/s")
	r.set("frame_ms_p50", s.p50, "ms")
	r.set("frame_ms_p90", s.p90, "ms")
	r.set("cpu_ms_per_frame", float64(run.cpu)/1e6/float64(n), "ms")
	r.set("alloc_mb_per_frame", float64(run.allocB)/1e6/float64(n), "MB")
	r.set("peak_rss_mb", rss, "MB")
	r.set("success_frac", float64(ok)/float64(n), "fraction")
	return r, nil
}

// runTraced loads one cluster that traces a share (tracedSample) of its
// jobs, for the whole budget. The sampled jobs' timelines give the
// per-layer metrics. trace.overhead_frac compares the sampled and the
// unsampled jobs' frame_ms_p50 within the same window, so host speed
// drift does not enter it.
func (sw *serveWorkload) runTraced(ctx context.Context, seed uint64, seconds int) (*result, error) {
	n, window := sw.load(seconds)
	c, _, err := sw.setUp(ctx, tracedSample, n)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	run, err := sw.drive(ctx, c, seed, n, window)
	if err != nil {
		return nil, err
	}
	var sampled, unsampled []*request
	for _, r := range run.reqs {
		if r.view.TraceID != "" {
			sampled = append(sampled, r)
		} else {
			unsampled = append(unsampled, r)
		}
	}
	latT, failedT := sw.outcome(sampled)
	latU, failedU := sw.outcome(unsampled)
	timelines, err := fetchTimelines(ctx, c.base, sampled)
	if err != nil {
		return nil, err
	}

	var admitW, hitMS, lag []float64
	hits, done, requeues := 0, 0, 0
	for _, r := range run.reqs {
		lag = append(lag, r.lagMS)
		if r.view.State != "done" || r.view.Finished == nil {
			continue
		}
		done++
		admitW = append(admitW, r.view.AdmitWaitMS)
		requeues += max(r.view.Attempts-1, 0)
		if r.view.CacheHit {
			hits++
			hitMS = append(hitMS, float64(r.view.Finished.Sub(r.view.Enqueued))/1e6)
		}
	}
	spans := map[string][]float64{}
	for _, t := range timelines {
		for name, ms := range t.spans {
			spans[name] = append(spans[name], ms)
		}
		spans["wire"] = append(spans["wire"], t.spans["wire/grant"]+t.spans["wire/complete"])
		spans["job_self"] = append(spans["job_self"], t.jobSelfMS)
	}
	p := func(name string) summary { return summarize(spans[name]) }
	r := newResult(n, failedT+failedU)
	r.set("admit.wait_ms_p50", summarize(admitW).p50, "ms")
	r.set("farm.queue_ms_p50", p("farm/queue").p50, "ms")
	r.set("farm.cache_hit_frac", float64(hits)/float64(max(done, 1)), "fraction")
	r.set("farm.hit_ms_p50", summarize(hitMS).p50, "ms")
	r.set("dist.queue_ms_p50", p("dist/queue").p50, "ms")
	r.set("dist.queue_ms_p90", p("dist/queue").p90, "ms")
	r.set("dist.lease_ms_p50", p("dist/lease").p50, "ms")
	r.set("dist.wire_ms_p50", p("wire").p50, "ms")
	r.set("dist.requeues", float64(requeues), "count")
	r.set("suite.resolve_ms_p50", p("resolve").p50, "ms")
	r.set("store.tiers_ms_p50", p("tiers").p50, "ms")
	r.set("core.run_ms_p50", p("run").p50, "ms")
	r.set("core.encode_ms_p50", p("encode").p50, "ms")
	r.set("pimfarm.job_self_ms_p50", p("job_self").p50, "ms")
	r.set("load.lag_ms_p90", summarize(lag).p90, "ms")
	r.set("trace.overhead_frac", summarize(latT).p50/summarize(latU).p50-1, "fraction")
	fmt.Fprintf(sw.log, "traced run: %d sampled and %d unsampled requests, %d timelines\n",
		len(sampled), len(unsampled), len(timelines))
	return r, nil
}

// timeline is one job's pim-render/trace/v1 document reduced to span
// durations (ms, summed per name) and the job span's self time.
type timeline struct {
	spans     map[string]float64
	jobSelfMS float64
}

// fetchTimelines reads the trace of every job that really executed
// (cache hits and dedup followers have none).
func fetchTimelines(ctx context.Context, base string, reqs []*request) ([]timeline, error) {
	client := newClient()
	var out []timeline
	for _, r := range reqs {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		if r.view.TraceID == "" || r.view.CacheHit || r.view.State != "done" {
			continue
		}
		var doc struct {
			Events []struct {
				Name string  `json:"name"`
				Ph   string  `json:"ph"`
				TS   float64 `json:"ts"`
				Dur  float64 `json:"dur"`
				PID  int     `json:"pid"`
				TID  int     `json:"tid"`
			} `json:"traceEvents"`
		}
		if err := getJSON(client, base+"/v1/jobs/"+r.view.ID+"/trace", &doc); err != nil {
			if strings.Contains(err.Error(), "404") {
				continue // a dedup follower: its leader carries the timeline
			}
			return nil, err
		}
		t := timeline{spans: map[string]float64{}}
		var job [2]float64
		var children [][2]float64
		for _, e := range doc.Events {
			if e.Ph != "X" {
				continue
			}
			t.spans[e.Name] += e.Dur / 1e3
			switch {
			case e.Name == "job":
				job = [2]float64{e.TS, e.TS + e.Dur}
			case e.PID == 1 && e.TID == 1:
				children = append(children, [2]float64{e.TS, e.TS + e.Dur})
			}
		}
		t.jobSelfMS = (job[1] - job[0] - covered(job, children)) / 1e3
		out = append(out, t)
	}
	return out, nil
}

// covered returns how much of span the intervals cover (overlaps counted
// once).
func covered(span [2]float64, ivs [][2]float64) float64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	total, end := 0.0, span[0]
	for _, iv := range ivs {
		lo, hi := max(iv[0], end), min(iv[1], span[1])
		if hi > lo {
			total += hi - lo
			end = hi
		}
	}
	return total
}

// clusterCPU sums user plus system CPU over the cluster's processes.
func clusterCPU(pids []int) (time.Duration, error) {
	var sum time.Duration
	for _, pid := range pids {
		d, err := procCPU(pid)
		if err != nil {
			return 0, err
		}
		sum += d
	}
	return sum, nil
}

// totalAlloc reads the coordinator's cumulative Go heap allocation
// (runtime.MemStats.TotalAlloc) from its pprof heap page.
func totalAlloc(base string) (uint64, error) {
	resp, err := newClient().Get(base + "/debug/pprof/heap?debug=1")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "# TotalAlloc = "); ok {
			return strconv.ParseUint(strings.TrimSpace(v), 10, 64)
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no TotalAlloc in %s/debug/pprof/heap (status %s)", base, resp.Status)
}
