package farm

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/dtrace"
)

// value wraps an int so results survive the any round-trip distinctly.
type value struct{ n int }

func mustClose(t *testing.T, f *Farm) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := f.Close(ctx); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

func TestSubmitWait(t *testing.T) {
	f := New(Config{})
	defer mustClose(t, f)
	j, err := f.Submit(Task{
		Key:   "k",
		Label: "simple",
		Run:   func(context.Context) (any, error) { return &value{7}, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	v, err := j.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if v.(*value).n != 7 {
		t.Fatalf("value = %+v, want 7", v)
	}
	if s := j.State(); s != Done {
		t.Fatalf("state = %v, want done", s)
	}
	view := j.View()
	if view.State != "done" || view.ID != j.ID() || view.Started == nil || view.Finished == nil {
		t.Fatalf("bad view: %+v", view)
	}
}

// TestExactlyOncePerKey is the duplicate-submission race test: many
// concurrent submissions over few distinct keys must execute each key's
// task exactly once (singleflight while in flight, LRU cache after), and
// every job must observe its key's canonical result.
func TestExactlyOncePerKey(t *testing.T) {
	f := New(Config{})
	defer mustClose(t, f)

	const (
		keys       = 8
		perKey     = 25
		totalSubs  = keys * perKey
		runLatency = 5 * time.Millisecond
	)
	execs := make([]atomic.Int32, keys)
	results := make([]*value, keys)
	for i := range results {
		results[i] = &value{i}
	}

	var wg sync.WaitGroup
	jobs := make([]*Job, totalSubs)
	errs := make([]error, totalSubs)
	for s := 0; s < totalSubs; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			k := s % keys
			j, err := f.Submit(Task{
				Key:   fmt.Sprintf("key-%d", k),
				Label: fmt.Sprintf("dup-%d", k),
				Run: func(context.Context) (any, error) {
					execs[k].Add(1)
					time.Sleep(runLatency)
					return results[k], nil
				},
			})
			jobs[s], errs[s] = j, err
		}(s)
	}
	wg.Wait()

	for s, err := range errs {
		if err != nil {
			t.Fatalf("submit %d: %v", s, err)
		}
	}
	for s, j := range jobs {
		v, err := j.Wait(context.Background())
		if err != nil {
			t.Fatalf("job %d: %v", s, err)
		}
		if got, want := v.(*value), results[s%keys]; got != want {
			t.Fatalf("job %d got %+v, want the canonical result %+v", s, got, want)
		}
	}
	for k := range execs {
		if n := execs[k].Load(); n != 1 {
			t.Errorf("key %d executed %d times, want exactly 1", k, n)
		}
	}
	c := f.Counters()
	if c.Done != totalSubs {
		t.Errorf("done = %d, want %d", c.Done, totalSubs)
	}
	if c.Deduped+c.CacheHits != totalSubs-keys {
		t.Errorf("deduped (%d) + cache hits (%d) = %d, want %d",
			c.Deduped, c.CacheHits, c.Deduped+c.CacheHits, totalSubs-keys)
	}
}

func TestCacheHitAfterCompletion(t *testing.T) {
	f := New(Config{})
	defer mustClose(t, f)
	var execs atomic.Int32
	task := Task{
		Key: "k",
		Run: func(context.Context) (any, error) {
			execs.Add(1)
			return &value{1}, nil
		},
	}
	v1, err := f.Do(context.Background(), task)
	if err != nil {
		t.Fatal(err)
	}
	j2, err := f.Submit(task)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := j2.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if v1 != v2 {
		t.Fatal("cache served a different value")
	}
	if execs.Load() != 1 {
		t.Fatalf("execs = %d, want 1", execs.Load())
	}
	if !j2.View().CacheHit {
		t.Fatal("second job should be marked cache_hit")
	}
	if c := f.Counters(); c.CacheHits != 1 {
		t.Fatalf("cache_hits = %d, want 1", c.CacheHits)
	}
}

// TestFailedTaskRunsOnce: the farm runs a task once; a failing run
// settles the job Failed with the task's error. Running a job again is
// the lease coordinator's business (an expired lease requeues), not the
// farm's.
func TestFailedTaskRunsOnce(t *testing.T) {
	f := New(Config{})
	defer mustClose(t, f)
	boom := errors.New("boom")
	var calls atomic.Int32
	j, _ := f.Submit(Task{
		Run: func(context.Context) (any, error) {
			calls.Add(1)
			return nil, boom
		},
	})
	_, err := j.Wait(context.Background())
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	if j.State() != Failed {
		t.Fatalf("state = %v, want failed", j.State())
	}
	if calls.Load() != 1 {
		t.Fatalf("calls = %d, want 1", calls.Load())
	}
}

// TestGracefulDrainCompletesQueuedJobs shuts the farm down with jobs still
// in flight and asserts every one of them ran.
func TestGracefulDrainCompletesQueuedJobs(t *testing.T) {
	f := New(Config{})
	const jobs = 10
	var ran atomic.Int32
	submitted := make([]*Job, jobs)
	for i := 0; i < jobs; i++ {
		j, err := f.Submit(Task{
			Label: fmt.Sprintf("drain-%d", i),
			Run: func(context.Context) (any, error) {
				time.Sleep(2 * time.Millisecond)
				ran.Add(1)
				return nil, nil
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		submitted[i] = j
	}
	mustClose(t, f)
	if n := ran.Load(); n != jobs {
		t.Fatalf("%d of %d accepted jobs ran across drain, want all", n, jobs)
	}
	for i, j := range submitted {
		if j.State() != Done {
			t.Fatalf("job %d state = %v after drain, want done", i, j.State())
		}
	}
	if _, err := f.Submit(Task{Run: func(context.Context) (any, error) { return nil, nil }}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Submit after Close = %v, want ErrClosed", err)
	}
	// Close is idempotent.
	if err := f.Close(context.Background()); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestForcedShutdownCancelsQueuedJobs expires the drain deadline while a
// job blocks with dedup followers waiting on it: the running job records
// Failed (its context was canceled) and the followers, which never ran,
// complete as Canceled with ErrShutdown.
func TestForcedShutdownCancelsQueuedJobs(t *testing.T) {
	f := New(Config{})
	release := make(chan struct{})
	blocker, err := f.Submit(Task{
		Key:   "k",
		Label: "blocker",
		Run: func(ctx context.Context) (any, error) {
			select {
			case <-release:
				return &value{0}, nil
			case <-ctx.Done(): // forced shutdown cancels the farm context
				return nil, ctx.Err()
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	queued := make([]*Job, 3)
	for i := range queued {
		queued[i], err = f.Submit(Task{
			Key:   "k",
			Label: fmt.Sprintf("stuck-%d", i),
			Run:   func(context.Context) (any, error) { return &value{1}, nil },
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if err := f.Close(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("forced Close = %v, want deadline exceeded", err)
	}
	close(release)

	if s := blocker.State(); s != Failed {
		t.Fatalf("blocker state = %v, want failed (ctx canceled)", s)
	}
	for i, j := range queued {
		if s := j.State(); s != Canceled {
			t.Fatalf("queued job %d state = %v, want canceled", i, s)
		}
		if _, err := j.Result(); !errors.Is(err, ErrShutdown) {
			t.Fatalf("queued job %d err = %v, want ErrShutdown", i, err)
		}
	}
	if c := f.Counters(); c.Canceled != 3 {
		t.Fatalf("canceled = %d, want 3", c.Canceled)
	}
}

func TestJobsListingAndRetention(t *testing.T) {
	f := New(Config{RetainDone: 3})
	defer mustClose(t, f)
	for i := 0; i < 6; i++ {
		j, err := f.Submit(Task{
			Label: fmt.Sprintf("job-%d", i),
			Run:   func(context.Context) (any, error) { return nil, nil },
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := j.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	jobs := f.Jobs()
	if len(jobs) > 3 {
		t.Fatalf("retained %d jobs, want <= 3", len(jobs))
	}
	// The most recent job is retained and addressable by id.
	last := jobs[len(jobs)-1]
	got, ok := f.Job(last.ID())
	if !ok || got != last {
		t.Fatalf("Job(%q) lookup failed", last.ID())
	}
}

// mapTier is an in-memory Tier for testing the second-cache-tier hookup.
type mapTier struct {
	mu   sync.Mutex
	m    map[string]any
	gets int
}

func newMapTier() *mapTier { return &mapTier{m: map[string]any{}} }

func (t *mapTier) Get(key string) (any, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.gets++
	v, ok := t.m[key]
	return v, ok
}

func (t *mapTier) getCount() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.gets
}

// TestTierOnlyServes pins the tier contract: the farm never writes the
// tier (whatever computed a result owns its persistence), a later farm
// (fresh memory cache) serves a key the tier holds without running the
// task, and tier hits show up in the counters and the job view.
func TestTierOnlyServes(t *testing.T) {
	tier := newMapTier()
	var runs atomic.Int32
	task := func(key string) Task {
		return Task{Key: key, Run: func(context.Context) (any, error) {
			runs.Add(1)
			return &value{42}, nil
		}}
	}

	f1 := New(Config{Tier: tier})
	j, err := f1.Submit(task("k"))
	if err != nil {
		t.Fatal(err)
	}
	if v, err := j.Wait(context.Background()); err != nil || v.(*value).n != 42 {
		t.Fatalf("wait: %v, %v", v, err)
	}
	mustClose(t, f1)
	if runs.Load() != 1 {
		t.Fatalf("runs = %d, want 1", runs.Load())
	}
	if c := f1.Counters(); c.TierHits != 0 {
		t.Fatalf("f1 tier_hits = %d, want 0", c.TierHits)
	}
	tier.mu.Lock()
	if len(tier.m) != 0 {
		t.Fatalf("farm wrote %d tier entries; the tier is read-only", len(tier.m))
	}
	// The task's own side persists the result (in cmd/pimfarm, the
	// worker's store write).
	tier.m["k"] = &value{42}
	tier.mu.Unlock()

	// A second farm with an empty memory cache — the tier (e.g. the durable
	// store after a restart) answers instead of the task.
	f2 := New(Config{Tier: tier})
	defer mustClose(t, f2)
	j2, err := f2.Submit(task("k"))
	if err != nil {
		t.Fatal(err)
	}
	if v, err := j2.Wait(context.Background()); err != nil || v.(*value).n != 42 {
		t.Fatalf("wait: %v, %v", v, err)
	}
	if runs.Load() != 1 {
		t.Fatalf("tier hit still ran the task (runs = %d)", runs.Load())
	}
	if got := f2.Counters(); got.TierHits != 1 {
		t.Fatalf("f2 tier_hits = %d, want 1", got.TierHits)
	}
	if view := j2.View(); !view.TierHit {
		t.Error("job view does not report tier_hit")
	}

	// Within one farm the memory LRU answers first: a repeat submission is
	// a cache hit, not more tier traffic.
	before := tier.getCount()
	j3, err := f2.Submit(task("k"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j3.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if view := j3.View(); !view.CacheHit && !view.Deduped {
		t.Error("repeat submission was not a memory-cache hit")
	}
	if tier.getCount() != before {
		t.Error("memory-cache hit still consulted the tier")
	}

	// Unkeyed jobs bypass the tier entirely.
	j4, err := f2.Submit(Task{Run: func(context.Context) (any, error) {
		return &value{7}, nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j4.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if tier.getCount() != before {
		t.Error("unkeyed job consulted the tier")
	}
}

// TestRetentionCompactsTerminalJobs: once a finished job outlives
// Retention, its SSE replay ring shrinks to its terminal event and its
// frame profile and trace timeline are dropped in the same janitor pass,
// so retained jobs stop pinning their full progress history and
// documents. A late subscriber still learns the outcome.
func TestRetentionCompactsTerminalJobs(t *testing.T) {
	f := New(Config{Retention: 50 * time.Millisecond})
	defer mustClose(t, f)
	j, err := f.Submit(Task{
		Label: "chatty",
		Run: func(ctx context.Context) (any, error) {
			job, _ := JobFromContext(ctx)
			for i := 0; i < 20; i++ {
				job.Publish("progress", i)
			}
			job.SetProfile(&obs.FrameProfile{Schema: obs.FrameProfileSchema})
			job.SetTimeline(&dtrace.Timeline{Schema: dtrace.TimelineSchema})
			return value{1}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Before compaction the job holds its artifacts and the replay its
	// progress trail.
	if j.Profile() == nil || j.Timeline() == nil {
		t.Fatalf("finished job lost its artifacts before the janitor ran: profile=%v timeline=%v",
			j.Profile(), j.Timeline())
	}
	ch, cancel := j.Subscribe()
	n := 0
	for range ch {
		n++
	}
	cancel()
	if n < 20 {
		t.Fatalf("pre-compaction replay has %d events, want >= 20", n)
	}

	// The janitor ticks at >= 1s; well after that the ring is one event.
	deadline := time.Now().Add(10 * time.Second)
	for {
		ch, cancel := j.Subscribe()
		n = 0
		var last Event
		for ev := range ch {
			last = ev
			n++
		}
		cancel()
		if n == 1 {
			if last.Type != "state" {
				t.Fatalf("compacted ring kept %q, want the terminal state event", last.Type)
			}
			if j.Profile() != nil || j.Timeline() != nil {
				t.Fatal("compacted job still holds its profile or timeline")
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replay never compacted: still %d events", n)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// TestTaskTenantClassThreading: tenant, class, and admission wait set on
// the Task surface in the job's accessors and View.
func TestTaskTenantClassThreading(t *testing.T) {
	f := New(Config{})
	defer mustClose(t, f)
	j, err := f.Submit(Task{
		Label:     "tagged",
		Origin:    "r-000042",
		Tenant:    "alice",
		Class:     "interactive",
		AdmitWait: 250 * time.Millisecond,
		Run:       func(ctx context.Context) (any, error) { return value{1}, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if j.Tenant() != "alice" || j.Class() != "interactive" || j.AdmitWait() != 250*time.Millisecond {
		t.Errorf("accessors = %q/%q/%v", j.Tenant(), j.Class(), j.AdmitWait())
	}
	v := j.View()
	if v.Tenant != "alice" || v.Class != "interactive" || v.AdmitWaitMS != 250 {
		t.Errorf("view = %+v", v)
	}
}
