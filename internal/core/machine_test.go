package core

import (
	"bytes"
	"context"
	"encoding/json"
	"runtime"
	"sync"
	"testing"

	"repro/internal/config"
	"repro/internal/obs"
	"repro/internal/workload"
)

// outcome is what a Result shows its readers: the metrics/v1 document and
// the image.
func outcome(t *testing.T, r *Result) ([]byte, []uint32) {
	t.Helper()
	b, err := json.Marshal(r.Metrics())
	if err != nil {
		t.Fatal(err)
	}
	return b, r.Image
}

// freshRun simulates on a new engine, so every unit is built for the run.
func freshRun(t *testing.T, wl workload.Workload, opts Options) *Result {
	t.Helper()
	r, err := RunContext(engineCtx(nil), wl, opts)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func sameOutcome(t *testing.T, what string, got, want *Result) {
	t.Helper()
	gm, gi := outcome(t, got)
	wm, wi := outcome(t, want)
	if !bytes.Equal(gm, wm) {
		t.Errorf("%s: metrics differ from a fresh engine's\n got %s\nwant %s", what, gm, wm)
	}
	if len(gi) != len(wi) {
		t.Fatalf("%s: image has %d pixels, want %d", what, len(gi), len(wi))
	}
	for i := range gi {
		if gi[i] != wi[i] {
			t.Errorf("%s: pixel %d differs from a fresh engine's", what, i)
			break
		}
	}
}

// TestEngineReusedMachinesMatchFresh runs a traced frame and then other
// shard counts, options, designs and sizes on one engine, several of them
// on the traced run's machine. Every Result, read after all the runs, must
// match a fresh engine's byte for byte, and the traced run's tracer must
// gain no events from the runs after it.
func TestEngineReusedMachinesMatchFresh(t *testing.T) {
	small := workload.MustGet("wolf", 48, 36)
	other := workload.MustGet("doom3", 64, 48)
	tr := obs.NewTracer(0)
	var prof obs.FrameProfile
	runs := []struct {
		wl   workload.Workload
		opts Options
	}{
		{small, Options{Design: config.ATFIM, Shards: 2, Trace: tr}},
		{small, Options{Design: config.ATFIM, Shards: 1}},
		{small, Options{Design: config.ATFIM, Shards: 3, Profile: &prof}},
		{small, Options{Design: config.ATFIM, AngleThreshold: 0.2}},
		{small, Options{Design: config.Baseline, Shards: 2}},
		{other, Options{Design: config.ATFIM, Shards: 2}},
		{small, Options{Design: config.BPIM, HMCCubes: 2}},
		{small, Options{Design: config.STFIM}},
		{small, Options{Design: config.ATFIM, Shards: 2, FrameIndex: 1, Frames: 2}},
	}
	ctx := engineCtx(nil)
	results := make([]*Result, len(runs))
	traced := 0
	for i, r := range runs {
		res, err := RunContext(ctx, r.wl, r.opts)
		if err != nil {
			t.Fatal(err)
		}
		results[i] = res
		if i == 0 {
			traced = tr.Len()
		}
	}
	if traced == 0 {
		t.Fatal("the traced run recorded no events")
	}
	if n := tr.Len(); n != traced {
		t.Fatalf("the first run's tracer gained %d events from later runs", n-traced)
	}
	for i, r := range runs {
		opts := r.opts
		opts.Trace, opts.Profile = nil, nil
		sameOutcome(t, r.wl.Name()+"/"+opts.Design.String(), results[i], freshRun(t, r.wl, opts))
	}

	var want obs.FrameProfile
	freshRun(t, small, Options{Design: config.ATFIM, Profile: &want})
	prof.Build, want.Build = nil, nil
	got, _ := json.Marshal(prof)
	exp, _ := json.Marshal(want)
	if !bytes.Equal(got, exp) {
		t.Error("a profile built on a reused machine differs from a fresh engine's")
	}
}

// TestEngineConcurrentRunsOnOneKey runs one key from several goroutines on
// one engine: each run holds a machine of its own, and every result
// matches a fresh engine's.
func TestEngineConcurrentRunsOnOneKey(t *testing.T) {
	wl := workload.MustGet("wolf", 48, 36)
	opts := Options{Design: config.ATFIM, Shards: 2}
	want := freshRun(t, wl, opts)
	ctx := engineCtx(nil)
	const callers, rounds = 4, 3
	results := make([]*Result, callers*rounds)
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				res, err := RunContext(ctx, wl, opts)
				if err != nil {
					t.Error(err)
					return
				}
				results[c*rounds+r] = res
			}
		}(c)
	}
	wg.Wait()
	for i, r := range results {
		if r == nil {
			t.Fatalf("run %d returned no result", i)
		}
		sameOutcome(t, "concurrent run", r, want)
	}
}

// warmFrameBound is the steady-state allocation budget of one uncached
// doom3 160x120 frame on a warm engine: the returned image (77 KB) and
// frame counters, the bandwidth-histogram snapshot and the per-group
// merge. Rebuilding the machine per run cost ~1.9 MB (Baseline) and
// ~3.8 MB (A-TFIM) per frame.
const (
	warmFrameMaxBytes  = 256 << 10
	warmFrameMaxAllocs = 600
)

// TestWarmFrameAllocBound pins the steady state: once an engine has built
// a machine, a frame allocates only its result.
func TestWarmFrameAllocBound(t *testing.T) {
	if raceEnabled {
		t.Skip("-race instrumentation allocates")
	}
	wl := workload.MustGet("doom3", 160, 120)
	for _, d := range []config.Design{config.ATFIM, config.Baseline} {
		for _, shards := range []int{1, 2} {
			ctx := engineCtx(nil)
			opts := Options{Design: d, Shards: shards}
			run := func() {
				if _, err := RunContext(ctx, wl, opts); err != nil {
					t.Fatal(err)
				}
			}
			run()
			const n = 5
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < n; i++ {
				run()
			}
			runtime.ReadMemStats(&after)
			bytes := (after.TotalAlloc - before.TotalAlloc) / n
			allocs := (after.Mallocs - before.Mallocs) / n
			t.Logf("%v shards=%d: %d B and %d allocs per frame", d, shards, bytes, allocs)
			if bytes > warmFrameMaxBytes || allocs > warmFrameMaxAllocs {
				t.Errorf("%v shards=%d: %d B and %d allocs per warm frame, want <= %d B and <= %d",
					d, shards, bytes, allocs, warmFrameMaxBytes, warmFrameMaxAllocs)
			}
		}
	}
}

// BenchmarkSimulateWarm{ATFIM,Baseline} run one uncached doom3 160x120
// frame per iteration on a warm engine and read its metrics, as perfbench's
// frame workloads do.
func benchSimulateWarm(b *testing.B, d config.Design) {
	wl := workload.MustGet("doom3", 160, 120)
	ctx := WithEngine(context.Background(), NewEngine(EngineConfig{}))
	if _, err := RunContext(ctx, wl, Options{Design: d}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := RunContext(ctx, wl, Options{Design: d})
		if err != nil {
			b.Fatal(err)
		}
		r.Metrics()
	}
}

func BenchmarkSimulateWarmATFIM(b *testing.B)    { benchSimulateWarm(b, config.ATFIM) }
func BenchmarkSimulateWarmBaseline(b *testing.B) { benchSimulateWarm(b, config.Baseline) }
