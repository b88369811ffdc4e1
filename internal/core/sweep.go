package core

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/farm"
	"repro/internal/workload"
)

// The experiment sweeps (designSweep, thresholdSweep, and the per-figure
// loops) are embarrassingly parallel: every (workload, Options) cell is an
// independent simulation. They all funnel through one shared farm scheduler
// so duplicate cells collapse (farm singleflight + RunCached) and the
// worker count is a single process-wide knob (paperbench -parallel).

var (
	sweepMu      sync.Mutex
	sweepFarmVar *farm.Farm
	sweepWorkers int // 0 selects GOMAXPROCS
)

// SetSweepParallelism sets the worker count used for experiment sweeps;
// n <= 0 restores the default (GOMAXPROCS). Any existing scheduler is
// drained in the background and a fresh one is built on next use.
func SetSweepParallelism(n int) {
	sweepMu.Lock()
	defer sweepMu.Unlock()
	if f := sweepFarmVar; f != nil {
		sweepFarmVar = nil
		go f.Close(context.Background())
	}
	sweepWorkers = n
}

// SweepFarm returns the shared sweep scheduler, building it on first use.
// Its result cache is disabled: RunCached is the memoization layer, the
// farm adds scheduling and in-flight dedup.
func SweepFarm() *farm.Farm {
	sweepMu.Lock()
	defer sweepMu.Unlock()
	if sweepFarmVar == nil {
		sweepFarmVar = farm.New(farm.Config{
			Workers:  sweepWorkers,
			CacheCap: -1,
		})
	}
	return sweepFarmVar
}

// runSpec is one independent simulation cell of a sweep.
type runSpec struct {
	wl   workload.Workload
	opts Options
}

// prefetch warms the run cache by executing the given cells on the sweep
// farm. Identical cells (within this call or racing with another sweep)
// collapse into one simulation via the farm's singleflight plus
// RunCached's. After prefetch returns nil, serial aggregation loops hit
// the cache; if an entry was evicted meanwhile, RunCached simply
// recomputes it, so correctness never depends on cache residency.
func prefetch(ctx context.Context, specs []runSpec) error {
	if len(specs) < 2 {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	f := SweepFarm()
	jobs := make([]*farm.Job, 0, len(specs))
	for _, sp := range specs {
		sp := sp
		j, err := f.Submit(ctx, farm.Task{
			Key:   cacheKey(sp.wl, sp.opts),
			Label: fmt.Sprintf("%s/%s", sp.wl.Name(), sp.opts.Design),
			Run: func(runCtx context.Context) (any, error) {
				r, err := RunCachedContext(runCtx, sp.wl, sp.opts)
				if err != nil {
					return nil, err
				}
				return r, nil
			},
		})
		if err != nil {
			return err
		}
		jobs = append(jobs, j)
	}
	var firstErr error
	for _, j := range jobs {
		if _, err := j.Wait(ctx); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
