package core

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/workload"
)

// The experiment sweeps (designSweep, thresholdSweep, the per-figure loops
// and suite runs) are embarrassingly parallel: every (workload, Options)
// cell is an independent simulation. Each sweep warms the run cache with
// one bounded fan-out over RunCachedContext, then aggregates serially.
// runFlight collapses duplicate cells, and the worker count is a single
// process-wide knob (paperbench -parallel).

var (
	sweepWorkers atomic.Int32 // 0 selects GOMAXPROCS
	sweepCells   atomic.Uint64
	sweepBusyNs  atomic.Int64
)

// SetSweepParallelism sets how many cells a sweep simulates at once;
// n <= 0 restores the default (GOMAXPROCS).
func SetSweepParallelism(n int) { sweepWorkers.Store(int32(n)) }

// sweepParallelism returns the number of cells a sweep simulates at once.
func sweepParallelism() int {
	if n := int(sweepWorkers.Load()); n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// SweepStats is the process's sweep activity so far.
type SweepStats struct {
	// Workers is the current sweep parallelism.
	Workers int
	// Cells counts the cells sweep fan-outs have run.
	Cells uint64
	// CellTime sums those cells' wall times: what running them one after
	// another would have taken.
	CellTime time.Duration
}

// SweepCounters snapshots sweep activity (paperbench's sweep: line).
func SweepCounters() SweepStats {
	return SweepStats{
		Workers:  sweepParallelism(),
		Cells:    sweepCells.Load(),
		CellTime: time.Duration(sweepBusyNs.Load()),
	}
}

// RunSpec is one independent simulation cell of a sweep.
type RunSpec struct {
	Workload workload.Workload
	Options  Options
}

// Prefetch warms the run cache by running the given cells through
// RunCachedContext on SetSweepParallelism goroutines under ctx. Identical
// cells (within this call or racing with another sweep) collapse into one
// simulation in runFlight. It returns the first error in cell order.
// After Prefetch returns nil, serial aggregation loops hit the cache; if
// an entry was evicted meanwhile, RunCached simply recomputes it, so
// correctness never depends on cache residency.
func Prefetch(ctx context.Context, specs []RunSpec) error {
	if len(specs) < 2 {
		return nil
	}
	errs := make([]error, len(specs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := min(sweepParallelism(), len(specs)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(specs); i = int(next.Add(1)) - 1 {
				start := time.Now()
				_, errs[i] = RunCachedContext(ctx, specs[i].Workload, specs[i].Options)
				sweepBusyNs.Add(int64(time.Since(start)))
				sweepCells.Add(1)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
