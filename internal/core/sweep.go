package core

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/workload"
)

// The experiment sweeps (designSweep, thresholdSweep, the per-figure loops
// and suite runs) are embarrassingly parallel: every (workload, Options)
// cell is an independent simulation. Each sweep warms the run cache with
// one bounded fan-out over RunCachedContext, then aggregates serially.
// The engine on the sweep's context collapses duplicate cells and sets the
// worker count (paperbench -parallel).

// SweepStats is an engine's sweep activity so far.
type SweepStats struct {
	// Workers is the engine's sweep parallelism.
	Workers int
	// Cells counts the cells sweep fan-outs have run.
	Cells uint64
	// CellTime sums those cells' wall times: what running them one after
	// another would have taken.
	CellTime time.Duration
	// Span is the wall time during which at least one fan-out ran, so
	// CellTime/Span is the speedup the fan-out delivered.
	Span time.Duration
}

// sweepSpan measures the wall time covered by an engine's fan-outs:
// overlapping fan-outs count once.
type sweepSpan struct {
	mu     sync.Mutex
	active int
	start  time.Time
	total  time.Duration
}

func (s *sweepSpan) begin() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.active == 0 {
		s.start = time.Now()
	}
	s.active++
}

func (s *sweepSpan) end() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.active--
	if s.active == 0 {
		s.total += time.Since(s.start)
	}
}

// covered returns the finished fan-outs' span plus the running one's so far.
func (s *sweepSpan) covered() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.active > 0 {
		return s.total + time.Since(s.start)
	}
	return s.total
}

// SweepCounters snapshots e's sweep activity (paperbench's sweep: line).
func (e *Engine) SweepCounters() SweepStats {
	return SweepStats{
		Workers:  e.sweepWidth(),
		Cells:    e.cells.Load(),
		CellTime: time.Duration(e.busyNs.Load()),
		Span:     e.span.covered(),
	}
}

// RunSpec is one independent simulation cell of a sweep.
type RunSpec struct {
	Workload workload.Workload
	Options  Options
}

// Prefetch warms the run cache by running the given cells through
// RunCachedContext under ctx, on as many goroutines as the sweep width of
// ctx's engine (WithEngine; the default engine's is GOMAXPROCS). Identical
// cells (within this call or racing with another sweep on the same engine)
// collapse into one simulation. It returns the first error in cell order.
// After Prefetch returns nil, serial aggregation loops hit the cache; if
// an entry was evicted meanwhile, RunCached simply recomputes it, so
// correctness never depends on cache residency.
func Prefetch(ctx context.Context, specs []RunSpec) error {
	if len(specs) < 2 {
		return nil
	}
	e := engineFrom(ctx)
	e.span.begin()
	defer e.span.end()
	errs := make([]error, len(specs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := min(e.sweepWidth(), len(specs)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(specs); i = int(next.Add(1)) - 1 {
				start := time.Now()
				_, errs[i] = RunCachedContext(ctx, specs[i].Workload, specs[i].Options)
				e.busyNs.Add(int64(time.Since(start)))
				e.cells.Add(1)
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
