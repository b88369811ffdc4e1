package core

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/gpu"
	"repro/internal/workload"
)

// TestPrefetchBoundsAndDedups pins the sweep fan-out's contract: on an
// engine of Parallelism 2 two cells simulate at once and never more, and
// duplicate cells collapse so each distinct cell simulates exactly once.
func TestPrefetchBoundsAndDedups(t *testing.T) {
	e := NewEngine(EngineConfig{Parallelism: 2})
	wl := workload.MustGet("wolf", 48, 36)
	designs := []config.Design{config.Baseline, config.BPIM, config.STFIM, config.ATFIM}

	var (
		mu           sync.Mutex
		active, peak int
		sims         = make([]int, len(designs))
		overlap      = make(chan struct{})
		overlapOnce  sync.Once
	)
	var specs []RunSpec
	for dup := 0; dup < 3; dup++ {
		for i, d := range designs {
			opts := Options{Design: d, Shards: 1}
			opts.Progress = func(p Progress) {
				switch p.Stage {
				case gpu.StageGeometry:
					mu.Lock()
					sims[i]++
					active++
					peak = max(peak, active)
					if active == 2 {
						overlapOnce.Do(func() { close(overlap) })
					}
					mu.Unlock()
					// Hold the first cell until a second one is simulating
					// beside it, so the peak shows real overlap.
					select {
					case <-overlap:
					case <-time.After(10 * time.Second):
					}
				case gpu.StageDone:
					mu.Lock()
					active--
					mu.Unlock()
				}
			}
			specs = append(specs, RunSpec{wl, opts})
		}
	}
	before := e.SweepCounters()
	start := time.Now()
	if err := Prefetch(WithEngine(context.Background(), e), specs); err != nil {
		t.Fatal(err)
	}
	wall := time.Since(start)
	if peak != 2 {
		t.Errorf("peak concurrent simulations = %d, want 2", peak)
	}
	for i, n := range sims {
		if n != 1 {
			t.Errorf("%s simulated %d times, want exactly once", designs[i], n)
		}
	}
	after := e.SweepCounters()
	if cells := after.Cells - before.Cells; cells != uint64(len(specs)) {
		t.Errorf("sweep counted %d cells, want %d", cells, len(specs))
	}
	if after.Workers != 2 || after.CellTime <= before.CellTime {
		t.Errorf("sweep counters = %+v (before %+v)", after, before)
	}
	// The fan-out's span lies inside the call, and two workers cannot
	// spend more than twice the span in cells.
	span, cellTime := after.Span-before.Span, after.CellTime-before.CellTime
	if span <= 0 || span > wall || cellTime > 2*span {
		t.Errorf("sweep span %v for %v of cell time over a %v call", span, cellTime, wall)
	}
}
