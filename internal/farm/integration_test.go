package farm_test

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/farm"
)

// TestFarmSweepMatchesSerial is the determinism contract behind the
// parallel sweeps: many concurrent duplicate + distinct submissions of
// real simulations must (a) execute each distinct (workload, options) cell
// exactly once and (b) produce results identical to a serial core.Run of
// the same cell. Run under -race this also vets the simulator's
// thread-safety for concurrent independent runs.
func TestFarmSweepMatchesSerial(t *testing.T) {
	wls := core.MiniSet()
	opts := core.Options{Design: config.Baseline}

	// Serial reference, fresh runs outside any cache.
	serial := make([]*core.Result, len(wls))
	for i, wl := range wls {
		r, err := core.Run(wl, opts)
		if err != nil {
			t.Fatalf("serial %s: %v", wl.Name(), err)
		}
		serial[i] = r
	}

	f := farm.New(farm.Config{})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		if err := f.Close(ctx); err != nil {
			t.Fatal(err)
		}
	}()

	const dupsPerCell = 4
	execs := make([]atomic.Int32, len(wls))
	var wg sync.WaitGroup
	jobs := make([]*farm.Job, len(wls)*dupsPerCell)
	errs := make([]error, len(jobs))
	for d := 0; d < dupsPerCell; d++ {
		for i, wl := range wls {
			idx := d*len(wls) + i
			i, wl := i, wl
			wg.Add(1)
			go func() {
				defer wg.Done()
				jobs[idx], errs[idx] = f.Submit(farm.Task{
					Key:   core.CacheKey(wl, opts),
					Label: fmt.Sprintf("%s/baseline", wl.Name()),
					Run: func(context.Context) (any, error) {
						execs[i].Add(1)
						return core.Run(wl, opts)
					},
				})
			}()
		}
	}
	wg.Wait()
	for idx, err := range errs {
		if err != nil {
			t.Fatalf("submit %d: %v", idx, err)
		}
	}

	for idx, j := range jobs {
		v, err := j.Wait(context.Background())
		if err != nil {
			t.Fatalf("job %d (%s): %v", idx, j.Label(), err)
		}
		got := v.(*core.Result)
		want := serial[idx%len(wls)]
		assertResultsEqual(t, j.Label(), got, want)
	}
	for i, wl := range wls {
		if n := execs[i].Load(); n != 1 {
			t.Errorf("%s simulated %d times across %d duplicate submissions, want exactly 1",
				wl.Name(), n, dupsPerCell)
		}
	}
}

// assertResultsEqual compares every externally observable measurement of
// two runs: cycle count, traffic, energy, and the rendered frame itself.
func assertResultsEqual(t *testing.T, label string, got, want *core.Result) {
	t.Helper()
	if got.Cycles() != want.Cycles() {
		t.Errorf("%s: cycles %d != serial %d", label, got.Cycles(), want.Cycles())
	}
	if got.TextureTraffic() != want.TextureTraffic() {
		t.Errorf("%s: texture traffic %d != serial %d", label, got.TextureTraffic(), want.TextureTraffic())
	}
	if got.TotalTraffic() != want.TotalTraffic() {
		t.Errorf("%s: total traffic %d != serial %d", label, got.TotalTraffic(), want.TotalTraffic())
	}
	if got.Energy.Total() != want.Energy.Total() {
		t.Errorf("%s: energy %f != serial %f", label, got.Energy.Total(), want.Energy.Total())
	}
	if len(got.Image) != len(want.Image) {
		t.Errorf("%s: image size %d != serial %d", label, len(got.Image), len(want.Image))
		return
	}
	for p := range got.Image {
		if got.Image[p] != want.Image[p] {
			t.Errorf("%s: frame differs from serial render at pixel %d", label, p)
			return
		}
	}
}
