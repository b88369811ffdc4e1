package core

import (
	"sync"
	"testing"

	"repro/internal/config"
	"repro/internal/store"
	"repro/internal/workload"
)

// TestEngineStoresAreIsolated runs one cell on two engines with different
// stores in one process: each store gets exactly one put, and neither
// engine's run cache serves the other's result.
func TestEngineStoresAreIsolated(t *testing.T) {
	wl := workload.MustGet("wolf", 48, 36)
	opts := Options{Design: config.BPIM}
	var stores [2]*store.Store
	var first [2]*Result
	for i := range stores {
		st, ctx := withStore(t)
		r, err := RunCachedContext(ctx, wl, opts)
		if err != nil {
			t.Fatal(err)
		}
		again, err := RunCachedContext(ctx, wl, opts)
		if err != nil {
			t.Fatal(err)
		}
		if again != r {
			t.Fatalf("engine %d: its own run cache did not serve the cell", i)
		}
		stores[i], first[i] = st, r
	}
	if first[0] == first[1] {
		t.Fatal("the second engine was served the first engine's cached result")
	}
	for i, st := range stores {
		if c := st.Counters(); c.Puts != 1 || c.Hits != 0 {
			t.Errorf("store %d: %+v, want exactly one put and no hits", i, c)
		}
	}
}

// TestRunCachedSingleFlight hammers RunCachedContext on one fresh engine
// with concurrent duplicate calls: every caller must get the same *Result
// pointer (one simulation, shared by all) with no data race.
func TestRunCachedSingleFlight(t *testing.T) {
	ctx := engineCtx(nil)
	wl := MiniSet()[0]
	opts := Options{Design: config.Baseline}

	const callers = 12
	results := make([]*Result, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r, err := RunCachedContext(ctx, wl, opts)
			if err != nil {
				t.Errorf("caller %d: %v", i, err)
				return
			}
			results[i] = r
		}(i)
	}
	wg.Wait()
	for i := 1; i < callers; i++ {
		if results[i] != results[0] {
			t.Fatalf("caller %d got a different *Result: duplicate in-flight simulation happened", i)
		}
	}
}
