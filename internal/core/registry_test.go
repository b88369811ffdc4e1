package core_test

import (
	"context"
	"runtime"
	"testing"

	"repro"
	"repro/internal/core"
	"repro/internal/store"
)

// newEngine builds a private engine of the given sweep width over a fresh
// store in tb's temp directory.
func newEngine(tb testing.TB, parallelism int) (*core.Engine, *store.Store) {
	tb.Helper()
	st, err := store.Open(store.Config{Dir: tb.TempDir()})
	if err != nil {
		tb.Fatal(err)
	}
	return core.NewEngine(core.EngineConfig{Store: st, Parallelism: parallelism}), st
}

// TestEngineCarriesThroughRegistry: a registry sweep run under WithEngine
// writes every cell into that engine's store and counts them in that
// engine's sweep stats only; the default engine and a bystander engine's
// store see nothing.
func TestEngineCarriesThroughRegistry(t *testing.T) {
	e, st := newEngine(t, 2)
	_, bystander := newEngine(t, 0)
	before := core.DefaultEngine.SweepCounters()

	wls := repro.MiniSet()
	if _, err := repro.Registry().Run(core.WithEngine(context.Background(), e), "fig10", wls); err != nil {
		t.Fatal(err)
	}
	cells := uint64(4 * len(wls)) // fig10 sweeps the four designs
	if c := st.Counters(); c.Puts != cells {
		t.Errorf("engine's store puts = %d, want %d", c.Puts, cells)
	}
	if c := bystander.Counters(); c.Puts != 0 || c.Hits+c.Misses != 0 {
		t.Errorf("bystander store touched: %+v", c)
	}
	if s := e.SweepCounters(); s.Cells != cells || s.Workers != 2 {
		t.Errorf("engine sweep stats = %+v, want %d cells on 2 workers", s, cells)
	}
	if after := core.DefaultEngine.SweepCounters(); after != before {
		t.Errorf("default engine's sweep stats moved: %+v -> %+v", before, after)
	}
}

// benchmarkFig10Sweep times one full fig10 design sweep over core.MiniSet
// (12 simulations) at the given sweep width. Each iteration runs on a
// fresh private engine without a store, so it really simulates; the
// serial/parallel pair shows what the sweep fan-out buys on this host.
func benchmarkFig10Sweep(b *testing.B, parallelism int) {
	wls := core.MiniSet()
	for i := 0; i < b.N; i++ {
		ctx := core.WithEngine(context.Background(), core.NewEngine(core.EngineConfig{Parallelism: parallelism}))
		if _, err := repro.Registry().Run(ctx, "fig10", wls); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig10SweepSerial(b *testing.B) { benchmarkFig10Sweep(b, 1) }

func BenchmarkFig10SweepParallel(b *testing.B) {
	benchmarkFig10Sweep(b, runtime.GOMAXPROCS(0))
}

// BenchmarkFig10SweepColdStore measures the durable store's write-through
// overhead: every iteration simulates the full serial sweep into a fresh
// store directory. Compare against BenchmarkFig10SweepSerial for the
// persistence tax and BenchmarkFig10SweepWarmStore for the payoff.
func BenchmarkFig10SweepColdStore(b *testing.B) {
	wls := core.MiniSet()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		e, _ := newEngine(b, 1)
		b.StartTimer()
		if _, err := repro.Registry().Run(core.WithEngine(context.Background(), e), "fig10", wls); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig10SweepWarmStore measures a fully persisted serial rerun:
// the store is populated once, then every iteration sweeps again on a
// fresh engine over it (a simulated restart), so all results load from
// disk and no simulation runs.
func BenchmarkFig10SweepWarmStore(b *testing.B) {
	wls := core.MiniSet()
	e, st := newEngine(b, 1)
	if _, err := repro.Registry().Run(core.WithEngine(context.Background(), e), "fig10", wls); err != nil {
		b.Fatal(err)
	}
	if st.Counters().Puts == 0 {
		b.Fatal("warm-up populated nothing")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx := core.WithEngine(context.Background(), core.NewEngine(core.EngineConfig{Store: st, Parallelism: 1}))
		if _, err := repro.Registry().Run(ctx, "fig10", wls); err != nil {
			b.Fatal(err)
		}
	}
	if c := st.Counters(); c.Hits == 0 {
		b.Fatal("warm sweep never hit the store")
	}
}
