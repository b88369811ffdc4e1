package main

import (
	"context"
	"encoding/json"
	"testing"

	"repro/internal/core"
	"repro/internal/farm/dist"
	"repro/internal/obs/telem"
	"repro/internal/store"
	"repro/internal/suite"
)

// BenchmarkWorkerColdJob is one cold job on a worker below the wire:
// execGrant resolves the spec, simulates, writes the store and produces
// the payload the worker ships. Each iteration gets a fresh temp store
// (opened outside the timer), so every job misses and writes. The cell is
// doom3 at 160x120 on A-TFIM; its scene is built before the timer starts.
func BenchmarkWorkerColdJob(b *testing.B) {
	spec := json.RawMessage(`{"game":"doom3","width":160,"height":120,"design":"atfim"}`)
	var req suite.Spec
	if err := json.Unmarshal(spec, &req); err != nil {
		b.Fatal(err)
	}
	rv, err := req.Resolve()
	if err != nil {
		b.Fatal(err)
	}
	g := &dist.Grant{Job: "bench", Key: rv.Key, Spec: spec}
	run := func(ctx context.Context) {
		payload, _, err := execGrant(ctx, g, func(any) {})
		if err != nil || len(payload) == 0 {
			b.Fatalf("execGrant: %d payload bytes, %v", len(payload), err)
		}
	}
	run(context.Background()) // builds and caches the scene
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		st, err := store.Open(store.Config{Dir: b.TempDir(), Metrics: telem.NewRegistry()})
		if err != nil {
			b.Fatal(err)
		}
		ctx := core.WithEngine(context.Background(), core.NewEngine(core.EngineConfig{Store: st}))
		b.StartTimer()
		run(ctx)
	}
}
