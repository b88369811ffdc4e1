package core

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"testing"

	"repro/internal/config"
)

// TestShardedFrameMatchesSerial is the tentpole acceptance criterion: the
// sharded tile-group scan is a pure host-speed knob, so for every design a
// frame simulated at any shard count is byte-identical to the serial run —
// same framebuffer bytes, same metrics snapshot (cycles, traffic, cache
// stats, energy, histograms). Runs go through RunContext directly because
// the run cache deliberately ignores Shards (equal results, equal key).
func TestShardedFrameMatchesSerial(t *testing.T) {
	wl := miniWorkload(t)
	for _, d := range config.AllDesigns() {
		d := d
		t.Run(d.String(), func(t *testing.T) {
			serial, err := RunContext(context.Background(), wl, Options{Design: d, Shards: 1})
			if err != nil {
				t.Fatal(err)
			}
			var serialSnap bytes.Buffer
			if err := serial.Metrics().WriteJSON(&serialSnap); err != nil {
				t.Fatal(err)
			}
			for _, shards := range []int{2, 8} {
				sharded, err := RunContext(context.Background(), wl, Options{Design: d, Shards: shards})
				if err != nil {
					t.Fatal(err)
				}
				if len(sharded.Image) != len(serial.Image) {
					t.Fatalf("shards=%d: image length %d vs %d", shards, len(sharded.Image), len(serial.Image))
				}
				for i := range sharded.Image {
					if sharded.Image[i] != serial.Image[i] {
						t.Fatalf("shards=%d: framebuffer diverges at pixel %d: %08x vs %08x",
							shards, i, sharded.Image[i], serial.Image[i])
					}
				}
				if sharded.Cycles() != serial.Cycles() {
					t.Fatalf("shards=%d: cycles %d vs serial %d", shards, sharded.Cycles(), serial.Cycles())
				}
				var snap bytes.Buffer
				if err := sharded.Metrics().WriteJSON(&snap); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(snap.Bytes(), serialSnap.Bytes()) {
					t.Fatalf("shards=%d: metrics snapshot differs from serial run", shards)
				}
			}
		})
	}
}

// TestRunContextCanceled: a canceled context aborts the run before any
// simulation work and surfaces the context's error.
func TestRunContextCanceled(t *testing.T) {
	wl := miniWorkload(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunContext(ctx, wl, Options{Design: config.ATFIM}); !errors.Is(err, context.Canceled) {
		t.Fatalf("RunContext on canceled ctx err = %v, want context.Canceled", err)
	}
	if _, err := RunCachedContext(ctx, wl, Options{Design: config.ATFIM}); !errors.Is(err, context.Canceled) {
		t.Fatalf("RunCachedContext on canceled ctx err = %v, want context.Canceled", err)
	}
}

// TestDefaultShards pins how an engine resolves its shard default and
// sweep width: 0 or negative selects GOMAXPROCS, positive values stick.
// DefaultShards is the default engine's.
func TestDefaultShards(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	for _, n := range []int{0, -1} {
		e := NewEngine(EngineConfig{Shards: n, Parallelism: n})
		if e.shards() != procs || e.sweepWidth() != procs {
			t.Fatalf("engine of %d: shards %d, sweep width %d; want GOMAXPROCS %d",
				n, e.shards(), e.sweepWidth(), procs)
		}
	}
	e := NewEngine(EngineConfig{Shards: 3, Parallelism: 2})
	if e.shards() != 3 || e.sweepWidth() != 2 {
		t.Fatalf("engine of 3 shards, 2 wide: shards %d, sweep width %d", e.shards(), e.sweepWidth())
	}
	if got := DefaultShards(); got != procs {
		t.Fatalf("DefaultShards = %d, want GOMAXPROCS %d", got, procs)
	}
}
