package core

import (
	"context"
	"runtime"
	"sync/atomic"

	"repro/internal/farm/flight"
	"repro/internal/farm/lru"
	"repro/internal/store"
)

// EngineConfig is what a process sets on the runs it starts.
type EngineConfig struct {
	Store       *store.Store // read before simulating and written after; nil for none
	Shards      int          // applied when Options.Shards is zero; <= 0 selects GOMAXPROCS
	Parallelism int          // cells a sweep simulates at once; <= 0 selects GOMAXPROCS
}

// Engine owns the state runs share: its configuration, which never changes
// after NewEngine, the run cache (Figs 10-13 share one sweep; Figs 14-16
// share the threshold sweep), the sweep counters and the idle simulated
// machines runs borrow (machinePool). The cache is an LRU
// of DefaultRunCacheCap entries, and its flight group collapses concurrent
// computations of one key into one simulation. Core finds the engine on
// the context (WithEngine); a context without one runs on a default engine
// with no store and GOMAXPROCS widths.
type Engine struct {
	cfg      EngineConfig
	cache    *lru.Cache[*Result]
	flight   flight.Group[*Result]
	machines machinePool
	cells    atomic.Uint64
	busyNs   atomic.Int64
	span     sweepSpan
}

// NewEngine builds an engine with an empty run cache.
func NewEngine(cfg EngineConfig) *Engine {
	return &Engine{cfg: cfg, cache: lru.New[*Result](DefaultRunCacheCap)}
}

var defaultEngine = NewEngine(EngineConfig{})

type engineKey struct{}

// WithEngine returns ctx carrying e for the runs under it; nil selects the
// default engine.
func WithEngine(ctx context.Context, e *Engine) context.Context {
	return context.WithValue(ctx, engineKey{}, e)
}

func engineFrom(ctx context.Context) *Engine {
	if e, _ := ctx.Value(engineKey{}).(*Engine); e != nil {
		return e
	}
	return defaultEngine
}

// DefaultShards returns the shard count applied when Options.Shards is
// zero on a context without an engine: GOMAXPROCS.
func DefaultShards() int { return defaultEngine.shards() }

func (e *Engine) shards() int     { return orGOMAXPROCS(e.cfg.Shards) }
func (e *Engine) sweepWidth() int { return orGOMAXPROCS(e.cfg.Parallelism) }

func orGOMAXPROCS(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}
