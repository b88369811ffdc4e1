// Package core wires the paper's four designs together (memory backend +
// texture path + GPU pipeline), runs workloads under them, and implements
// every evaluation experiment (the figures and tables of Section VII).
package core

import (
	"context"
	"fmt"
	"slices"
	"sync"

	"repro/internal/config"
	"repro/internal/dram"
	"repro/internal/energy"
	"repro/internal/farm/flight"
	"repro/internal/gpu"
	"repro/internal/hmc"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/scene"
	"repro/internal/texture"
	"repro/internal/tfim"
	"repro/internal/workload"
)

// Options configures one simulation run.
type Options struct {
	// Design selects the architecture.
	Design config.Design
	// AngleThreshold overrides the A-TFIM camera-angle threshold when > 0.
	AngleThreshold float32
	// DisableAniso reproduces the Fig. 4 study (anisotropic filtering off).
	DisableAniso bool
	// FrameIndex selects the camera frame (default: mid-flythrough).
	FrameIndex int
	// Frames renders this many consecutive frames (default 1).
	Frames int
	// LinearLayout forces row-major texel addressing (ablation).
	LinearLayout bool
	// DisableConsolidation turns off Child Texel Consolidation (ablation).
	DisableConsolidation bool
	// MTUs overrides the S-TFIM MTU count when > 0 (ablation).
	MTUs int
	// Compressed enables fixed-rate texture block compression (ablation;
	// not supported with A-TFIM).
	Compressed bool
	// HMCCubes sets the number of HMC cubes attached to the GPU (Section
	// V-E's multi-HMC scenario); 0 or 1 means a single cube.
	HMCCubes int
	// Shards is the number of worker goroutines sharding one frame's
	// tile-group scan (0 = the engine's shard default, 1 = serial).
	// Sharding is a host parallelization knob only: simulated results are
	// byte-identical at any shard count, so Shards is excluded from cache
	// and store keys.
	Shards int
	// Trace, when non-nil, receives cycle-timeline spans from every
	// instrumented unit (pipeline stages, texture units, offload packages,
	// DRAM/HMC bandwidth meters). Tracing never perturbs simulated cycle
	// counts. Export with Trace.WriteChromeTrace.
	Trace *obs.Tracer
	// Progress, when non-nil, receives in-flight reports (stage, supertile
	// groups merged, cycles simulated) while each frame runs. Fragment-
	// stage reports arrive from worker goroutines concurrently; the
	// callback must be safe for concurrent use and must not block. Like
	// Trace it is runtime-only: excluded from cache/store keys and never
	// serialized, and it cannot perturb simulated results.
	Progress func(Progress) `json:"-"`
	// Profile, when non-nil, is filled with a pim-render/frameprofile/v1
	// frame-anatomy artifact after the run: per-meter bandwidth timelines
	// merged onto the frame timeline, per-supertile-group attribution, and
	// stage spans. Runtime-only like Trace/Progress: excluded from cache
	// and store keys, never serialized, and incapable of perturbing
	// simulated results (it only reads meters the timing model already
	// populated).
	Profile *obs.FrameProfile `json:"-"`
}

// Progress is a point-in-time report of a frame simulation in flight.
type Progress = gpu.Progress

// Result is the outcome of one run.
type Result struct {
	Workload workload.Workload
	Design   config.Design
	Options  Options
	// Frame holds the (accumulated) measurements.
	Frame *gpu.FrameResult
	// Energy is the estimated energy of the run.
	Energy energy.Breakdown
	// Image is the last rendered frame.
	Image []uint32

	// bw is the frame-level backend's bandwidth-utilization histograms at
	// the end of the run, by meter name (nil when it has none).
	bw map[string][]float64

	// storedMetrics is the embedded pim-render/metrics/v1 snapshot of a
	// Result restored from the durable store (which has no live path or
	// backend to recompute one from); Metrics serves it verbatim.
	storedMetrics *obs.Snapshot
}

// Restored reports whether the result was loaded from the durable store
// rather than simulated in this process.
func (r *Result) Restored() bool { return r.storedMetrics != nil }

// TextureTraffic returns the texture-class bytes moved between GPU and
// memory (the Fig. 12 metric).
func (r *Result) TextureTraffic() uint64 { return r.Frame.Traffic.TextureBytes() }

// TotalTraffic returns all GPU<->memory bytes.
func (r *Result) TotalTraffic() uint64 { return r.Frame.Traffic.Total() }

// TexFilterLatency returns the mean texture-filtering latency in cycles.
func (r *Result) TexFilterLatency() float64 { return r.Frame.TexFilterLatency() }

// Cycles returns the total render time in GPU cycles.
func (r *Result) Cycles() int64 { return r.Frame.Cycles }

// ValidateOptions reports whether opts form a runnable configuration.
// cmd/pimfarm uses it to reject bad submissions with a 400 at submit time
// instead of queuing a job that is guaranteed to fail.
func ValidateOptions(opts Options) error { return buildConfig(opts).Validate() }

// buildConfig derives the design configuration from options.
func buildConfig(opts Options) config.Config {
	cfg := config.Default(opts.Design)
	if opts.AngleThreshold > 0 {
		cfg.TFIM.AngleThreshold = opts.AngleThreshold
	}
	if opts.DisableAniso {
		cfg.AnisoEnabled = false
	}
	if opts.LinearLayout {
		cfg.MortonLayout = false
	}
	if opts.DisableConsolidation {
		cfg.TFIM.Consolidate = false
	}
	if opts.MTUs > 0 {
		cfg.TFIM.MTUs = opts.MTUs
	}
	if opts.Compressed {
		cfg.TextureCompression = true
	}
	return cfg
}

// buildBackend constructs a design's memory system; cube is the backend
// when it is an HMC (nil on GDDR5).
func buildBackend(cfg config.Config, cubes int) (backend mem.Backend, cube hmc.Cube) {
	if cfg.Design == config.Baseline {
		d := dram.DefaultConfig()
		d.MemClockGHz = cfg.MemClockGHz
		return dram.New(d), nil
	}
	cube = newCube(cfg, cubes)
	return cube, cube
}

// buildPath constructs a design's texture path over its memory system.
func buildPath(cfg config.Config, backend mem.Backend, cube hmc.Cube) gpu.TexturePath {
	switch cfg.Design {
	case config.Baseline, config.BPIM:
		return tfim.NewBaselinePath(cfg, backend)
	case config.STFIM:
		return tfim.NewSTFIMPath(cfg, cube)
	case config.ATFIM:
		return tfim.NewATFIMPath(cfg, cube)
	default:
		panic(fmt.Sprintf("core: unknown design %v", cfg.Design))
	}
}

func newCube(cfg config.Config, cubes int) hmc.Cube {
	h := hmc.DefaultConfig()
	h.Vaults = cfg.HMCVaults
	h.BanksPerVault = cfg.HMCBanksPerVault
	h.ExternalGBs = cfg.HMCExternalGBs
	h.InternalGBs = cfg.HMCInternalGBs
	h.MemClockGHz = cfg.MemClockGHz
	if cubes > 1 {
		return hmc.NewArray(cubes, h)
	}
	return hmc.New(h)
}

// The scene cache memoizes generated scenes; scenes are immutable once
// addresses are assigned, so runs of different designs share them. The
// lock guards only the map: each key builds once on sceneFlight, so
// different scenes build at the same time.
var (
	sceneMu     sync.Mutex
	scenes      = map[string]*scene.Scene{}
	sceneFlight flight.Group[*scene.Scene]
)

// memoScene returns the scene cached under key, calling build once per key
// among concurrent callers on a miss.
func memoScene(key string, build func() *scene.Scene) *scene.Scene {
	load := func() *scene.Scene {
		sceneMu.Lock()
		defer sceneMu.Unlock()
		return scenes[key]
	}
	if sc := load(); sc != nil {
		return sc
	}
	sc, _, _ := sceneFlight.Do(key, func() (*scene.Scene, error) {
		// A build that finished between the miss above and this flight
		// has already stored the entry.
		if sc := load(); sc != nil {
			return sc, nil
		}
		sc := build()
		sceneMu.Lock()
		scenes[key] = sc
		sceneMu.Unlock()
		return sc, nil
	})
	return sc
}

// sharedScene returns the scene built from spec, whose Name is empty: the
// key is every field Generate reads (%#v, which bypasses String methods
// that could map two values to one string), so the resolutions of one game
// share a build. The compressed variant compresses copies of the uncompressed
// scene's textures; Compress reads only Pix, so the copies share it.
func sharedScene(spec scene.Spec, compressed bool) *scene.Scene {
	return memoScene(fmt.Sprintf("%#v/compressed=%v", spec, compressed), func() *scene.Scene {
		if !compressed {
			sc := scene.Generate(spec)
			sc.AssignTextureAddresses(mem.RegionTexture)
			return sc
		}
		base := sharedScene(spec, false)
		sc := *base
		sc.Textures = make([]*texture.Texture, len(base.Textures))
		for i, tx := range base.Textures {
			c := *tx
			c.Levels = slices.Clone(tx.Levels)
			c.Compress()
			sc.Textures[i] = &c
		}
		sc.AssignTextureAddresses(mem.RegionTexture)
		return &sc
	})
}

// cachedScene returns the shared scene for spec in a shallow copy that
// carries spec.Name; nothing in the simulator reads Scene.Name.
func cachedScene(spec scene.Spec, compressed bool) *scene.Scene {
	name := spec.Name
	spec.Name = ""
	sc := *sharedScene(spec, compressed)
	sc.Name = name
	return &sc
}

// Run simulates a workload under the given options and returns its
// measurements.
func Run(wl workload.Workload, opts Options) (*Result, error) {
	return RunContext(context.Background(), wl, opts)
}

// RunContext is Run with cancellation: the context is checked between
// frames and at tile-group boundaries inside each frame, so an abandoned
// run stops within one group's worth of work.
func RunContext(ctx context.Context, wl workload.Workload, opts Options) (*Result, error) {
	cfg := buildConfig(opts)
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	spec := wl.Spec
	if !cfg.MortonLayout {
		spec.Layout = texture.LayoutLinear
	}
	return runScene(ctx, cachedScene(spec, cfg.TextureCompression), wl, cfg, opts)
}

// RunScene simulates a pre-built scene (used by trace replay and tests).
func RunScene(sc *scene.Scene, wl workload.Workload, opts Options) (*Result, error) {
	cfg := buildConfig(opts)
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return runScene(context.Background(), sc, wl, cfg, opts)
}

func runScene(ctx context.Context, sc *scene.Scene, wl workload.Workload, cfg config.Config, opts Options) (*Result, error) {
	e := engineFrom(ctx)
	key := machineKey{cfg: cfg, cubes: max(opts.HMCCubes, 1), width: wl.Width, height: wl.Height}
	m := e.machines.get(key)
	defer e.machines.put(key, m)
	pipe := m.pipe
	pipe.Shards = opts.Shards // below 1 runs one worker
	if pipe.Shards == 0 {
		pipe.Shards = e.shards()
	}
	pipe.Progress = m.onProgress
	if user := opts.Progress; user != nil {
		onProgress := m.onProgress
		pipe.Progress = func(pr gpu.Progress) {
			onProgress(pr)
			user(pr)
		}
	}
	observers := []gpu.Observer{m.gauges}
	if opts.Trace != nil {
		observers = append(observers, gpu.TraceObserver(opts.Trace, pipe.Backend))
	}
	var profiler *gpu.FrameProfiler
	if opts.Profile != nil {
		profiler = &gpu.FrameProfiler{}
		observers = append(observers, profiler)
	}
	pipe.Observer = gpu.Observers(observers...)

	frames := opts.Frames
	if frames < 1 {
		frames = 1
	}
	start := opts.FrameIndex
	if start == 0 {
		start = len(sc.Cameras) / 2
	}
	if start >= len(sc.Cameras) {
		start = len(sc.Cameras) - 1
	}

	var acc *gpu.FrameResult
	for f := 0; f < frames; f++ {
		idx := start + f
		if idx >= len(sc.Cameras) {
			idx = len(sc.Cameras) - 1
		}
		res, err := pipe.RenderFrameContext(ctx, sc, idx)
		if err != nil {
			return nil, err
		}
		// Fill the external/internal byte counts for the energy model; the
		// pipeline already merged the worker cubes' internal bytes, the
		// frame-level cube adds the geometry/resolve share.
		res.Activity.ExternalBytes = res.Traffic.Total()
		if m.cube != nil {
			res.Activity.InternalBytes += m.cube.TotalStats().VaultBytes
		}
		if acc == nil {
			acc = res
		} else {
			acc.Accumulate(res)
		}
	}

	model := energy.DefaultModel()
	model.ClockGHz = cfg.GPU.ClockGHz
	bd := model.Estimate(acc, cfg.UsesHMC())

	if opts.Profile != nil {
		build := obs.Build()
		*opts.Profile = obs.FrameProfile{
			Schema:     obs.FrameProfileSchema,
			Workload:   wl.Name(),
			Design:     cfg.Design.String(),
			SimVersion: SimVersion,
			Build:      &build,
			Frames:     profiler.Frames(),
		}
	}

	// The last frame's bandwidth histograms, read before the machine goes
	// back to the pool.
	var bw map[string][]float64
	if hs, ok := pipe.Backend.(obs.HistogramSource); ok {
		bw = hs.UtilizationHistograms(metricsHistogramBins)
	}
	return &Result{
		Workload: wl,
		Design:   cfg.Design,
		Options:  opts,
		Frame:    acc,
		Energy:   bd,
		Image:    acc.Image,
		bw:       bw,
	}, nil
}
