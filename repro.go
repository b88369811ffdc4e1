// Package repro is the public API of the reproduction of "Processing-in-
// Memory Enabled Graphics Processors for 3D Rendering" (Xie et al., HPCA
// 2017). It exposes the four architectures the paper evaluates — the
// GDDR5 baseline GPU, B-PIM (HMC as plain memory), S-TFIM (all texture
// filtering in the HMC logic layer) and A-TFIM (anisotropic filtering
// moved into memory and reordered to run first) — over a functional,
// cycle-accounted rasterization GPU model, plus the complete evaluation
// harness that regenerates every figure and table of the paper.
//
// Quick start (v2 API — context-aware, functional options):
//
//	wl, _ := repro.Workload("doom3", 640, 480)
//	res, _ := repro.SimulateContext(ctx, wl, repro.WithDesign(repro.ATFIM))
//	fmt.Println(res.FPS(), res.TextureTraffic())
package repro

import (
	"context"
	"fmt"
	"io"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/quality"
	"repro/internal/workload"
)

// Design selects one of the paper's four architectures.
type Design = config.Design

// The four designs (Section VII compares them).
const (
	// Baseline is the GDDR5-backed GPU.
	Baseline = config.Baseline
	// BPIM uses an HMC as a plain, faster main memory.
	BPIM = config.BPIM
	// STFIM moves all texture units into the HMC logic layer.
	STFIM = config.STFIM
	// ATFIM moves (reordered) anisotropic filtering into the HMC.
	ATFIM = config.ATFIM
)

// Camera-angle thresholds from Section VII-D (radians).
const (
	Angle0005Pi   = config.Angle0005Pi
	Angle001Pi    = config.Angle001Pi
	Angle005Pi    = config.Angle005Pi
	Angle01Pi     = config.Angle01Pi
	AngleNoRecalc = config.AngleNoRecalc
)

// Options configures a simulation run.
type Options = core.Options

// Result is the outcome of a simulation run.
type Result = core.Result

// Experiment is a regenerated paper figure or table.
type Experiment = core.Experiment

// Tracer collects cycle-stamped spans from the simulator's instrumented
// units. Attach one via Options.Trace; export with WriteChromeTrace. A nil
// *Tracer is valid and inert, and tracing never changes simulated cycle
// counts.
type Tracer = obs.Tracer

// NewTracer builds a trace ring buffer holding up to capacity spans
// (capacity <= 0 selects obs.DefaultTraceCapacity).
func NewTracer(capacity int) *Tracer { return obs.NewTracer(capacity) }

// Snapshot is the stable machine-readable metrics document produced by
// Result.Metrics (schema obs.SchemaVersion).
type Snapshot = obs.Snapshot

// WorkloadSpec is one Table II benchmark.
type WorkloadSpec = workload.Workload

// Workload returns the named game workload at the given resolution.
// Games: doom3, fear, hl2, riddick, wolf.
func Workload(game string, w, h int) (WorkloadSpec, error) {
	return workload.Get(game, w, h)
}

// TableII returns the paper's full benchmark catalog.
func TableII() []WorkloadSpec { return workload.TableII() }

// Option configures a simulation (the v2 functional-option surface).
// Options compose left to right over the zero configuration (Baseline
// design, default thresholds, one frame, default shard count).
type Option func(*Options)

// WithDesign selects the architecture to simulate.
func WithDesign(d Design) Option { return func(o *Options) { o.Design = d } }

// WithShards shards the frame's tile-group scan across n worker
// goroutines (0 = GOMAXPROCS, 1 = serial). Results are byte-identical
// at any shard count; this is purely a host-speed knob.
func WithShards(n int) Option { return func(o *Options) { o.Shards = n } }

// WithAngleThreshold overrides the A-TFIM camera-angle threshold.
func WithAngleThreshold(t float32) Option { return func(o *Options) { o.AngleThreshold = t } }

// WithTracer attaches a cycle-timeline tracer to every instrumented unit.
func WithTracer(tr *Tracer) Option { return func(o *Options) { o.Trace = tr } }

// Progress is a point-in-time report of a frame simulation in flight:
// the pipeline stage, supertile groups merged so far, and cycles
// simulated.
type Progress = core.Progress

// WithProgress attaches a callback receiving in-flight reports while each
// frame simulates. Fragment-stage reports arrive from worker goroutines
// concurrently; fn must be safe for concurrent use and must not block.
// Progress can never perturb simulated results.
func WithProgress(fn func(Progress)) Option { return func(o *Options) { o.Progress = fn } }

// FrameProfile is the pim-render/frameprofile/v1 frame-anatomy artifact:
// per-meter bandwidth timelines merged onto the frame timeline, per-
// supertile-group attribution, and pipeline stage spans. Capture one with
// WithFrameProfile; serialize with its WriteJSON method.
type FrameProfile = obs.FrameProfile

// WithFrameProfile fills dst with a frame-anatomy profile after the run.
// Profiling is runtime-only like WithProgress: it is excluded from cache
// keys and stored results, and simulated outputs are byte-identical with
// and without it.
func WithFrameProfile(dst *FrameProfile) Option { return func(o *Options) { o.Profile = dst } }

// WithFrames renders n consecutive frames (default 1).
func WithFrames(n int) Option { return func(o *Options) { o.Frames = n } }

// WithFrameIndex selects the starting camera frame (default mid-flythrough).
func WithFrameIndex(i int) Option { return func(o *Options) { o.FrameIndex = i } }

// WithAnisoDisabled turns anisotropic filtering off (the Fig. 4 study).
func WithAnisoDisabled() Option { return func(o *Options) { o.DisableAniso = true } }

// WithCompression enables fixed-rate texture block compression.
func WithCompression() Option { return func(o *Options) { o.Compressed = true } }

// WithHMCCubes attaches n HMC cubes (Section V-E's multi-HMC scenario).
func WithHMCCubes(n int) Option { return func(o *Options) { o.HMCCubes = n } }

// WithLinearLayout forces row-major texel addressing (ablation).
func WithLinearLayout() Option { return func(o *Options) { o.LinearLayout = true } }

// WithConsolidationDisabled turns off Child Texel Consolidation (ablation).
func WithConsolidationDisabled() Option { return func(o *Options) { o.DisableConsolidation = true } }

// WithMTUs overrides the S-TFIM MTU count (ablation).
func WithMTUs(n int) Option { return func(o *Options) { o.MTUs = n } }

// NewOptions materializes a configuration from functional options.
func NewOptions(opts ...Option) Options {
	var o Options
	for _, fn := range opts {
		fn(&o)
	}
	return o
}

// SimulateContext renders the workload under the given options and
// returns its performance, traffic, energy and image measurements.
// Cancellation is observed between frames and at tile-group boundaries
// inside each frame; a canceled run returns ctx.Err().
func SimulateContext(ctx context.Context, wl WorkloadSpec, opts ...Option) (*Result, error) {
	return core.RunContext(ctx, wl, NewOptions(opts...))
}

// PSNR computes the peak signal-to-noise ratio between two rendered frames
// (the paper's Fig. 15 quality metric; identical frames return 99).
func PSNR(a, b []uint32) (float64, error) { return quality.PSNR(a, b) }

// WritePNG encodes a rendered frame (Result.Image) as a PNG.
func WritePNG(w io.Writer, pix []uint32, width, height int) error {
	return quality.WritePNG(w, pix, width, height)
}

// ExperimentDef is one registered experiment: a name plus a context-aware
// runner. Static experiments (tables, analytic figures) need no workloads
// or simulation sweep.
type ExperimentDef struct {
	// Name is the registry key ("fig12", "table1", ...).
	Name string
	// Static reports that the experiment runs without simulation and
	// ignores the workload set.
	Static bool

	run func(ctx context.Context, wls []WorkloadSpec) (*Experiment, error)
}

// Run regenerates the experiment over the workload set (ignored when
// Static). Cancellation propagates into every underlying simulation.
func (d ExperimentDef) Run(ctx context.Context, wls []WorkloadSpec) (*Experiment, error) {
	return d.run(ctx, wls)
}

// ExperimentRegistry is the typed v2 experiment catalog: every figure and
// table of the paper in presentation order, addressable by name.
type ExperimentRegistry struct {
	defs   []ExperimentDef
	byName map[string]ExperimentDef
}

func staticDef(name string, f func() *Experiment) ExperimentDef {
	return ExperimentDef{Name: name, Static: true,
		run: func(context.Context, []WorkloadSpec) (*Experiment, error) { return f(), nil }}
}

func sweepDef(name string, f func(context.Context, []workload.Workload) (*core.Experiment, error)) ExperimentDef {
	return ExperimentDef{Name: name,
		run: func(ctx context.Context, wls []WorkloadSpec) (*Experiment, error) { return f(ctx, wls) }}
}

var registry = newRegistry()

func newRegistry() *ExperimentRegistry {
	defs := []ExperimentDef{
		staticDef("table1", core.Table1Config),
		staticDef("table2", core.Table2Workloads),
		sweepDef("fig2", core.Fig2MemoryBreakdown),
		sweepDef("fig4", core.Fig4AnisoOff),
		sweepDef("fig5", core.Fig5BPIM),
		staticDef("fig7", core.Fig7TexelFetches),
		sweepDef("fig10", core.Fig10TextureSpeedup),
		sweepDef("fig11", core.Fig11RenderSpeedup),
		sweepDef("fig12", core.Fig12MemoryTraffic),
		sweepDef("fig13", core.Fig13Energy),
		sweepDef("fig14", core.Fig14ThresholdSpeedup),
		sweepDef("fig15", core.Fig15ThresholdQuality),
		sweepDef("fig16", core.Fig16Tradeoff),
		staticDef("overhead", core.OverheadAnalysis),
	}
	byName := make(map[string]ExperimentDef, len(defs))
	for _, d := range defs {
		byName[d.Name] = d
	}
	return &ExperimentRegistry{defs: defs, byName: byName}
}

// Registry returns the experiment catalog.
func Registry() *ExperimentRegistry { return registry }

// Names lists every experiment in presentation order.
func (r *ExperimentRegistry) Names() []string {
	names := make([]string, len(r.defs))
	for i, d := range r.defs {
		names[i] = d.Name
	}
	return names
}

// Get looks an experiment up by name.
func (r *ExperimentRegistry) Get(name string) (ExperimentDef, bool) {
	d, ok := r.byName[name]
	return d, ok
}

// Run regenerates one experiment by name over the given workload set
// (ignored by the static experiments).
func (r *ExperimentRegistry) Run(ctx context.Context, name string, wls []WorkloadSpec) (*Experiment, error) {
	d, ok := r.byName[name]
	if !ok {
		return nil, fmt.Errorf("repro: unknown experiment %q (have %v)", name, r.Names())
	}
	return d.Run(ctx, wls)
}

// ExperimentNames lists every experiment in presentation order.
func ExperimentNames() []string { return registry.Names() }

// QuickSet returns the default evaluation workload set (five games at
// 640x480 plus one 1280x1024 capture); FullSet returns all of Table II.
func QuickSet() []WorkloadSpec { return core.QuickSet() }

// FullSet returns the complete Table II workload set.
func FullSet() []WorkloadSpec { return core.FullSet() }

// MiniSet returns a small set for fast runs.
func MiniSet() []WorkloadSpec { return core.MiniSet() }
