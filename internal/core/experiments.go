package core

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/area"
	"repro/internal/config"
	"repro/internal/mem"
	"repro/internal/quality"
	"repro/internal/stats"
	"repro/internal/texture"
	"repro/internal/workload"
)

// Workload sets used by the evaluation harness. The paper runs the full
// Table II; the bench harness defaults to a quick set (five games at
// 640x480 plus one high-resolution capture) to keep turnaround reasonable,
// and a mini set under -short.

// FullSet returns the complete Table II catalog.
func FullSet() []workload.Workload { return workload.TableII() }

// QuickSet returns the five games at 640x480 plus doom3 at 1280x1024.
func QuickSet() []workload.Workload {
	wls := workload.FiveGames()
	wls = append(wls, workload.MustGet("doom3", 1280, 1024))
	return wls
}

// MiniSet returns three small captures for -short test runs.
func MiniSet() []workload.Workload {
	return []workload.Workload{
		workload.MustGet("doom3", 320, 240),
		workload.MustGet("fear", 320, 240),
		workload.MustGet("hl2", 320, 240),
	}
}

// DefaultRunCacheCap bounds the cross-experiment memoization cache. The
// quick workload set needs ~60 distinct cells; the full Table II sweep
// stays comfortably under this too.
const DefaultRunCacheCap = 512

// CacheKey returns the memoization key identifying a (workload, Options)
// simulation — the identity the farm dedups and caches on (cmd/pimfarm
// keys its jobs with it).
func CacheKey(wl workload.Workload, opts Options) string { return cacheKey(wl, opts) }

func cacheKey(wl workload.Workload, opts Options) string {
	return fmt.Sprintf("%s/%d/%.5f/%v/%v/%v/%v/%d/%d/%d/%d",
		wl.Name(), opts.Design, opts.AngleThreshold, opts.DisableAniso,
		opts.LinearLayout, opts.DisableConsolidation, opts.Compressed,
		opts.MTUs, opts.FrameIndex, opts.Frames, opts.HMCCubes)
}

// RunCached is Run with cross-experiment memoization and optional durable
// persistence on the default engine: the memory LRU in front of
// runStored's store → compute → write chain, with the singleflight group
// spanning every tier so at most one lookup-or-simulation per key is ever
// in flight. Corrupt or stale store entries simply miss and are recomputed
// and rewritten.
func RunCached(wl workload.Workload, opts Options) (*Result, error) {
	return RunCachedContext(context.Background(), wl, opts)
}

// RunCachedContext is RunCached on ctx's engine (WithEngine), with
// cancellation. The caller's context is checked before any tier is
// consulted and threaded into the simulation; a follower whose
// singleflight leader was canceled retries with its own live context
// instead of inheriting the foreign cancellation.
func RunCachedContext(ctx context.Context, wl workload.Workload, opts Options) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	e := engineFrom(ctx)
	key := cacheKey(wl, opts)
	if r, ok := e.cache.Get(key); ok {
		runCacheOutcome("memory")
		return r, nil
	}
	for {
		r, err, shared := e.flight.Do(key, func() (*Result, error) {
			// Re-check under the flight: a call that completed between our
			// cache miss and winning the flight may have filled the entry.
			if r, ok := e.cache.Get(key); ok {
				runCacheOutcome("memory")
				return r, nil
			}
			r, _, err := e.runStored(ctx, wl, opts, key)
			if err != nil {
				return nil, err
			}
			e.cache.Add(key, r)
			return r, nil
		})
		if err != nil && shared && ctx.Err() == nil &&
			(errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
			// The leader we shared was canceled but we were not: retry.
			continue
		}
		return r, err
	}
}

// Experiment bundles a rendered table with headline summary numbers
// (keyed aggregates the tests and EXPERIMENTS.md assert on).
type Experiment struct {
	Name    string
	Table   *stats.Table
	Summary map[string]float64
}

// Fig2MemoryBreakdown reproduces Fig. 2: the share of memory traffic by
// access class under the baseline, per workload. The paper reports texture
// fetches averaging ~60% of total traffic.
func Fig2MemoryBreakdown(ctx context.Context, wls []workload.Workload) (*Experiment, error) {
	tab := stats.NewTable("Fig 2: memory bandwidth usage breakdown (Baseline)",
		"workload", "texture%", "frame%", "geometry%", "z-test%", "color%")
	var specs []RunSpec
	for _, wl := range wls {
		specs = append(specs, RunSpec{wl, Options{Design: config.Baseline}})
	}
	if err := Prefetch(ctx, specs); err != nil {
		return nil, err
	}
	var texShare []float64
	for _, wl := range wls {
		res, err := RunCachedContext(ctx, wl, Options{Design: config.Baseline})
		if err != nil {
			return nil, err
		}
		tr := &res.Frame.Traffic
		tab.AddRowF(wl.Name(),
			100*tr.Share(mem.ClassTexture),
			100*tr.Share(mem.ClassFrame),
			100*tr.Share(mem.ClassGeometry),
			100*tr.Share(mem.ClassZ),
			100*tr.Share(mem.ClassColor))
		texShare = append(texShare, tr.Share(mem.ClassTexture))
	}
	return &Experiment{
		Name:  "fig2",
		Table: tab,
		Summary: map[string]float64{
			"avg_texture_share": stats.Mean(texShare),
		},
	}, nil
}

// pairSweep prefetches runs a and b of every workload, then hands each
// workload's pair to row in workload order.
func pairSweep(ctx context.Context, wls []workload.Workload, a, b Options, row func(wl workload.Workload, ra, rb *Result)) error {
	var specs []RunSpec
	for _, wl := range wls {
		specs = append(specs, RunSpec{wl, a}, RunSpec{wl, b})
	}
	if err := Prefetch(ctx, specs); err != nil {
		return err
	}
	for _, wl := range wls {
		ra, err := RunCachedContext(ctx, wl, a)
		if err != nil {
			return err
		}
		rb, err := RunCachedContext(ctx, wl, b)
		if err != nil {
			return err
		}
		row(wl, ra, rb)
	}
	return nil
}

// Fig4AnisoOff reproduces Fig. 4: texture-filtering speedup and texture
// memory traffic when anisotropic filtering is disabled on the baseline.
func Fig4AnisoOff(ctx context.Context, wls []workload.Workload) (*Experiment, error) {
	tab := stats.NewTable("Fig 4: anisotropic filtering disabled (Baseline)",
		"workload", "filter speedup", "normalized traffic")
	var sp, tr []float64
	err := pairSweep(ctx, wls, Options{Design: config.Baseline}, Options{Design: config.Baseline, DisableAniso: true},
		func(wl workload.Workload, on, off *Result) {
			s := on.Frame.Activity.Path.FilterTime() / off.Frame.Activity.Path.FilterTime()
			n := float64(off.TextureTraffic()) / float64(on.TextureTraffic())
			tab.AddRowF(wl.Name(), s, n)
			sp = append(sp, s)
			tr = append(tr, n)
		})
	if err != nil {
		return nil, err
	}
	return &Experiment{
		Name:  "fig4",
		Table: tab,
		Summary: map[string]float64{
			"avg_filter_speedup":     stats.Mean(sp),
			"max_filter_speedup":     stats.Max(sp),
			"avg_traffic_normalized": stats.Mean(tr),
			"min_traffic_normalized": stats.Min(tr),
		},
	}, nil
}

// Fig5BPIM reproduces Fig. 5: B-PIM's 3D-rendering and texture-filtering
// speedups over the baseline.
func Fig5BPIM(ctx context.Context, wls []workload.Workload) (*Experiment, error) {
	tab := stats.NewTable("Fig 5: B-PIM speedup over Baseline",
		"workload", "render speedup", "filter speedup")
	var rsp, fsp []float64
	err := pairSweep(ctx, wls, Options{Design: config.Baseline}, Options{Design: config.BPIM},
		func(wl workload.Workload, base, bpim *Result) {
			r := float64(base.Cycles()) / float64(bpim.Cycles())
			f := base.Frame.Activity.Path.FilterTime() / bpim.Frame.Activity.Path.FilterTime()
			tab.AddRowF(wl.Name(), r, f)
			rsp = append(rsp, r)
			fsp = append(fsp, f)
		})
	if err != nil {
		return nil, err
	}
	return &Experiment{
		Name:  "fig5",
		Table: tab,
		Summary: map[string]float64{
			"avg_render_speedup": stats.Mean(rsp),
			"max_render_speedup": stats.Max(rsp),
			"avg_filter_speedup": stats.Mean(fsp),
			"max_filter_speedup": stats.Max(fsp),
		},
	}, nil
}

// Fig7TexelFetches reproduces the Fig. 7 fetch-count comparison at the
// unit level: for a 4x anisotropic footprint, the conventional order
// fetches 32 texels to the GPU while A-TFIM fetches 8 parent texels.
func Fig7TexelFetches() *Experiment {
	tab := stats.NewTable("Fig 7: texel fetches per texture request",
		"anisotropy", "baseline fetches", "A-TFIM parent fetches", "reduction")
	sum := map[string]float64{}
	for _, n := range []int{2, 4, 8, 16} {
		f := texture.Footprint{N: n, Lod: 1.5}
		base := f.TexelFetches()
		par := f.ParentFetches()
		tab.AddRowF(fmt.Sprintf("%dx", n), float64(base), float64(par), float64(base)/float64(par))
		if n == 4 {
			sum["baseline_fetches_4x"] = float64(base)
			sum["atfim_fetches_4x"] = float64(par)
		}
	}
	return &Experiment{Name: "fig7", Table: tab, Summary: sum}
}

// designSweep runs every design on every workload (memoized) and returns
// results indexed [workload][design]. The cells execute in parallel
// (Prefetch); the aggregation below stays in workload order, so output is
// byte-identical to a serial sweep.
func designSweep(ctx context.Context, wls []workload.Workload) (map[string]map[config.Design]*Result, error) {
	var specs []RunSpec
	for _, wl := range wls {
		for _, d := range config.AllDesigns() {
			specs = append(specs, RunSpec{wl, Options{Design: d}})
		}
	}
	if err := Prefetch(ctx, specs); err != nil {
		return nil, err
	}
	out := make(map[string]map[config.Design]*Result, len(wls))
	for _, wl := range wls {
		row := make(map[config.Design]*Result, 4)
		for _, d := range config.AllDesigns() {
			res, err := RunCachedContext(ctx, wl, Options{Design: d})
			if err != nil {
				return nil, err
			}
			row[d] = res
		}
		out[wl.Name()] = row
	}
	return out, nil
}

// normalizedSweep tabulates metric for every design on every workload
// relative to the Baseline — as base/metric when speedup is set, else as
// metric/base — and returns the table and each design's values in
// workload order.
func normalizedSweep(ctx context.Context, wls []workload.Workload, title string, metric func(*Result) float64, speedup bool) (*stats.Table, map[config.Design][]float64, error) {
	sweep, err := designSweep(ctx, wls)
	if err != nil {
		return nil, nil, err
	}
	tab := stats.NewTable(title, "workload", "Baseline", "B-PIM", "S-TFIM", "A-TFIM-001pi")
	agg := map[config.Design][]float64{}
	for _, wl := range wls {
		row := sweep[wl.Name()]
		base := metric(row[config.Baseline])
		vals := make([]float64, 0, 4)
		for _, d := range config.AllDesigns() {
			v := metric(row[d]) / base
			if speedup {
				v = base / metric(row[d])
			}
			vals = append(vals, v)
			agg[d] = append(agg[d], v)
		}
		tab.AddRowF(wl.Name(), vals...)
	}
	return tab, agg, nil
}

// speedupSummary is the Fig. 10/11 headline: mean speedup per PIM design
// and A-TFIM's best workload.
func speedupSummary(agg map[config.Design][]float64) map[string]float64 {
	return map[string]float64{
		"avg_speedup_bpim":  stats.Mean(agg[config.BPIM]),
		"avg_speedup_stfim": stats.Mean(agg[config.STFIM]),
		"avg_speedup_atfim": stats.Mean(agg[config.ATFIM]),
		"max_speedup_atfim": stats.Max(agg[config.ATFIM]),
	}
}

// Fig10TextureSpeedup reproduces Fig. 10: normalized texture-filtering
// speedup of the four designs (plus A-TFIM at 0.05pi for reference).
func Fig10TextureSpeedup(ctx context.Context, wls []workload.Workload) (*Experiment, error) {
	tab, agg, err := normalizedSweep(ctx, wls, "Fig 10: texture filtering speedup (normalized to Baseline)",
		func(r *Result) float64 { return r.Frame.Activity.Path.FilterTime() }, true)
	if err != nil {
		return nil, err
	}
	return &Experiment{Name: "fig10", Table: tab, Summary: speedupSummary(agg)}, nil
}

// Fig11RenderSpeedup reproduces Fig. 11: normalized 3D-rendering speedup
// of the four designs.
func Fig11RenderSpeedup(ctx context.Context, wls []workload.Workload) (*Experiment, error) {
	tab, agg, err := normalizedSweep(ctx, wls, "Fig 11: 3D rendering speedup (normalized to Baseline)",
		func(r *Result) float64 { return float64(r.Cycles()) }, true)
	if err != nil {
		return nil, err
	}
	return &Experiment{Name: "fig11", Table: tab, Summary: speedupSummary(agg)}, nil
}

// Fig12MemoryTraffic reproduces Fig. 12: texture memory traffic normalized
// to the baseline, including both A-TFIM thresholds the paper plots.
func Fig12MemoryTraffic(ctx context.Context, wls []workload.Workload) (*Experiment, error) {
	sweep, err := designSweep(ctx, wls)
	if err != nil {
		return nil, err
	}
	tab := stats.NewTable("Fig 12: texture memory traffic (normalized to Baseline)",
		"workload", "Baseline", "B-PIM", "S-TFIM", "A-TFIM-001pi", "A-TFIM-005pi")
	var specs []RunSpec
	for _, wl := range wls {
		specs = append(specs, RunSpec{wl, Options{Design: config.ATFIM, AngleThreshold: config.Angle005Pi}})
	}
	if err := Prefetch(ctx, specs); err != nil {
		return nil, err
	}
	agg := map[string][]float64{}
	for _, wl := range wls {
		row := sweep[wl.Name()]
		base := float64(row[config.Baseline].TextureTraffic())
		a5, err := RunCachedContext(ctx, wl, Options{Design: config.ATFIM, AngleThreshold: config.Angle005Pi})
		if err != nil {
			return nil, err
		}
		vals := []float64{
			1,
			float64(row[config.BPIM].TextureTraffic()) / base,
			float64(row[config.STFIM].TextureTraffic()) / base,
			float64(row[config.ATFIM].TextureTraffic()) / base,
			float64(a5.TextureTraffic()) / base,
		}
		tab.AddRowF(wl.Name(), vals...)
		agg["stfim"] = append(agg["stfim"], vals[2])
		agg["atfim001"] = append(agg["atfim001"], vals[3])
		agg["atfim005"] = append(agg["atfim005"], vals[4])
	}
	return &Experiment{
		Name:  "fig12",
		Table: tab,
		Summary: map[string]float64{
			"avg_traffic_stfim":    stats.Mean(agg["stfim"]),
			"avg_traffic_atfim001": stats.Mean(agg["atfim001"]),
			"avg_traffic_atfim005": stats.Mean(agg["atfim005"]),
			"min_traffic_atfim005": stats.Min(agg["atfim005"]),
		},
	}, nil
}

// Fig13Energy reproduces Fig. 13: whole-GPU energy normalized to the
// baseline.
func Fig13Energy(ctx context.Context, wls []workload.Workload) (*Experiment, error) {
	tab, agg, err := normalizedSweep(ctx, wls, "Fig 13: energy consumption (normalized to Baseline)",
		func(r *Result) float64 { return r.Energy.Total() }, false)
	if err != nil {
		return nil, err
	}
	return &Experiment{
		Name:  "fig13",
		Table: tab,
		Summary: map[string]float64{
			"avg_energy_bpim":  stats.Mean(agg[config.BPIM]),
			"avg_energy_stfim": stats.Mean(agg[config.STFIM]),
			"avg_energy_atfim": stats.Mean(agg[config.ATFIM]),
		},
	}, nil
}

// thresholdSweep runs A-TFIM at each camera-angle threshold, in parallel
// (Prefetch). The Baseline cell per workload is prefetched too:
// Figs 14 and 15 normalize against it right after this sweep.
func thresholdSweep(ctx context.Context, wls []workload.Workload) (map[string]map[string]*Result, error) {
	var specs []RunSpec
	for _, wl := range wls {
		specs = append(specs, RunSpec{wl, Options{Design: config.Baseline}})
		for _, th := range config.AngleThresholds() {
			specs = append(specs, RunSpec{wl, Options{Design: config.ATFIM, AngleThreshold: th.Value}})
		}
	}
	if err := Prefetch(ctx, specs); err != nil {
		return nil, err
	}
	out := map[string]map[string]*Result{}
	for _, wl := range wls {
		row := map[string]*Result{}
		for _, th := range config.AngleThresholds() {
			res, err := RunCachedContext(ctx, wl, Options{Design: config.ATFIM, AngleThreshold: th.Value})
			if err != nil {
				return nil, err
			}
			row[th.Label] = res
		}
		out[wl.Name()] = row
	}
	return out, nil
}

// thresholdFigure tabulates value(base, run) for A-TFIM at every
// camera-angle threshold on every workload, base being the workload's
// Baseline run, and summarizes each threshold's mean as "avg_<label>".
func thresholdFigure(ctx context.Context, wls []workload.Workload, name, title string, value func(base, run *Result) (float64, error)) (*Experiment, error) {
	sweep, err := thresholdSweep(ctx, wls)
	if err != nil {
		return nil, err
	}
	labels := config.AngleThresholds()
	cols := []string{"workload"}
	for _, th := range labels {
		cols = append(cols, th.Label)
	}
	tab := stats.NewTable(title, cols...)
	agg := map[string][]float64{}
	for _, wl := range wls {
		base, err := RunCachedContext(ctx, wl, Options{Design: config.Baseline})
		if err != nil {
			return nil, err
		}
		vals := make([]float64, 0, len(labels))
		for _, th := range labels {
			v, err := value(base, sweep[wl.Name()][th.Label])
			if err != nil {
				return nil, err
			}
			vals = append(vals, v)
			agg[th.Label] = append(agg[th.Label], v)
		}
		tab.AddRowF(wl.Name(), vals...)
	}
	sum := map[string]float64{}
	for _, th := range labels {
		sum["avg_"+th.Label] = stats.Mean(agg[th.Label])
	}
	return &Experiment{Name: name, Table: tab, Summary: sum}, nil
}

// Fig14ThresholdSpeedup reproduces Fig. 14: A-TFIM rendering speedup under
// different camera-angle thresholds.
func Fig14ThresholdSpeedup(ctx context.Context, wls []workload.Workload) (*Experiment, error) {
	return thresholdFigure(ctx, wls, "fig14", "Fig 14: A-TFIM rendering speedup vs camera-angle threshold",
		func(base, run *Result) (float64, error) { return float64(base.Cycles()) / float64(run.Cycles()), nil })
}

// Fig15ThresholdQuality reproduces Fig. 15: PSNR of A-TFIM frames against
// the baseline render under different camera-angle thresholds.
func Fig15ThresholdQuality(ctx context.Context, wls []workload.Workload) (*Experiment, error) {
	return thresholdFigure(ctx, wls, "fig15", "Fig 15: A-TFIM image quality (PSNR) vs camera-angle threshold",
		func(base, run *Result) (float64, error) { return quality.PSNR(base.Image, run.Image) })
}

// Fig16Tradeoff reproduces Fig. 16: the averaged performance-quality
// tradeoff across thresholds.
func Fig16Tradeoff(ctx context.Context, wls []workload.Workload) (*Experiment, error) {
	f14, err := Fig14ThresholdSpeedup(ctx, wls)
	if err != nil {
		return nil, err
	}
	f15, err := Fig15ThresholdQuality(ctx, wls)
	if err != nil {
		return nil, err
	}
	tab := stats.NewTable("Fig 16: performance-quality tradeoff (averages)",
		"threshold", "speedup", "PSNR")
	sum := map[string]float64{}
	for _, th := range config.AngleThresholds() {
		sp := f14.Summary["avg_"+th.Label]
		ps := f15.Summary["avg_"+th.Label]
		tab.AddRowF(th.Label, sp, ps)
		sum["speedup_"+th.Label] = sp
		sum["psnr_"+th.Label] = ps
	}
	return &Experiment{Name: "fig16", Table: tab, Summary: sum}, nil
}

// Table1Config renders the paper's Table I.
func Table1Config() *Experiment {
	cfg := config.Default(config.ATFIM)
	tab := stats.NewTable("Table I: simulator configuration", "parameter", "value")
	for _, row := range cfg.TableI() {
		tab.AddRow(row[0], row[1])
	}
	return &Experiment{Name: "table1", Table: tab, Summary: map[string]float64{
		"clusters":      float64(cfg.GPU.Clusters),
		"texture_units": float64(cfg.GPU.TextureUnits),
		"hmc_vaults":    float64(cfg.HMCVaults),
	}}
}

// Table2Workloads renders the paper's Table II.
func Table2Workloads() *Experiment {
	tab := stats.NewTable("Table II: gaming benchmarks",
		"name", "resolution", "library", "3D engine", "triangles", "textures")
	for _, wl := range workload.TableII() {
		sc := wl.Scene()
		tab.AddRow(wl.Game,
			fmt.Sprintf("%dx%d", wl.Width, wl.Height),
			wl.Library, wl.Engine,
			fmt.Sprintf("%d", sc.NumTriangles()),
			fmt.Sprintf("%d", len(sc.Textures)))
	}
	return &Experiment{Name: "table2", Table: tab, Summary: map[string]float64{
		"workloads": float64(len(workload.TableII())),
	}}
}

// OverheadAnalysis reproduces Section VII-E: the area overhead of A-TFIM.
func OverheadAnalysis() *Experiment {
	cfg := config.Default(config.ATFIM)
	h := area.ComputeHMC(cfg)
	g := area.ComputeGPU(cfg)
	tab := stats.NewTable("Section VII-E: design overhead",
		"component", "value")
	tab.AddRow("Parent Texel Buffer", fmt.Sprintf("%.2f KB", h.ParentTexelBufferKB))
	tab.AddRow("Child Texel Consolidation", fmt.Sprintf("%.2f KB", h.ConsolidationKB))
	tab.AddRow("HMC logic units area", fmt.Sprintf("%.2f mm^2", h.LogicMM2))
	tab.AddRow("HMC storage area", fmt.Sprintf("%.2f mm^2", h.StorageMM2))
	tab.AddRow("HMC total overhead", fmt.Sprintf("%.2f mm^2 (%.2f%% of DRAM die)", h.TotalMM2, 100*h.FractionOfDie))
	tab.AddRow("GPU angle-tag storage", fmt.Sprintf("%.2f KB", g.TotalKB))
	tab.AddRow("GPU total overhead", fmt.Sprintf("%.2f mm^2 (%.2f%% of GPU die)", g.TotalMM2, 100*g.FractionOfDie))
	return &Experiment{Name: "overhead", Table: tab, Summary: map[string]float64{
		"ptb_kb":         h.ParentTexelBufferKB,
		"hmc_fraction":   h.FractionOfDie,
		"gpu_fraction":   g.FractionOfDie,
		"gpu_storage_kb": g.TotalKB,
		"angle_bits":     float64(g.AngleBitsPerLine),
	}}
}
