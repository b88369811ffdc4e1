package core

import (
	"context"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/workload"
)

// expSet returns a tiny workload set so experiment tests stay fast.
func expSet() []workload.Workload {
	return []workload.Workload{
		workload.MustGet("doom3", 320, 240),
		workload.MustGet("wolf", 320, 240),
	}
}

func TestFig2Shares(t *testing.T) {
	e, err := Fig2MemoryBreakdown(context.Background(), expSet())
	if err != nil {
		t.Fatal(err)
	}
	share := e.Summary["avg_texture_share"]
	if share < 0.25 || share > 0.85 {
		t.Errorf("texture share %.2f outside plausible band (paper ~0.60)", share)
	}
	if e.Table.NumRows() != 2 {
		t.Errorf("rows %d", e.Table.NumRows())
	}
}

func TestFig4AnisoOffDirection(t *testing.T) {
	e, err := Fig4AnisoOff(context.Background(), expSet())
	if err != nil {
		t.Fatal(err)
	}
	if e.Summary["avg_filter_speedup"] <= 1 {
		t.Errorf("disabling anisotropic filtering did not speed up filtering: %.2f",
			e.Summary["avg_filter_speedup"])
	}
	if e.Summary["avg_traffic_normalized"] >= 1 {
		t.Errorf("disabling anisotropic filtering did not cut traffic: %.2f",
			e.Summary["avg_traffic_normalized"])
	}
}

func TestFig5BPIMWins(t *testing.T) {
	e, err := Fig5BPIM(context.Background(), expSet())
	if err != nil {
		t.Fatal(err)
	}
	if e.Summary["avg_render_speedup"] <= 1 {
		t.Errorf("B-PIM render speedup %.2f, paper reports ~1.27",
			e.Summary["avg_render_speedup"])
	}
}

func TestFig7Counts(t *testing.T) {
	e := Fig7TexelFetches()
	if e.Summary["baseline_fetches_4x"] != 32 || e.Summary["atfim_fetches_4x"] != 8 {
		t.Fatalf("Fig 7 counts %v, paper says 32 vs 8", e.Summary)
	}
}

func TestFig10And11Ordering(t *testing.T) {
	f10, err := Fig10TextureSpeedup(context.Background(), expSet())
	if err != nil {
		t.Fatal(err)
	}
	f11, err := Fig11RenderSpeedup(context.Background(), expSet())
	if err != nil {
		t.Fatal(err)
	}
	// The paper's headline ordering: A-TFIM beats every other design on
	// texture filtering, and beats the baseline on rendering.
	if f10.Summary["avg_speedup_atfim"] <= 1 {
		t.Errorf("A-TFIM filter speedup %.2f <= 1", f10.Summary["avg_speedup_atfim"])
	}
	if f10.Summary["avg_speedup_atfim"] <= f10.Summary["avg_speedup_stfim"] {
		t.Errorf("A-TFIM (%.2f) should beat S-TFIM (%.2f) on filtering",
			f10.Summary["avg_speedup_atfim"], f10.Summary["avg_speedup_stfim"])
	}
	if f11.Summary["avg_speedup_atfim"] <= 1 {
		t.Errorf("A-TFIM render speedup %.2f <= 1", f11.Summary["avg_speedup_atfim"])
	}
	if f11.Summary["avg_speedup_bpim"] <= 1 {
		t.Errorf("B-PIM render speedup %.2f <= 1", f11.Summary["avg_speedup_bpim"])
	}
}

func TestFig12TrafficShape(t *testing.T) {
	e, err := Fig12MemoryTraffic(context.Background(), expSet())
	if err != nil {
		t.Fatal(err)
	}
	// S-TFIM blows up texture traffic (paper: 2.79x average).
	if e.Summary["avg_traffic_stfim"] <= 1.5 {
		t.Errorf("S-TFIM traffic %.2fx, paper reports a large increase",
			e.Summary["avg_traffic_stfim"])
	}
	// Loosening the threshold reduces traffic (Fig 12's two A-TFIM bars).
	if e.Summary["avg_traffic_atfim005"] > e.Summary["avg_traffic_atfim001"] {
		t.Errorf("traffic at 0.05pi (%.2f) above 0.01pi (%.2f)",
			e.Summary["avg_traffic_atfim005"], e.Summary["avg_traffic_atfim001"])
	}
}

func TestFig13EnergyShape(t *testing.T) {
	e, err := Fig13Energy(context.Background(), expSet())
	if err != nil {
		t.Fatal(err)
	}
	if e.Summary["avg_energy_atfim"] >= 1 {
		t.Errorf("A-TFIM energy %.2fx baseline, paper reports 0.78x",
			e.Summary["avg_energy_atfim"])
	}
	if e.Summary["avg_energy_stfim"] <= e.Summary["avg_energy_atfim"] {
		t.Errorf("S-TFIM (%.2f) should cost more energy than A-TFIM (%.2f)",
			e.Summary["avg_energy_stfim"], e.Summary["avg_energy_atfim"])
	}
}

func TestFig14And15Tradeoffs(t *testing.T) {
	f14, err := Fig14ThresholdSpeedup(context.Background(), expSet())
	if err != nil {
		t.Fatal(err)
	}
	f15, err := Fig15ThresholdQuality(context.Background(), expSet())
	if err != nil {
		t.Fatal(err)
	}
	// Loosening the threshold must not slow rendering down...
	strict := f14.Summary["avg_A-TFIM-0005pi"]
	loose := f14.Summary["avg_A-TFIM-no"]
	if loose < strict*0.98 {
		t.Errorf("speedup fell when loosening threshold: %.3f -> %.3f", strict, loose)
	}
	// ...and must not improve quality.
	qStrict := f15.Summary["avg_A-TFIM-0005pi"]
	qLoose := f15.Summary["avg_A-TFIM-no"]
	if qLoose > qStrict+0.5 {
		t.Errorf("PSNR rose when loosening threshold: %.1f -> %.1f", qStrict, qLoose)
	}
	if qStrict < 30 || qStrict > 99 {
		t.Errorf("strict-threshold PSNR %.1f implausible", qStrict)
	}
}

func TestFig16Combines(t *testing.T) {
	e, err := Fig16Tradeoff(context.Background(), expSet())
	if err != nil {
		t.Fatal(err)
	}
	if e.Table.NumRows() != 5 {
		t.Errorf("tradeoff rows %d want 5", e.Table.NumRows())
	}
	for _, th := range config.AngleThresholds() {
		if e.Summary["speedup_"+th.Label] == 0 || e.Summary["psnr_"+th.Label] == 0 {
			t.Errorf("missing summary for %s", th.Label)
		}
	}
}

func TestStaticExperiments(t *testing.T) {
	t1 := Table1Config()
	if t1.Summary["clusters"] != 16 || t1.Summary["hmc_vaults"] != 32 {
		t.Errorf("Table I summary %v", t1.Summary)
	}
	t2 := Table2Workloads()
	if t2.Summary["workloads"] != 10 {
		t.Errorf("Table II rows %v", t2.Summary["workloads"])
	}
	ov := OverheadAnalysis()
	if ov.Summary["ptb_kb"] < 1.40 || ov.Summary["ptb_kb"] > 1.42 {
		t.Errorf("PTB size %v, paper says 1.41 KB", ov.Summary["ptb_kb"])
	}
	if !strings.Contains(ov.Table.String(), "Parent Texel Buffer") {
		t.Error("overhead table missing PTB row")
	}
}

func TestRunCachedMemoizes(t *testing.T) {
	wl := workload.MustGet("doom3", 320, 240)
	a, err := RunCached(wl, Options{Design: config.Baseline})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunCached(wl, Options{Design: config.Baseline})
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("identical runs not memoized")
	}
	c, err := RunCachedContext(engineCtx(nil), wl, Options{Design: config.Baseline})
	if err != nil {
		t.Fatal(err)
	}
	if c == a {
		t.Fatal("another engine served the default engine's cached result")
	}
	if c.Cycles() != a.Cycles() {
		t.Fatal("re-run not deterministic")
	}
}
