package core

import (
	"testing"

	"repro/internal/config"
	"repro/internal/workload"
)

// TestInstrumentation prints the detailed per-design counters used to
// calibrate the model against the paper's shapes. Run with -v.
func TestInstrumentation(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration diagnostics")
	}
	wl := workload.MustGet("doom3", 640, 480)
	for _, d := range config.AllDesigns() {
		res, err := Run(wl, Options{Design: d})
		if err != nil {
			t.Fatal(err)
		}
		f := res.Frame
		p := f.Activity.Path
		t.Logf("=== %s ===", d)
		t.Logf("cycles=%d geom=%d frag=%d", f.Cycles, f.GeometryCycles, f.FragmentCycles)
		t.Logf("fragments=%d texReqs=%d meanTexLat=%.1f queue=%.1f mem=%.1f",
			f.Activity.FragmentCount, p.TexRequests, p.MeanLatency(),
			float64(p.QueueCycles)/float64(p.TexRequests),
			float64(p.MemCycles)/float64(p.TexRequests))
		t.Logf("gpuTexels=%d pimTexels=%d consolidated=%d", p.GPUTexelFetches, p.PIMTexelFetches, p.ConsolidatedFetches)
		offLat := 0.0
		if p.OffloadPackets > 0 {
			offLat = float64(p.OffloadLatencySum) / float64(p.OffloadPackets)
		}
		t.Logf("offloads=%d offLat=%.1f responses=%d angleRecalcs=%d", p.OffloadPackets, offLat, p.ResponsePackets, p.AngleRecalcs)
		t.Logf("texTrafficKB=%d totalTrafficKB=%d", f.Traffic.TextureBytes()/1024, f.Traffic.Total()/1024)
		for name, cs := range f.Caches {
			t.Logf("cache %s: acc=%d hit=%.3f angleRej=%d", name, cs.Accesses, cs.HitRate(), cs.AngleRejects)
		}
	}
}
