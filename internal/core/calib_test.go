package core

import (
	"testing"

	"repro/internal/config"
	"repro/internal/quality"
	"repro/internal/workload"
)

// TestCalibHighRes compares Baseline vs A-TFIM at 1280x1024 (where the
// paper's largest gains appear) and sweeps the camera-angle thresholds.
func TestCalibHighRes(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration diagnostics")
	}
	wl := workload.MustGet("doom3", 1280, 1024)
	base, err := Run(wl, Options{Design: config.Baseline})
	if err != nil {
		t.Fatal(err)
	}
	bp := base.Frame.Activity.Path
	t.Logf("baseline: cycles=%d texLat=%.1f traffic=%dKB (tex %dKB)",
		base.Cycles(), bp.MeanLatency(), base.TotalTraffic()/1024, base.TextureTraffic()/1024)

	for _, th := range config.AngleThresholds() {
		res, err := Run(wl, Options{Design: config.ATFIM, AngleThreshold: th.Value})
		if err != nil {
			t.Fatal(err)
		}
		p := res.Frame.Activity.Path
		psnr, _ := quality.PSNR(base.Image, res.Image)
		t.Logf("%s: renderX=%.2f texX=%.2f trafficX=%.2f recalcs=%d offloads=%d psnr=%.1f lat=%.0f(q=%.0f m=%.0f)",
			th.Label,
			float64(base.Cycles())/float64(res.Cycles()),
			bp.FilterTime()/p.FilterTime(),
			float64(res.TextureTraffic())/float64(base.TextureTraffic()),
			p.AngleRecalcs, p.OffloadPackets, psnr,
			p.MeanLatency(),
			float64(p.QueueCycles)/float64(p.TexRequests),
			float64(p.MemCycles)/float64(p.TexRequests))
		t.Logf("   internalBytes=%dMB (%.0f B/cy) pimTexels=%d consolidated=%d",
			res.Frame.Activity.InternalBytes/(1<<20),
			float64(res.Frame.Activity.InternalBytes)/float64(res.Cycles()),
			p.PIMTexelFetches, p.ConsolidatedFetches)
	}
}
