package gpu

import (
	"testing"

	"repro/internal/dram"
	"repro/internal/raster"
	"repro/internal/shader"
)

// TestTexSampleZeroAllocs pins the TEX hook's own cost: building the
// texture request and forwarding it to the path allocates nothing per call
// (the request lives on the worker, not the heap).
func TestTexSampleZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("-race instrumentation allocates")
	}
	p, _ := newTestPipeline()
	p.scene = testScene()
	path := &nullPath{}
	w := newShardWorker(p, dram.New(dram.DefaultConfig()), path, nil)
	w.curFrag = &raster.Fragment{DUDX: 0.01, DVDX: 0.002, DUDY: -0.003, DVDY: 0.02, ViewAngle: 0.4}
	coords := shader.Vec{0.25, 0.75, 0, 1}
	sampler := uint8(0)
	sample := func() {
		w.texSample(sampler%3, coords)
		sampler++
	}
	if allocs := testing.AllocsPerRun(300, sample); allocs != 0 {
		t.Fatalf("texSample allocated %.2f times per call", allocs)
	}
	if path.act.TexRequests != 301 {
		t.Fatalf("path saw %d requests, want 301", path.act.TexRequests)
	}
}
