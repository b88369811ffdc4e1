package tfim

import (
	"testing"

	"repro/internal/config"
	"repro/internal/gpu"
	"repro/internal/hmc"
	"repro/internal/texture"
	"repro/internal/xrand"
)

// atfimStream returns a fixed request stream over a 256x256 texture that
// mixes the three A-TFIM outcomes: a slow random walk in UV space gives
// cache hits and compulsory misses, anisotropy varies from 1 to 8, and the
// camera angle flips every 64 requests so cached lines are demoted and
// recalculated.
func atfimStream(n int) []gpu.TexRequest {
	tx := pathTexture(256)
	rng := xrand.New(15)
	reqs := make([]gpu.TexRequest, n)
	u, v := float32(0.5), float32(0.5)
	for i := range reqs {
		u += rng.Range(-0.02, 0.024)
		v += rng.Range(-0.02, 0.02)
		angle := float32(0.2)
		if i/64%2 == 1 {
			angle = 0.9
		}
		reqs[i] = gpu.TexRequest{
			Tex: tx, U: u, V: v, Cluster: i % 16,
			Foot: texture.Footprint{
				Lod: rng.Range(0, 3), N: 1 + rng.Intn(8),
				AxisU: 0.02, AxisV: 0.005, Angle: angle,
			},
		}
	}
	return reqs
}

// TestATFIMSampleZeroAllocs pins the steady state of the A-TFIM hot path:
// once the path's scratch has grown, Sample allocates nothing, whether a
// request hits, misses or recalculates.
func TestATFIMSampleZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("-race instrumentation allocates")
	}
	cfg := config.Default(config.ATFIM)
	a := NewATFIMPath(cfg, hmc.New(hmc.DefaultConfig()))
	reqs := atfimStream(512)
	now := int64(0)
	next := func() {
		a.Sample(now, &reqs[int(now)%len(reqs)])
		now++
	}
	for range 4 * len(reqs) {
		next()
	}
	before := a.Activity()
	if allocs := testing.AllocsPerRun(len(reqs), next); allocs != 0 {
		t.Fatalf("Sample allocated %.2f times per call in steady state", allocs)
	}
	after := a.Activity()
	if after.OffloadPackets == before.OffloadPackets || after.AngleRecalcs == before.AngleRecalcs ||
		after.L1Accesses-before.L1Accesses == after.L2Accesses-before.L2Accesses {
		t.Fatalf("stream did not mix hits, misses and recalculations: %+v -> %+v", before, after)
	}
}

// BenchmarkATFIMSample measures one A-TFIM texture request end to end
// through the path model: parent probes, offload, in-memory combination
// and on-chip filtering.
func BenchmarkATFIMSample(b *testing.B) {
	cfg := config.Default(config.ATFIM)
	a := NewATFIMPath(cfg, hmc.New(hmc.DefaultConfig()))
	reqs := atfimStream(4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sampleSink = a.Sample(int64(i), &reqs[i%len(reqs)])
	}
}

var sampleSink gpu.TexResult
