package tfim

import (
	"testing"

	"repro/internal/config"
	"repro/internal/dram"
	"repro/internal/gpu"
	"repro/internal/hmc"
	"repro/internal/mem"
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

// steadyAllocs warms sample up on four passes over a stream of n requests
// and returns the allocations per call of one more pass.
func steadyAllocs(n int, sample func(now int64, i int)) float64 {
	now := int64(0)
	next := func() {
		sample(now, int(now)%n)
		now++
	}
	for range 4 * n {
		next()
	}
	return testing.AllocsPerRun(n, next)
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
	var before gpu.PathActivity
	allocs := steadyAllocs(len(reqs), func(now int64, i int) {
		if now == int64(4*len(reqs)) {
			before = a.Activity()
		}
		a.Sample(now, &reqs[i])
	})
	if allocs != 0 {
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

// texelStream returns a fixed request stream for the conventional filter
// order over a 512x512 texture (1 MiB at level 0, eight times the texture
// L2), spread over four units. Every other request takes a slow random
// walk in UV space, which the units' L1s and the shared L2 serve; the
// rest jump to uniform random spots, whose lines a replay of the stream
// finds evicted from both. Anisotropy varies from 1 to 8.
func texelStream(n int) []gpu.TexRequest {
	tx := pathTexture(512)
	rng := xrand.New(20)
	reqs := make([]gpu.TexRequest, n)
	u, v := float32(0.5), float32(0.5)
	for i := range reqs {
		u += rng.Range(-0.004, 0.005)
		v += rng.Range(-0.004, 0.004)
		ru, rv := u, v
		if i%2 == 1 {
			ru, rv = rng.Float32(), rng.Float32()
		}
		reqs[i] = gpu.TexRequest{
			Tex: tx, U: ru, V: rv, Cluster: i % 4,
			Foot: texture.Footprint{
				Lod: rng.Range(0, 3), N: 1 + rng.Intn(8),
				AxisU: 0.004, AxisV: 0.001, Angle: 0.2,
			},
		}
	}
	return reqs
}

// TestBaselineSampleZeroAllocs pins the steady state of the conventional
// path shared by Baseline and B-PIM: Sample allocates nothing, whether a
// texel hits in L1, hits in L2 or misses to memory.
func TestBaselineSampleZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("-race instrumentation allocates")
	}
	b := NewBaselinePath(config.Default(config.Baseline), dram.New(dram.DefaultConfig()))
	reqs := texelStream(1024)
	var before gpu.PathActivity
	var beforeBytes uint64
	allocs := steadyAllocs(len(reqs), func(now int64, i int) {
		if now == int64(4*len(reqs)) {
			before, beforeBytes = b.Activity(), b.Traffic().TextureBytes()
		}
		b.Sample(now, &reqs[i])
	})
	if allocs != 0 {
		t.Fatalf("Sample allocated %.2f times per call in steady state", allocs)
	}
	after := b.Activity()
	l1 := after.L1Accesses - before.L1Accesses
	l2 := after.L2Accesses - before.L2Accesses
	misses := (b.Traffic().TextureBytes() - beforeBytes) / (mem.LineSize + mem.RequestOverheadBytes)
	t.Logf("one pass: L1 %d, L2 %d, memory %d accesses", l1, l2, misses)
	if !(l1 > l2 && l2 > misses && misses > 0) {
		t.Fatalf("stream did not mix L1 hits, L2 hits and memory misses: L1 %d, L2 %d, memory %d accesses", l1, l2, misses)
	}
}

// TestSTFIMSampleZeroAllocs pins the steady state of the S-TFIM path: Sample
// allocates nothing, whether a texel's granule is fetched from the vaults
// or coalesced with an earlier fetch of the same request. S-TFIM has no
// texture caches, so every request goes to memory.
func TestSTFIMSampleZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("-race instrumentation allocates")
	}
	s := NewSTFIMPath(config.Default(config.STFIM), hmc.New(hmc.DefaultConfig()))
	reqs := texelStream(1024)
	var before gpu.PathActivity
	allocs := steadyAllocs(len(reqs), func(now int64, i int) {
		if now == int64(4*len(reqs)) {
			before = s.Activity()
		}
		s.Sample(now, &reqs[i])
	})
	if allocs != 0 {
		t.Fatalf("Sample allocated %.2f times per call in steady state", allocs)
	}
	after := s.Activity()
	fetched := after.PIMTexelFetches - before.PIMTexelFetches
	coalesced := after.ConsolidatedFetches - before.ConsolidatedFetches
	t.Logf("one pass: %d of %d texels coalesced", coalesced, fetched)
	if !(coalesced > 0 && coalesced < fetched) {
		t.Fatalf("stream did not mix vault fetches and coalesced ones: %d of %d texels coalesced", coalesced, fetched)
	}
}

// BenchmarkBaselineSample measures one texture request through the
// conventional Fig. 7(A) path of Baseline and B-PIM: N x 8 texel fetches,
// each through the unit's L1, the shared L2 and on a miss GDDR5.
func BenchmarkBaselineSample(b *testing.B) {
	p := NewBaselinePath(config.Default(config.Baseline), dram.New(dram.DefaultConfig()))
	reqs := texelStream(4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sampleSink = p.Sample(int64(i), &reqs[i%len(reqs)])
	}
}

// BenchmarkSTFIMSample measures one S-TFIM texture request: package out,
// N x 8 texel fetches through the cube's internal path, package back.
func BenchmarkSTFIMSample(b *testing.B) {
	s := NewSTFIMPath(config.Default(config.STFIM), hmc.New(hmc.DefaultConfig()))
	reqs := texelStream(4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sampleSink = s.Sample(int64(i), &reqs[i%len(reqs)])
	}
}

var sampleSink gpu.TexResult
