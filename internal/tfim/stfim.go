package tfim

import (
	"repro/internal/cache"
	"repro/internal/config"
	"repro/internal/gpu"
	"repro/internal/hmc"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/texture"
)

// STFIMPath implements the simple texture-filtering-in-memory design of
// Section IV: every texture unit becomes a Memory Texture Unit (MTU) in the
// HMC logic layer. The GPU keeps no texture caches; each texture request is
// packed into a package (texture coordinates, request ID, start cycle,
// shader ID — 4x the size of a normal read request) and sent over the
// transmit links; the MTU fetches texels through the cube's internal
// bandwidth, filters them, and returns the result package over the receive
// links. The live-texture package traffic is exactly what the paper found
// to erase S-TFIM's benefit.
type STFIMPath struct {
	cfg  config.Config
	cube hmc.Cube
	mtus []*unitTiming

	sampler texture.Sampler
	act     gpu.PathActivity
	traffic mem.Traffic
	upPkg   []packageMeter
	downPkg []packageMeter

	trace    *obs.Tracer
	mtuTrack []string

	// Per-request transient state.
	curArrive int64
	curMaxMem int64
	curTexels int
	// granules consolidates per-request texel fetches into unique
	// granules (the MTU coalesces fetches belonging to one request).
	granules granuleTable
}

// NewSTFIMPath builds the S-TFIM path over the cube.
func NewSTFIMPath(cfg config.Config, cube hmc.Cube) *STFIMPath {
	s := &STFIMPath{cfg: cfg, cube: cube}
	for i := 0; i < cfg.TFIM.MTUs; i++ {
		s.mtus = append(s.mtus, newUnitTiming(cfg.TFIM.RequestQueueEntries))
	}
	s.upPkg = make([]packageMeter, cfg.TFIM.MTUs)
	s.downPkg = make([]packageMeter, cfg.TFIM.MTUs)
	s.sampler = texture.Sampler{MaxAniso: cfg.GPU.MaxAniso, Fetch: s.fetchTexel}
	return s
}

// Name implements gpu.TexturePath.
func (s *STFIMPath) Name() string { return "s-tfim" }

// SetTracer implements obs.TraceAttacher: each MTU round trip (package
// out, in-memory filtering, package back) becomes one span.
func (s *STFIMPath) SetTracer(t *obs.Tracer) {
	s.trace = t
	s.mtuTrack = unitTracks("mtu", len(s.mtus))
}

// internalGranule is the logic-layer fetch granularity in bytes: 2x2 texel
// blocks, exploiting HMC's fine-grained access (the external path still
// moves whole 64-byte cache lines).
const internalGranule = 16

// fetchTexel routes one texel read through the cube's internal path at
// sub-line granularity. Texels in a granule already fetched for this
// request are coalesced.
func (s *STFIMPath) fetchTexel(t *texture.Texture, level, x, y int) texture.Color {
	s.curTexels++
	s.act.PIMTexelFetches++
	addr, c := t.TexelAndAddr(level, x, y)
	g := addr &^ uint64(internalGranule-1)
	if done, ok := s.granules.get(g); ok {
		s.curMaxMem = max(s.curMaxMem, done)
		s.act.ConsolidatedFetches++
		return c
	}
	done := s.cube.InternalAccess(s.curArrive, mem.Request{
		Addr: g, Size: internalGranule, Class: mem.ClassTexture, Kind: mem.Read,
	})
	s.granules.put(g, done)
	s.curMaxMem = max(s.curMaxMem, done)
	return c
}

// Sample implements gpu.TexturePath: package out, filter in memory,
// package back.
func (s *STFIMPath) Sample(now int64, req *gpu.TexRequest) gpu.TexResult {
	mtu := req.Cluster % len(s.mtus)
	u := s.mtus[mtu]

	// Request package: 4x a normal read request in total size (Section VI),
	// shared by a coalesced quad of requests.
	reqBytes := s.cfg.TFIM.OffloadPackageFactor * s.cube.Config().ReadRequestBytes
	reqPayload := reqBytes - s.cube.Config().PacketHeaderBytes
	if reqPayload < 0 {
		reqPayload = 0
	}
	routeAddr := req.Tex.Levels[0].Addr
	arrive := s.cube.SendPacketTo(now, routeAddr, reqPayload/quadCoalesce)
	s.traffic.Record(mem.ClassTexture, mem.Write, uint32(s.upPkg[mtu].bytes(reqBytes, reqBytes/quadCoalesce)))
	s.act.OffloadPackets++

	accepted, issue := u.admit2(arrive)
	s.curArrive = issue
	s.curMaxMem = issue
	s.curTexels = 0
	s.granules.reset()

	color := s.sampler.SampleAniso(req.Tex, req.U, req.V, req.Foot)

	texels := s.curTexels
	addrCost := aluCost(texels, s.cfg.TFIM.MTUAddrALUs)
	filterCost := aluCost(texels, s.cfg.TFIM.MTUFilterALUs)
	s.act.PIMFilterOps += uint64(texels)
	occ := addrCost
	if filterCost > occ {
		occ = filterCost
	}
	pipeDone := issue + pipeBaseCycles + ceilI64(addrCost+filterCost)
	filtered := s.curMaxMem + ceilI64(filterCost)
	if pipeDone > filtered {
		filtered = pipeDone
	}
	u.retire(issue, occ, filtered, true)

	// Response package: the filtered texture (16 bytes of RGBA), framed
	// once per coalesced quad.
	respPayload := 16
	hdr := s.cube.Config().PacketHeaderBytes
	done := s.cube.ReturnPacketFrom(filtered, routeAddr, respPayload)
	s.traffic.Record(mem.ClassTexture, mem.Read, uint32(s.downPkg[mtu].bytes(respPayload+hdr, respPayload)))
	s.act.ResponsePackets++

	s.act.TexRequests++
	s.act.QueueCycles += accepted - arrive
	if m := s.curMaxMem - issue; m > 0 {
		s.act.MemCycles += m
	}
	// S-TFIM busy time includes the package transits: the MTU round trip
	// is the design's filtering process (Section IV).
	s.act.BusyCycles += occ + float64(issue-accepted) + float64(arrive-now) + float64(done-filtered)
	if s.trace.On() {
		s.trace.SpanArg(s.mtuTrack[mtu], "filter", arrive, filtered,
			"texels", int64(texels))
	}
	recordLatency(&s.act, now, done)
	return gpu.TexResult{Color: color, Done: done}
}

// EndFrame implements gpu.TexturePath.
func (s *STFIMPath) EndFrame(now int64) int64 { return now }

// Activity implements gpu.TexturePath.
func (s *STFIMPath) Activity() gpu.PathActivity { return s.act }

// Traffic returns the texture package traffic.
func (s *STFIMPath) Traffic() *mem.Traffic { return &s.traffic }

// CacheStats implements gpu.TexturePath (S-TFIM has no texture caches —
// that is precisely its problem).
func (s *STFIMPath) CacheStats() map[string]cache.Stats { return nil }

// Reset implements gpu.TexturePath.
func (s *STFIMPath) Reset() {
	for _, u := range s.mtus {
		u.reset()
	}
	for i := range s.upPkg {
		s.upPkg[i].reset()
		s.downPkg[i].reset()
	}
	s.act = gpu.PathActivity{}
	s.traffic = mem.Traffic{}
	s.granules.reset()
}
