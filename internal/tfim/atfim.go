package tfim

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/config"
	"repro/internal/gpu"
	"repro/internal/hmc"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/texture"
)

// ATFIMPath implements the advanced texture-filtering-in-memory design of
// Section V. The filtering sequence is reordered so anisotropic filtering
// runs first, inside the HMC logic layer:
//
//  1. The GPU texture unit computes the 8 "parent texel" addresses as if
//     anisotropic filtering were disabled and probes the texture caches.
//     Cache lines carry a camera angle; a hit whose stored angle differs
//     from the fragment's by more than the threshold is demoted to a miss
//     (recalculation, Section V-C).
//  2. Missing parent texels are packed by the Offloading Unit into one
//     package (4x a read request) and sent to the cube.
//  3. In the logic layer, the Texel Generator derives each parent's child
//     texels, the Child Texel Consolidation merges duplicate fetches, the
//     vaults serve them over internal bandwidth, and the Combination Unit
//     averages children into approximated parent texels (tracked through
//     the Parent Texel Buffer).
//  4. The parent texels return to the GPU, are cached with their camera
//     angle, and feed the on-chip bilinear + trilinear filters.
type ATFIMPath struct {
	cfg     config.Config
	cube    hmc.Cube
	l1      []*cache.Cache
	l2      *cache.Cache
	units   []*unitTiming
	sampler texture.Sampler

	act     gpu.PathActivity
	traffic mem.Traffic
	upPkg   []packageMeter
	downPkg []packageMeter

	// Per-request scratch, reused so Sample allocates nothing in steady
	// state. A path belongs to one shard worker, so it needs no locking.
	//
	// parents lists the request's parent texels in the order the
	// reordered sampler asks for them; parentValues[k] is parents[k]'s
	// color. missing holds the parents to compute in memory, lines the
	// distinct memory lines they fall in (texels in lineTexels), offs the
	// child offsets of one mip level.
	parents      []texture.ParentCoord
	parentValues [8]texture.Color
	missing      []parentMiss
	lines        []lineJob
	lineTexels   []texture.LineTexel
	offs         []childOffset
	// granules, genDone and curMax belong to the offload in progress: the
	// consolidated granule fetches, the cycle the Texel Generator has
	// produced the child addresses, and the latest vault completion.
	granules granuleTable
	genDone  int64
	curMax   int64

	// ptb models Parent Texel Buffer back-pressure, banked by requesting
	// texture unit so one unit's burst does not block the others (the
	// paper sizes the PTB to match the memory request queue precisely so
	// it does not become a bottleneck).
	ptb []*bufferTiming

	// Offload stage-latency diagnostics (cycles summed per stage).
	dbgPTBWait, dbgLinkUp, dbgVault, dbgLinkDown int64

	trace        *obs.Tracer
	offloadTrack []string
}

// parentMiss records one parent texel that must be computed in memory:
// its position k in the request's parent list, its texel address, and the
// L1/L2 lines (and byte offset within them) its value will be stored into.
// Compulsory misses and angle recalculations alike recompute the whole
// 16-texel line: a line carries one camera angle (Section V-D), so all of
// its texels are refreshed under the new angle together.
type parentMiss struct {
	coord  texture.ParentCoord
	k      int
	addr   uint64
	l1Line int
	l2Line int
	off    int
}

// lineJob is one distinct memory line the composing stage computes: its
// address and level, its texels (lineTexels[start:end]), and the L1/L2
// lines that receive it.
type lineJob struct {
	addr       uint64
	level      int
	start, end int
	l1Line     int
	l2Line     int
}

// childOffset is one child texel's offset from its parent.
type childOffset struct{ dx, dy int }

// NewATFIMPath builds the A-TFIM path over the cube.
func NewATFIMPath(cfg config.Config, cube hmc.Cube) *ATFIMPath {
	a := &ATFIMPath{
		cfg:        cfg,
		cube:       cube,
		parents:    make([]texture.ParentCoord, 0, 8),
		missing:    make([]parentMiss, 0, 8),
		lines:      make([]lineJob, 0, 8),
		lineTexels: make([]texture.LineTexel, 0, 8*16),
		offs:       make([]childOffset, 0, cfg.GPU.MaxAniso),
	}
	a.upPkg = make([]packageMeter, cfg.GPU.TextureUnits)
	a.downPkg = make([]packageMeter, cfg.GPU.TextureUnits)
	perUnit := cfg.TFIM.ParentTexelBufferEntries / cfg.GPU.TextureUnits * 2
	for i := 0; i < cfg.GPU.TextureUnits; i++ {
		a.ptb = append(a.ptb, newBufferTiming(perUnit))
		a.l1 = append(a.l1, cache.New(cache.Config{
			Name:      "texL1",
			SizeBytes: cfg.GPU.TexL1KB * 1024,
			Ways:      cfg.GPU.TexL1Ways,
			LineBytes: mem.LineSize,
			AngleTags: true,
			DataLines: true,
		}))
		a.units = append(a.units, newUnitTiming(cfg.GPU.MSHRs))
	}
	a.l2 = cache.New(cache.Config{
		Name:      "texL2",
		SizeBytes: cfg.GPU.TexL2KB * 1024,
		Ways:      cfg.GPU.TexL2Ways,
		LineBytes: mem.LineSize,
		AngleTags: true,
		DataLines: true,
	})
	a.sampler = texture.Sampler{MaxAniso: cfg.GPU.MaxAniso}
	return a
}

// Name implements gpu.TexturePath.
func (a *ATFIMPath) Name() string { return "a-tfim" }

// SetTracer implements obs.TraceAttacher: every offload package round trip
// (Offloading Unit -> Texel Generator -> vaults -> Combination Unit ->
// response) becomes one span on its texture unit's offload track.
func (a *ATFIMPath) SetTracer(t *obs.Tracer) {
	a.trace = t
	a.offloadTrack = unitTracks("offload", len(a.units))
}

// Sample implements gpu.TexturePath: the Fig. 7(B)/Fig. 9 walkthrough.
func (a *ATFIMPath) Sample(now int64, req *gpu.TexRequest) gpu.TexResult {
	unit := req.Cluster % len(a.units)
	u := a.units[unit]
	accepted, issue := u.admit2(now)
	thr := a.cfg.TFIM.AngleThreshold
	angle := req.Foot.Angle

	// 1. Parent texel addresses with anisotropic filtering disabled.
	a.parents = texture.AppendParentTexelCoords(a.parents[:0], req.Tex, req.U, req.V, req.Foot)
	parents := a.parents
	a.act.ParentTexelsServed += uint64(len(parents))
	a.act.GPUTexelFetches += uint64(len(parents))

	a.missing = a.missing[:0]
	maxHitLat := int64(0)

	for k, pc := range parents {
		addr := req.Tex.TexelAddr(pc.Level, pc.X, pc.Y)
		off := int(addr % mem.LineSize)
		a.act.L1Accesses++
		r1 := a.l1[unit].AccessAngle(addr, false, angle, thr)
		if r1.AngleRejected {
			a.act.AngleRecalcs++
		}
		if r1.Hit && a.l1[unit].WordValid(r1.LineIndex, off) {
			a.parentValues[k] = texture.Unpack(a.l1[unit].Word(r1.LineIndex, off))
			if l1HitLatency > maxHitLat {
				maxHitLat = l1HitLatency
			}
			continue
		}
		a.act.L2Accesses++
		r2 := a.l2.AccessAngle(addr, false, angle, thr)
		if r2.AngleRejected {
			a.act.AngleRecalcs++
		}
		if r2.Hit && a.l2.WordValid(r2.LineIndex, off) {
			c := texture.Unpack(a.l2.Word(r2.LineIndex, off))
			a.parentValues[k] = c
			// Promote into L1.
			a.l1[unit].SetWord(r1.LineIndex, off, texture.Pack(c))
			if l2HitLatency > maxHitLat {
				maxHitLat = l2HitLatency
			}
			continue
		}
		a.missing = append(a.missing, parentMiss{
			coord: pc, k: k, addr: addr,
			l1Line: r1.LineIndex, l2Line: r2.LineIndex, off: off,
		})
	}
	missing := a.missing

	memDone := issue + maxHitLat
	if len(missing) > 0 {
		memDone = a.offload(issue, unit, req)
		if hd := issue + maxHitLat; hd > memDone {
			memDone = hd
		}
	}

	// 4. On-chip bilinear + trilinear over the approximated parent texels.
	// The sampler asks for the parents in AppendParentTexelCoords order.
	next := 0
	color := a.sampler.SampleAnisoReordered(req.Tex, req.U, req.V, req.Foot,
		func(*texture.Texture, int, int, int, texture.Footprint) texture.Color {
			c := a.parentValues[next]
			next++
			return c
		})

	nParents := len(parents)
	addrCost := aluCost(nParents, a.cfg.GPU.AddrALUs)
	filterCost := aluCost(nParents, a.cfg.GPU.FilterALUs)
	a.act.GPUFilterOps += uint64(nParents)
	occ := addrCost
	if filterCost > occ {
		occ = filterCost
	}
	pipeDone := issue + pipeBaseCycles + ceilI64(addrCost+filterCost)
	done := memDone + ceilI64(filterCost)
	if pipeDone > done {
		done = pipeDone
	}
	u.retire(issue, occ, done, len(missing) > 0)

	a.act.TexRequests++
	a.act.QueueCycles += accepted - now
	if m := memDone - issue; m > 0 {
		a.act.MemCycles += m
	}
	a.act.BusyCycles += occ + float64(issue-accepted)
	recordLatency(&a.act, accepted, done)
	return gpu.TexResult{Color: color, Done: done}
}

// offload models steps 2-3 of the walkthrough for the parents in
// a.missing: one Offloading Unit package carries them to the cube; the
// Texel Generator derives child texels; the Child Texel Consolidation
// merges duplicate fetches; the vaults serve the children internally; the
// Combination Unit averages children into parents. The composing stage
// groups results at normal-bilinear-fetch (cache line) granularity, so the
// whole 4x4 texel block of each missing line is computed and returned —
// one response line per missing line, filled into L1 and L2 with the
// request's camera angle. Returns the cycle the response reaches the GPU.
func (a *ATFIMPath) offload(now int64, unit int, req *gpu.TexRequest) int64 {
	cubeCfg := a.cube.Config()
	missing := a.missing

	// Parent Texel Buffer back-pressure.
	ptb := a.ptb[unit%len(a.ptb)]
	start := ptb.admit(now)

	// Offload package: 4x a normal read request in total size regardless
	// of parent count — the Offloading Unit's hash table packs parents as
	// offsets to the first parent's address (Section V-D) and coalesces
	// the offloads of a fragment quad into one framed package.
	reqBytes := a.cfg.TFIM.OffloadPackageFactor * cubeCfg.ReadRequestBytes
	reqPayload := reqBytes - cubeCfg.PacketHeaderBytes
	if reqPayload < 0 {
		reqPayload = 0
	}
	routeAddr := missing[0].addr
	arrive := a.cube.SendPacketTo(start, routeAddr, reqPayload/quadCoalesce)
	a.traffic.Record(mem.ClassTexture, mem.Write, uint32(a.upPkg[unit].bytes(reqBytes, reqBytes/quadCoalesce)))
	a.act.OffloadPackets++

	foot := req.Foot
	tex := req.Tex

	// Group the misses by their containing memory line — each unique line
	// is computed once, in full (the composing stage returns whole
	// bilinear-fetch-shaped blocks).
	a.lines = a.lines[:0]
	a.lineTexels = a.lineTexels[:0]
	for _, m := range missing {
		la := tex.LineAddr(m.coord.Level, m.coord.X, m.coord.Y)
		if a.hasLine(la) {
			// Same cache line; indices agree.
			continue
		}
		first := len(a.lineTexels)
		a.lineTexels = tex.AppendLineTexels(a.lineTexels, m.coord.Level, m.coord.X, m.coord.Y)
		a.lines = append(a.lines, lineJob{
			addr: la, level: m.coord.Level, start: first, end: len(a.lineTexels),
			l1Line: m.l1Line, l2Line: m.l2Line,
		})
	}

	// Texel Generator: one address computation per child texel.
	children := len(a.lineTexels) * foot.N
	genCost := ceilI64(aluCost(children, a.cfg.TFIM.TexelGenALUs))

	// Child Texel Consolidation + vault fetches over internal bandwidth,
	// at the fine internal granularity (2x2 texel blocks); then the
	// Combination Unit averages children into every parent texel of each
	// missing line and writes the line into the GPU texture caches.
	a.granules.reset()
	a.genDone = arrive + genCost
	a.curMax = a.genDone
	level := -1
	for _, j := range a.lines {
		if j.level != level {
			level = j.level
			a.childOffsets(tex, level, foot)
		}
		for _, lt := range a.lineTexels[j.start:j.end] {
			packed := texture.Pack(a.combine(tex, level, lt.X, lt.Y, foot.N))
			a.l1[unit].SetWord(j.l1Line, lt.Off, packed)
			a.l2.SetWord(j.l2Line, lt.Off, packed)
		}
	}
	combCost := ceilI64(aluCost(children, a.cfg.TFIM.CombineALUs))
	a.act.PIMFilterOps += uint64(children)

	// Resolve the requested parents' values from the freshly filled lines.
	for _, m := range missing {
		a.parentValues[m.k] = texture.Unpack(a.l1[unit].Word(m.l1Line, m.off))
	}

	filtered := a.curMax + combCost

	// Response: one line-sized payload per computed line (grouped by the
	// composing stage to look like normal bilinear fetch results), framed
	// once per coalesced quad.
	respPayload := len(a.lines) * mem.LineSize
	done := a.cube.ReturnPacketFrom(filtered, routeAddr, respPayload)
	a.traffic.Record(mem.ClassTexture, mem.Read,
		uint32(a.downPkg[unit].bytes(respPayload+cubeCfg.PacketHeaderBytes, respPayload)))
	a.act.ResponsePackets++

	ptb.retire(done)
	if a.trace.On() {
		a.trace.SpanArg(a.offloadTrack[unit], "offload", start, done,
			"parents", int64(len(missing)))
	}
	a.act.OffloadLatencySum += done - now
	a.dbgPTBWait += start - now
	a.dbgLinkUp += arrive - start
	a.dbgVault += filtered - arrive
	a.dbgLinkDown += done - filtered
	return done
}

// hasLine reports whether the offload in progress already computes the
// memory line at addr.
func (a *ATFIMPath) hasLine(addr uint64) bool {
	for _, j := range a.lines {
		if j.addr == addr {
			return true
		}
	}
	return false
}

// childOffsets fills a.offs with the footprint's child offsets at level.
func (a *ATFIMPath) childOffsets(tex *texture.Texture, level int, foot texture.Footprint) {
	a.offs = a.offs[:0]
	for i := 0; i < foot.N; i++ {
		dx, dy := foot.ChildOffset(tex, level, i)
		a.offs = append(a.offs, childOffset{dx, dy})
	}
}

// combine is the Combination Unit for parent texel (x, y): it fetches the
// n children at a.offs and averages them, summing in the same order as
// texture.AverageChildren.
func (a *ATFIMPath) combine(tex *texture.Texture, level, x, y, n int) texture.Color {
	if n <= 1 {
		return a.fetchChild(tex, level, x, y)
	}
	var acc texture.Color
	for _, o := range a.offs {
		acc = acc.Add(a.fetchChild(tex, level, x+o.dx, y+o.dy))
	}
	return acc.Scale(1 / float32(n))
}

// fetchChild reads one child texel through the cube's internal path at
// granule granularity. With consolidation on, a granule already fetched by
// this offload is served by that fetch.
func (a *ATFIMPath) fetchChild(tex *texture.Texture, level, x, y int) texture.Color {
	a.act.PIMTexelFetches++
	addr, c := tex.TexelAndAddr(level, x, y)
	g := addr &^ uint64(internalGranule-1)
	consolidate := a.cfg.TFIM.Consolidate
	if consolidate {
		if done, ok := a.granules.get(g); ok {
			a.act.ConsolidatedFetches++
			a.curMax = max(a.curMax, done)
			return c
		}
	}
	done := a.cube.InternalAccess(a.genDone, mem.Request{
		Addr: g, Size: internalGranule, Class: mem.ClassTexture, Kind: mem.Read,
	})
	if consolidate {
		a.granules.put(g, done)
	}
	a.curMax = max(a.curMax, done)
	return c
}

// EndFrame implements gpu.TexturePath.
func (a *ATFIMPath) EndFrame(now int64) int64 { return now }

// DebugString reports per-stage mean offload latencies (diagnostics).
func (a *ATFIMPath) DebugString() string {
	n := a.act.OffloadPackets
	if n == 0 {
		return ""
	}
	f := float64(n)
	return fmt.Sprintf("ptbWait=%.1f linkUp=%.1f vault=%.1f linkDown=%.1f",
		float64(a.dbgPTBWait)/f, float64(a.dbgLinkUp)/f,
		float64(a.dbgVault)/f, float64(a.dbgLinkDown)/f)
}

// Activity implements gpu.TexturePath.
func (a *ATFIMPath) Activity() gpu.PathActivity { return a.act }

// Traffic returns the parent-texel package traffic.
func (a *ATFIMPath) Traffic() *mem.Traffic { return &a.traffic }

// CacheStats implements gpu.TexturePath.
func (a *ATFIMPath) CacheStats() map[string]cache.Stats {
	agg := cache.Stats{}
	for _, c := range a.l1 {
		s := c.Stats()
		agg.Accesses += s.Accesses
		agg.Hits += s.Hits
		agg.Misses += s.Misses
		agg.Evictions += s.Evictions
		agg.AngleRejects += s.AngleRejects
	}
	return map[string]cache.Stats{"texL1": agg, "texL2": a.l2.Stats()}
}

// Reset implements gpu.TexturePath.
func (a *ATFIMPath) Reset() {
	for _, c := range a.l1 {
		c.Reset()
	}
	a.l2.Reset()
	for _, u := range a.units {
		u.reset()
	}
	for _, p := range a.ptb {
		p.reset()
	}
	for i := range a.upPkg {
		a.upPkg[i].reset()
		a.downPkg[i].reset()
	}
	a.act = gpu.PathActivity{}
	a.traffic = mem.Traffic{}
}
