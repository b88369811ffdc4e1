package tfim

import (
	"repro/internal/cache"
	"repro/internal/config"
	"repro/internal/gpu"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/texture"
)

// BaselinePath keeps the entire texture-filtering chain in the GPU texture
// units behind per-unit L1 caches and a shared L2, fetching missed lines
// from the memory backend. Used for both the Baseline design (GDDR5) and
// B-PIM (HMC as plain memory, Section III) — only the backend differs.
type BaselinePath struct {
	cfg     config.Config
	backend mem.Backend
	l1      []*cache.Cache
	l2      *cache.Cache
	units   []*unitTiming
	sampler texture.Sampler

	act     gpu.PathActivity
	traffic mem.Traffic

	trace     *obs.Tracer
	unitTrack []string

	// Per-request transient state used by the fetch callback.
	curUnit   int
	curIssue  int64
	curMaxMem int64
	curTexels int
}

// NewBaselinePath builds the on-chip filtering path over the given backend.
func NewBaselinePath(cfg config.Config, backend mem.Backend) *BaselinePath {
	b := &BaselinePath{cfg: cfg, backend: backend}
	nUnits := cfg.GPU.TextureUnits
	for i := 0; i < nUnits; i++ {
		b.l1 = append(b.l1, cache.New(cache.Config{
			Name:      "texL1",
			SizeBytes: cfg.GPU.TexL1KB * 1024,
			Ways:      cfg.GPU.TexL1Ways,
			LineBytes: mem.LineSize,
		}))
		b.units = append(b.units, newUnitTiming(cfg.GPU.MSHRs))
	}
	b.l2 = cache.New(cache.Config{
		Name:      "texL2",
		SizeBytes: cfg.GPU.TexL2KB * 1024,
		Ways:      cfg.GPU.TexL2Ways,
		LineBytes: mem.LineSize,
	})
	b.sampler = texture.Sampler{MaxAniso: cfg.GPU.MaxAniso, Fetch: b.fetchTexel}
	return b
}

// Name implements gpu.TexturePath.
func (b *BaselinePath) Name() string {
	if b.backend.Name() == "hmc" {
		return "b-pim"
	}
	return "baseline"
}

// SetTracer implements obs.TraceAttacher: texture-unit miss windows become
// spans on per-unit tracks.
func (b *BaselinePath) SetTracer(t *obs.Tracer) {
	b.trace = t
	b.unitTrack = unitTracks("texunit", len(b.units))
}

// fetchTexel is the sampler callback: it routes one texel read through the
// cache hierarchy, charging memory latency on misses.
func (b *BaselinePath) fetchTexel(t *texture.Texture, level, x, y int) texture.Color {
	b.curTexels++
	b.act.GPUTexelFetches++
	addr, c := t.TexelAndAddr(level, x, y)
	b.act.L1Accesses++
	if b.l1[b.curUnit].Access(addr, false).Hit {
		b.curMaxMem = max(b.curMaxMem, b.curIssue+l1HitLatency)
		return c
	}
	b.act.L2Accesses++
	if b.l2.Access(addr, false).Hit {
		b.curMaxMem = max(b.curMaxMem, b.curIssue+l2HitLatency)
		return c
	}
	// L2 miss: fetch the line from memory.
	done := b.backend.Access(b.curIssue, mem.Request{
		Addr: mem.LineAddr(addr), Size: mem.LineSize, Class: mem.ClassTexture, Kind: mem.Read,
	})
	b.traffic.Record(mem.ClassTexture, mem.Read, mem.LineSize+mem.RequestOverheadBytes)
	b.curMaxMem = max(b.curMaxMem, done)
	return c
}

// Sample implements gpu.TexturePath: the conventional filter order of
// Fig. 7(A) — all child texels are fetched to the GPU.
func (b *BaselinePath) Sample(now int64, req *gpu.TexRequest) gpu.TexResult {
	unit := req.Cluster % len(b.units)
	u := b.units[unit]
	accepted, issue := u.admit2(now)

	b.curUnit = unit
	b.curIssue = issue
	b.curMaxMem = issue
	b.curTexels = 0

	color := b.sampler.SampleAniso(req.Tex, req.U, req.V, req.Foot)

	texels := b.curTexels
	addrCost := aluCost(texels, b.cfg.GPU.AddrALUs)
	filterCost := aluCost(texels, b.cfg.GPU.FilterALUs)
	b.act.GPUFilterOps += uint64(texels)
	occ := addrCost
	if filterCost > occ {
		occ = filterCost
	}
	pipeDone := issue + pipeBaseCycles + ceilI64(addrCost+filterCost)
	done := b.curMaxMem + ceilI64(filterCost)
	if pipeDone > done {
		done = pipeDone
	}
	missed := b.curMaxMem > issue+l2HitLatency
	u.retire(issue, occ, done, missed)
	if missed && b.trace.On() {
		// The miss window: from unit issue until the last texel line
		// arrived from memory.
		b.trace.SpanArg(b.unitTrack[unit], "miss", issue, b.curMaxMem,
			"texels", int64(texels))
	}

	b.act.TexRequests++
	b.act.QueueCycles += accepted - now
	if m := b.curMaxMem - issue; m > 0 {
		b.act.MemCycles += m
	}
	b.act.BusyCycles += occ + float64(issue-accepted)
	recordLatency(&b.act, accepted, done)
	return gpu.TexResult{Color: color, Done: done}
}

// EndFrame implements gpu.TexturePath (texture data is read-only; nothing
// to drain).
func (b *BaselinePath) EndFrame(now int64) int64 { return now }

// Activity implements gpu.TexturePath.
func (b *BaselinePath) Activity() gpu.PathActivity { return b.act }

// Traffic returns the texture traffic recorded so far.
func (b *BaselinePath) Traffic() *mem.Traffic { return &b.traffic }

// CacheStats implements gpu.TexturePath.
func (b *BaselinePath) CacheStats() map[string]cache.Stats {
	var agg cache.Stats
	for _, c := range b.l1 {
		agg.Add(c.Stats())
	}
	return map[string]cache.Stats{"texL1": agg, "texL2": b.l2.Stats()}
}

// Reset implements gpu.TexturePath.
func (b *BaselinePath) Reset() {
	for _, c := range b.l1 {
		c.Reset()
	}
	b.l2.Reset()
	for _, u := range b.units {
		u.reset()
	}
	b.act = gpu.PathActivity{}
	b.traffic = mem.Traffic{}
}
