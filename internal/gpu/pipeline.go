package gpu

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync/atomic"

	"repro/internal/cache"
	"repro/internal/config"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/raster"
	"repro/internal/scene"
	"repro/internal/shader"
	"repro/internal/texture"
	"repro/internal/vmath"
)

// vertexBytes is the fetched size of one vertex (pos 12 + uv 8 + color 16 +
// normal 12) and indexBytes the size of one triangle's indices.
const (
	vertexBytes = 48
	indexBytes  = 12
	// triSetupCycles is the rasterizer's per-triangle setup cost.
	triSetupCycles = 8
	// maxInflightPerCluster bounds latency hiding per shader cluster:
	// 16 shaders x 4 elements x 4-deep warp queues.
	maxInflightPerCluster = 256
)

// Pipeline renders scenes under one design configuration.
//
// The frame is a fork/join machine: geometry, triangle setup, and binning
// run serially on the frame-level Backend; the fragment stage is a fixed
// list of 64x64-pixel tile groups, each simulated hermetically on a
// worker's private backend/path/caches, merged back in fixed group order.
// Shards picks the goroutine count; NewWorker supplies each worker's
// private memory system. The rendered image, every counter and everything
// an Observer builds are byte-identical at any shard count.
//
// A pipeline keeps its workers and its per-frame scratch across frames,
// and every unit resets at frame (and tile-group) start, so a pipeline
// reused for another run renders exactly what a fresh one would; Detach
// drops what a run attached before the pipeline is reused.
type Pipeline struct {
	Cfg     config.Config
	Backend mem.Backend
	// Path is the frame-level texture path, or nil: the frame-level
	// stages never sample, so it is only reset with the frame.
	Path TexturePath

	// Shards is the number of worker goroutines draining the group list
	// (<=1 means one). It never changes simulated results.
	Shards int
	// Progress, when set, receives stage-boundary and per-group completion
	// reports while a frame is in flight. Fragment-stage reports arrive
	// from worker goroutines concurrently; the callback must be safe for
	// concurrent use and must not block. It never changes simulated
	// results.
	Progress func(Progress)
	// NewWorker builds a private (backend, path, internal-byte counter)
	// triple for one worker. The counter may be nil (no internal memory).
	// It is required: every group runs on a worker's private units. It is
	// called when a frame needs more workers than the pipeline has built;
	// workers are kept for later frames.
	NewWorker func() (mem.Backend, TexturePath, func() uint64)
	// Observer, when set, watches every frame at points whose order is
	// fixed (see Observer). It never changes simulated results.
	Observer Observer

	fb      *Framebuffer
	rast    *raster.Rasterizer
	vs      *shader.Program
	fs      *shader.Program
	machine shader.Machine // vertex-stage machine (fragment machines live in workers)
	workers []*shardWorker

	// Per-frame scratch, reused by every frame: transformed vertices,
	// setup triangles, one triangle's tiles, per-group work bins and the
	// non-empty groups.
	verts  []raster.Vertex
	sts    []raster.SetupTriangle
	tiles  []raster.Tile
	bins   [][]workItem
	groups []tileGroup

	traffic  mem.Traffic
	activity Activity

	// Per-frame camera terms for the per-pixel view-ray computation.
	tanHalfFovY float32
	tanHalfFovX float32

	scene *scene.Scene
}

// NewPipeline builds a pipeline for a WxH target. Backend and Path are
// created by the caller (internal/core wires the design together); Path
// may be nil.
func NewPipeline(cfg config.Config, w, h int, backend mem.Backend, path TexturePath) *Pipeline {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	p := &Pipeline{
		Cfg:     cfg,
		Backend: backend,
		Path:    path,
		fb:      NewFramebuffer(w, h),
		rast:    raster.New(w, h),
		vs:      shader.NewVertexProgram(),
	}
	p.rast.Depth = p.fb.Depth
	return p
}

// Framebuffer exposes the render target (for image dumps).
func (p *Pipeline) Framebuffer() *Framebuffer { return p.fb }

// RenderFrame renders frame index `frame` of the scene and returns its
// measurements. It is RenderFrameContext without cancellation.
func (p *Pipeline) RenderFrame(s *scene.Scene, frame int) (*FrameResult, error) {
	return p.RenderFrameContext(context.Background(), s, frame)
}

// RenderFrameContext renders frame index `frame` of the scene and returns
// its measurements. Texture addresses must already be assigned
// (Scene.AssignTextureAddresses). Cancellation is observed at tile-group
// boundaries; a canceled frame returns ctx.Err() with no partial result.
func (p *Pipeline) RenderFrameContext(ctx context.Context, s *scene.Scene, frame int) (*FrameResult, error) {
	if frame < 0 || frame >= len(s.Cameras) {
		return nil, fmt.Errorf("gpu: frame %d out of range (%d cameras)", frame, len(s.Cameras))
	}
	if p.NewWorker == nil {
		return nil, errors.New("gpu: Pipeline.NewWorker is not set")
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	p.scene = s
	p.fb.Clear(texture.Color{R: 0.05, G: 0.05, B: 0.08, A: 1})
	p.rast.ResetHiZ()
	p.rast.ResetStats()
	p.Backend.Reset()
	if p.Path != nil {
		p.Path.Reset()
	}
	p.traffic = mem.Traffic{}
	p.activity = Activity{}
	p.machine = shader.Machine{}

	cam := s.Cameras[frame]
	aspect := float32(p.fb.W) / float32(p.fb.H)
	p.tanHalfFovY = float32(math.Tan(float64(cam.FovY) / 2))
	p.tanHalfFovX = p.tanHalfFovY * aspect
	mvp := cam.ViewProj(aspect)
	view := vmath.LookAt(cam.Eye, cam.Center, cam.Up)
	shader.SetMVP(p.vs, [4]shader.Vec{
		vecOf(mvp.Row(0)), vecOf(mvp.Row(1)), vecOf(mvp.Row(2)), vecOf(mvp.Row(3)),
	})
	// Light direction in eye space for the fragment program.
	ld := view.MulVec(vmath.Vec4{X: s.LightDir.X, Y: s.LightDir.Y, Z: s.LightDir.Z, W: 0})
	if p.fs == nil {
		p.fs = shader.NewFragmentProgram(shader.Vec{ld.X, ld.Y, ld.Z, 0}, s.Ambient)
	} else {
		shader.SetLighting(p.fs, shader.Vec{ld.X, ld.Y, ld.Z, 0}, s.Ambient)
	}

	// --- Geometry stage (serial, frame-level backend) ---
	p.report(Progress{Frame: frame, Stage: StageGeometry})
	geomDone := p.runGeometry(s, view)
	verts := p.transformVertices(s, view)

	// --- Triangle setup + supertile binning (serial) ---
	p.report(Progress{Frame: frame, Stage: StageSetup, Cycles: geomDone})
	setupCycles, sts, groups := p.binTriangles(s, verts)
	fragBase := geomDone + setupCycles

	// --- Fragment stage: hermetic tile groups, fork/join ---
	p.report(Progress{Frame: frame, Stage: StageFragment, GroupsTotal: len(groups), Cycles: fragBase})
	var onGroup func(int64)
	if p.Progress != nil {
		// Per-group completion reports from worker goroutines. Group
		// durations add commutatively, so the running cycle total is
		// order-independent even though completion order is not.
		var gdone, gcycles atomic.Int64
		onGroup = func(dur int64) {
			d := gdone.Add(1)
			c := gcycles.Add(dur)
			p.report(Progress{
				Frame: frame, Stage: StageFragment,
				GroupsDone: int(d), GroupsTotal: len(groups),
				Cycles: fragBase + c,
			})
		}
	}
	results, err := p.runGroups(ctx, sts, groups, onGroup)
	if err != nil {
		return nil, err
	}

	// --- Deterministic merge in fixed group order ---
	o := p.Observer
	frameCaches := map[string]cache.Stats{}
	offset := fragBase
	for gi := range results {
		gr := &results[gi]
		p.traffic.Add(&gr.traffic)
		p.activity.Add(gr.activity)
		p.rast.AddStats(gr.raster)
		addCaches(frameCaches, gr.caches)
		if o != nil {
			o.Group(obs.GroupProfile{
				Index:        gi,
				X:            groups[gi].x0,
				Y:            groups[gi].y0,
				StartCycle:   offset,
				EndCycle:     offset + gr.duration,
				Fragments:    gr.activity.FragmentCount,
				TexRequests:  gr.activity.Path.TexRequests,
				TexelFetches: gr.activity.Path.GPUTexelFetches + gr.activity.Path.PIMTexelFetches,
				OffChipBytes: gr.traffic.Total(),
			}, gr.captured)
		}
		offset += gr.duration
	}
	endCompute := offset

	// --- End of frame: resolve on the frame-level backend ---
	p.report(Progress{Frame: frame, Stage: StageResolve, GroupsDone: len(groups), GroupsTotal: len(groups), Cycles: endCompute})
	resolveDone := p.resolveFrame(endCompute)
	total := resolveDone
	if b := p.Backend.BusyUntil(); b > total {
		total = b
	}
	if o != nil {
		o.FrameEnd(FrameEnd{
			Frame: frame, Width: p.fb.W, Height: p.fb.H,
			GeometryEnd: geomDone, SetupEnd: fragBase, FragmentEnd: endCompute,
			ResolveEnd: resolveDone, Cycles: total, Fragments: p.activity.FragmentCount,
			Traffic: p.traffic, Backend: p.Backend,
		})
	}

	res := &FrameResult{
		Width:          p.fb.W,
		Height:         p.fb.H,
		Cycles:         total,
		GeometryCycles: geomDone,
		FragmentCycles: endCompute - geomDone,
		Traffic:        p.traffic,
		Raster:         p.rast.Stats(),
		Caches:         frameCaches,
	}
	p.activity.Cycles = total
	res.Activity = p.activity
	res.Image = make([]uint32, len(p.fb.Color))
	copy(res.Image, p.fb.Color)
	p.report(Progress{Frame: frame, Stage: StageDone, GroupsDone: len(groups), GroupsTotal: len(groups), Cycles: total})
	return res, nil
}

// Detach drops what a run attached to the pipeline — its Observer,
// Progress callback and scene — and detaches any tracer from the
// frame-level units, so a pipeline kept for reuse holds nothing of the run
// that used it last. Workers detach at the end of every frame.
func (p *Pipeline) Detach() {
	p.Observer = nil
	p.Progress = nil
	p.scene = nil
	attachTracer(nil, p.Backend, p.Path)
}

func vecOf(v vmath.Vec4) shader.Vec { return shader.Vec{v.X, v.Y, v.Z, v.W} }

// runGeometry fetches and shades every vertex, returning the stage's
// completion cycle (compute and fetch overlap; the max dominates).
func (p *Pipeline) runGeometry(s *scene.Scene, view vmath.Mat4) int64 {
	nVerts := len(s.Mesh.Vertices)
	nTris := len(s.Mesh.Triangles)
	p.activity.VertexCount = uint64(nVerts)

	// Vertex + index fetch: streamed from the vertex region.
	var fetchDone int64
	bytesTotal := uint64(nVerts*vertexBytes + nTris*indexBytes)
	addr := mem.RegionVertex
	var now int64
	for off := uint64(0); off < bytesTotal; off += mem.LineSize {
		req := mem.Request{Addr: addr + off, Size: mem.LineSize, Class: mem.ClassGeometry, Kind: mem.Read}
		done := p.Backend.Access(now, req)
		p.traffic.Record(mem.ClassGeometry, mem.Read, mem.LineSize+mem.RequestOverheadBytes)
		if done > fetchDone {
			fetchDone = done
		}
		// Pace issue at one line per cycle to avoid unbounded queueing.
		now++
	}

	// Vertex shading: run the ISA program per vertex (functional result is
	// stored by the caller in transformVertices); the cycle cost is the
	// program cost divided across all shaders.
	vsCost := float64(p.vs.CycleCost())
	shaders := float64(p.Cfg.GPU.Clusters * p.Cfg.GPU.ShadersPerCluster)
	computeDone := int64(math.Ceil(float64(nVerts) * vsCost / shaders))

	if fetchDone > computeDone {
		return fetchDone
	}
	return computeDone
}

// transformVertices runs the vertex program over the mesh, producing
// clip-space raster vertices. Normals are taken to eye space for the
// camera-angle computation.
func (p *Pipeline) transformVertices(s *scene.Scene, view vmath.Mat4) []raster.Vertex {
	if cap(p.verts) < len(s.Mesh.Vertices) {
		p.verts = make([]raster.Vertex, len(s.Mesh.Vertices))
	}
	out := p.verts[:len(s.Mesh.Vertices)]
	for i, v := range s.Mesh.Vertices {
		p.machine.SetInput(0, shader.Vec{v.Pos.X, v.Pos.Y, v.Pos.Z, 1})
		p.machine.SetInput(1, shader.Vec{v.UV.X, v.UV.Y, 0, 0})
		p.machine.SetInput(2, shader.Vec{v.Color.X, v.Color.Y, v.Color.Z, v.Color.W})
		p.machine.SetInput(3, shader.Vec{v.Normal.X, v.Normal.Y, v.Normal.Z, 0})
		if err := p.machine.Run(p.vs); err != nil {
			panic(err)
		}
		pos := p.machine.Output(0)
		uv := p.machine.Output(1)
		col := p.machine.Output(2)
		// Eye-space normal (w=0 direction transform).
		en := view.MulVec(vmath.Vec4{X: v.Normal.X, Y: v.Normal.Y, Z: v.Normal.Z, W: 0})
		out[i] = raster.Vertex{
			Pos:    vmath.Vec4{X: pos[0], Y: pos[1], Z: pos[2], W: pos[3]},
			UV:     vmath.Vec2{X: uv[0], Y: uv[1]},
			Color:  vmath.Vec4{X: col[0], Y: col[1], Z: col[2], W: col[3]},
			Normal: vmath.Vec3{X: en.X, Y: en.Y, Z: en.Z},
		}
	}
	// Fold the vertex-stage instruction count in now; fragment-stage
	// instructions are merged from the group results.
	p.activity.ShaderInstrs += p.machine.InstrCount
	return out
}

// viewAngle computes the angle (radians) between the eye-space view ray
// through the fragment's pixel and the fragment's surface normal.
func (p *Pipeline) viewAngle(f *raster.Fragment) float32 {
	rx := (2*(float32(f.X)+0.5)/float32(p.fb.W) - 1) * p.tanHalfFovX
	ry := (1 - 2*(float32(f.Y)+0.5)/float32(p.fb.H)) * p.tanHalfFovY
	ray := vmath.Vec3{X: rx, Y: ry, Z: -1}.Normalize()
	n := f.Normal.Normalize()
	cosA := vmath.Abs(ray.Dot(n))
	return float32(math.Acos(float64(vmath.Clamp(cosA, 0, 1))))
}

// samplerUVScale maps a sampler index to the UV scale its layer applies in
// the standard fragment program (gradients must scale with the UVs).
func samplerUVScale(sampler uint8) float32 {
	switch sampler {
	case 1:
		return shader.DetailUVScale
	case 2:
		return shader.LightmapUVScale
	default:
		return 1
	}
}

func (p *Pipeline) effectiveMaxAniso() int {
	if !p.Cfg.AnisoEnabled {
		return 1
	}
	return p.Cfg.GPU.MaxAniso
}

// tileMaxDepth scans the fragment's tile for its maximum depth (HiZ bound).
// To keep the scan cheap it samples the tile's corners and center.
func tileMaxDepth(fb *Framebuffer, x, y int) float32 {
	x0 := x &^ (raster.TileSize - 1)
	y0 := y &^ (raster.TileSize - 1)
	maxD := float32(0)
	for _, d := range [5][2]int{{0, 0}, {raster.TileSize - 1, 0}, {0, raster.TileSize - 1}, {raster.TileSize - 1, raster.TileSize - 1}, {raster.TileSize / 2, raster.TileSize / 2}} {
		px := x0 + d[0]
		py := y0 + d[1]
		if px >= fb.W {
			px = fb.W - 1
		}
		if py >= fb.H {
			py = fb.H - 1
		}
		v := fb.Depth[py*fb.W+px]
		if v > maxD {
			maxD = v
		}
	}
	return maxD
}

// resolveFrame models the present/scan-out pass: the full color buffer is
// read and written to the frame region.
func (p *Pipeline) resolveFrame(now int64) int64 {
	end := now
	bytes := uint64(p.fb.W * p.fb.H * 4)
	t := now
	for off := uint64(0); off < bytes; off += mem.LineSize {
		done := p.Backend.Access(t, mem.Request{Addr: mem.RegionColor + off, Size: mem.LineSize, Class: mem.ClassFrame, Kind: mem.Read})
		p.traffic.Record(mem.ClassFrame, mem.Read, mem.LineSize+mem.RequestOverheadBytes)
		done2 := p.Backend.Access(t, mem.Request{Addr: mem.RegionFrame + off, Size: mem.LineSize, Class: mem.ClassFrame, Kind: mem.Write})
		p.traffic.Record(mem.ClassFrame, mem.Write, mem.LineSize+mem.RequestOverheadBytes)
		if done2 > done {
			done = done2
		}
		if done > end {
			end = done
		}
		t += 2
	}
	return end
}

func packShaderColor(v shader.Vec) uint32 {
	return packColor(v[0], v[1], v[2], v[3])
}

func packColor(r, g, b, a float32) uint32 {
	cb := func(x float32) uint32 {
		y := x*255 + 0.5
		if y <= 0 {
			return 0
		}
		if y >= 255 {
			return 255
		}
		return uint32(y)
	}
	return cb(r) | cb(g)<<8 | cb(b)<<16 | cb(a)<<24
}
