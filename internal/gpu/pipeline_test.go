package gpu

import (
	"sync"
	"testing"

	"repro/internal/cache"
	"repro/internal/config"
	"repro/internal/dram"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/scene"
	"repro/internal/texture"
)

// nullPath is a minimal texture path returning a fixed color with unit
// latency, isolating pipeline behavior from the designs.
type nullPath struct {
	act PathActivity
}

func (n *nullPath) Name() string { return "null" }
func (n *nullPath) Sample(now int64, req *TexRequest) TexResult {
	n.act.TexRequests++
	n.act.LatencySum++
	n.act.LatencyCount++
	return TexResult{Color: texture.Color{R: 0.5, G: 0.5, B: 0.5, A: 1}, Done: now + 1}
}
func (n *nullPath) EndFrame(now int64) int64           { return now }
func (n *nullPath) Activity() PathActivity             { return n.act }
func (n *nullPath) CacheStats() map[string]cache.Stats { return nil }
func (n *nullPath) Reset()                             { n.act = PathActivity{} }

func testScene() *scene.Scene {
	sc := scene.Generate(scene.Spec{
		Name: "t", Seed: 1, CorridorSegments: 3, Props: 5,
		TextureCount: 2, TextureSize: 32, Frames: 2, ObliqueBias: 0.5,
	})
	sc.AssignTextureAddresses(mem.RegionTexture)
	return sc
}

func newTestPipeline() (*Pipeline, *nullPath) {
	cfg := config.Default(config.Baseline)
	backend := dram.New(dram.DefaultConfig())
	path := &nullPath{}
	p := NewPipeline(cfg, 160, 120, backend, path)
	p.NewWorker = func() (mem.Backend, TexturePath, func() uint64) {
		return dram.New(dram.DefaultConfig()), &nullPath{}, nil
	}
	return p, path
}

func TestRenderFrameProducesImage(t *testing.T) {
	p, _ := newTestPipeline()
	sc := testScene()
	res, err := p.RenderFrame(sc, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles <= 0 {
		t.Error("no cycles accounted")
	}
	if len(res.Image) != 160*120 {
		t.Fatalf("image %d pixels", len(res.Image))
	}
	if res.Activity.FragmentCount == 0 {
		t.Fatal("no fragments shaded")
	}
	// Three texture layers per fragment (merged across tile groups; the
	// path's own counter is reset around each hermetic group).
	if res.Activity.Path.TexRequests != 3*res.Activity.FragmentCount {
		t.Errorf("tex requests %d, want 3 per fragment (%d)",
			res.Activity.Path.TexRequests, 3*res.Activity.FragmentCount)
	}
	nonBG := 0
	for _, px := range res.Image {
		if px != res.Image[len(res.Image)-1] {
			nonBG++
		}
	}
	if nonBG < len(res.Image)/20 {
		t.Errorf("frame mostly background: %d varied pixels", nonBG)
	}
}

func TestFrameOutOfRange(t *testing.T) {
	p, _ := newTestPipeline()
	sc := testScene()
	if _, err := p.RenderFrame(sc, 99); err == nil {
		t.Fatal("out-of-range frame accepted")
	}
}

func TestRenderDeterministic(t *testing.T) {
	p, _ := newTestPipeline()
	sc := testScene()
	a, err := p.RenderFrame(sc, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.RenderFrame(sc, 0)
	if err != nil {
		t.Fatal(err)
	}
	if a.Cycles != b.Cycles {
		t.Errorf("cycles differ across identical renders: %d vs %d", a.Cycles, b.Cycles)
	}
	for i := range a.Image {
		if a.Image[i] != b.Image[i] {
			t.Fatalf("pixel %d differs across identical renders", i)
		}
	}
}

func TestDifferentFramesDiffer(t *testing.T) {
	p, _ := newTestPipeline()
	sc := testScene()
	a, _ := p.RenderFrame(sc, 0)
	b, _ := p.RenderFrame(sc, 1)
	same := 0
	for i := range a.Image {
		if a.Image[i] == b.Image[i] {
			same++
		}
	}
	if same == len(a.Image) {
		t.Fatal("camera movement did not change the frame")
	}
}

func TestTrafficClassesAllPresent(t *testing.T) {
	p, _ := newTestPipeline()
	sc := testScene()
	res, _ := p.RenderFrame(sc, 0)
	for _, c := range []mem.Class{mem.ClassGeometry, mem.ClassZ, mem.ClassColor, mem.ClassFrame} {
		if res.Traffic.ClassTotal(c) == 0 {
			t.Errorf("no %s traffic recorded", c)
		}
	}
}

func TestDepthBufferOrdering(t *testing.T) {
	// Render a frame and check every visible pixel carries a depth < 1.
	p, _ := newTestPipeline()
	sc := testScene()
	if _, err := p.RenderFrame(sc, 0); err != nil {
		t.Fatal(err)
	}
	fb := p.Framebuffer()
	covered := 0
	for i, d := range fb.Depth {
		if d < 1 {
			covered++
		}
		if d < 0 || d > 1 {
			t.Fatalf("depth[%d]=%g out of range", i, d)
		}
	}
	if covered < len(fb.Depth)/20 {
		t.Errorf("only %d pixels covered", covered)
	}
}

func TestFramebufferAddressing(t *testing.T) {
	fb := NewFramebuffer(16, 16)
	if fb.DepthAddr(0, 0) != mem.RegionDepth {
		t.Error("depth base wrong")
	}
	if fb.ColorAddr(1, 0)-fb.ColorAddr(0, 0) != 4 {
		t.Error("color stride wrong")
	}
	if fb.DepthAddr(0, 1)-fb.DepthAddr(0, 0) != 16*4 {
		t.Error("depth row stride wrong")
	}
}

func TestFramebufferClear(t *testing.T) {
	fb := NewFramebuffer(4, 4)
	fb.Color[5] = 0x12345678
	fb.Depth[5] = 0.5
	fb.Clear(texture.Color{R: 1, A: 1})
	if fb.Depth[5] != 1 {
		t.Error("depth not cleared")
	}
	if c := fb.Pixel(1, 1); c.R < 0.99 {
		t.Error("color not cleared")
	}
}

func TestAccumulate(t *testing.T) {
	p, _ := newTestPipeline()
	sc := testScene()
	a, _ := p.RenderFrame(sc, 0)
	b, _ := p.RenderFrame(sc, 1)
	total := a.Cycles + b.Cycles
	frags := a.Activity.FragmentCount + b.Activity.FragmentCount
	a.Accumulate(b)
	if a.Cycles != total {
		t.Errorf("accumulated cycles %d want %d", a.Cycles, total)
	}
	if a.Activity.FragmentCount != frags {
		t.Errorf("accumulated fragments %d want %d", a.Activity.FragmentCount, frags)
	}
}

func TestViewAngleVariesAcrossScreen(t *testing.T) {
	// The per-pixel camera angle (Section V-C) must vary across a flat
	// surface — this is what drives the recalculation mechanism.
	cfg := config.Default(config.Baseline)
	backend := dram.New(dram.DefaultConfig())
	angles := map[float32]bool{}
	path := &anglePath{angles: angles}
	p := NewPipeline(cfg, 160, 120, backend, path)
	// One worker (Shards unset), so the shared angle set needs no lock.
	p.NewWorker = func() (mem.Backend, TexturePath, func() uint64) {
		return dram.New(dram.DefaultConfig()), &anglePath{angles: angles}, nil
	}
	sc := testScene()
	if _, err := p.RenderFrame(sc, 0); err != nil {
		t.Fatal(err)
	}
	if len(angles) < 100 {
		t.Fatalf("only %d distinct camera angles across the frame", len(angles))
	}
}

type anglePath struct {
	nullPath
	angles map[float32]bool
}

func (a *anglePath) Sample(now int64, req *TexRequest) TexResult {
	a.angles[req.Foot.Angle] = true
	return a.nullPath.Sample(now, req)
}

func TestRenderFrameRequiresWorkerFactory(t *testing.T) {
	p, _ := newTestPipeline()
	p.NewWorker = nil
	if _, err := p.RenderFrame(testScene(), 0); err == nil {
		t.Fatal("frame rendered without a worker factory")
	}
}

// recordingObserver checks the Observer contract from the inside: its
// worker side counts each group's tiles and hands the count over at group
// end; the merge must see groups in index order, tiling the fragment
// stage contiguously, each with the non-zero count its worker captured.
type recordingObserver struct {
	mu        sync.Mutex
	workers   int
	groups    []obs.GroupProfile
	tiles     []int
	frameEnds []FrameEnd
}

type tileCounter struct{ n int }

func (c *tileCounter) Tile(cluster int, start, end int64) { c.n++ }
func (c *tileCounter) GroupEnd() any {
	n := c.n
	c.n = 0
	return n
}

func (r *recordingObserver) Worker(mem.Backend, TexturePath) WorkerObserver {
	r.mu.Lock()
	r.workers++
	r.mu.Unlock()
	return &tileCounter{}
}

func (r *recordingObserver) Group(g obs.GroupProfile, captured any) {
	r.groups = append(r.groups, g)
	r.tiles = append(r.tiles, captured.(int))
}

func (r *recordingObserver) FrameEnd(f FrameEnd) { r.frameEnds = append(r.frameEnds, f) }

func TestObserverSeesFixedOrder(t *testing.T) {
	p, _ := newTestPipeline()
	p.Shards = 4
	rec := &recordingObserver{}
	var frameEnds int
	p.Observer = Observers(rec, FrameEndFunc(func(FrameEnd) { frameEnds++ }))
	res, err := p.RenderFrame(testScene(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if rec.workers < 1 || rec.workers > 4 {
		t.Fatalf("Worker called %d times, want 1..4", rec.workers)
	}
	if len(rec.frameEnds) != 1 || frameEnds != 1 {
		t.Fatalf("FrameEnd calls: %d and %d, want 1 each", len(rec.frameEnds), frameEnds)
	}
	f := rec.frameEnds[0]
	if f.Cycles != res.Cycles || f.Fragments != res.Activity.FragmentCount || f.Backend != p.Backend {
		t.Fatalf("frame end %+v does not describe the result (cycles %d)", f, res.Cycles)
	}
	if len(rec.groups) == 0 {
		t.Fatal("no groups merged")
	}
	next := f.SetupEnd
	var frags uint64
	for i, g := range rec.groups {
		if g.Index != i || g.StartCycle != next || g.EndCycle < g.StartCycle {
			t.Fatalf("group %d out of order: %+v (want start %d)", i, g, next)
		}
		if rec.tiles[i] == 0 {
			t.Fatalf("group %d merged without its worker's tile count", i)
		}
		next = g.EndCycle
		frags += g.Fragments
	}
	if next != f.FragmentEnd || frags != f.Fragments {
		t.Fatalf("groups end at %d with %d fragments; frame says %d and %d",
			next, frags, f.FragmentEnd, f.Fragments)
	}
}

// attachRecorder is a worker backend that remembers the tracer last
// attached to it.
type attachRecorder struct {
	*dram.GDDR5
	tracer *obs.Tracer
	calls  int
}

func (a *attachRecorder) SetTracer(t *obs.Tracer) {
	a.tracer = t
	a.calls++
	a.GDDR5.SetTracer(t)
}

// TestWorkersOutliveFrames renders three frames on one pipeline without a
// frame-level texture path: the first traced, the others not. Workers are
// built once and kept; each traced frame attaches a tracer to every worker
// backend and detaches it when the frame ends, and Detach detaches the
// frame-level backend.
func TestWorkersOutliveFrames(t *testing.T) {
	cfg := config.Default(config.Baseline)
	frameBackend := &attachRecorder{GDDR5: dram.New(dram.DefaultConfig())}
	p := NewPipeline(cfg, 160, 120, frameBackend, nil)
	p.Shards = 2
	var (
		mu      sync.Mutex
		workers []*attachRecorder
	)
	p.NewWorker = func() (mem.Backend, TexturePath, func() uint64) {
		b := &attachRecorder{GDDR5: dram.New(dram.DefaultConfig())}
		mu.Lock()
		workers = append(workers, b)
		mu.Unlock()
		return b, &nullPath{}, nil
	}
	sc := testScene()
	tr := obs.NewTracer(0)
	p.Observer = TraceObserver(tr, p.Backend)
	first, err := p.RenderFrame(sc, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(workers) != 2 {
		t.Fatalf("built %d workers for 2 shards", len(workers))
	}
	for i, w := range workers {
		if w.calls != 2 || w.tracer != nil {
			t.Fatalf("worker %d: %d tracer attachments, tracer %p after the frame; want attach then detach", i, w.calls, w.tracer)
		}
	}
	p.Detach()
	if frameBackend.tracer != nil {
		t.Fatal("Detach left the tracer on the frame-level backend")
	}
	events := tr.Len()
	for f := 0; f < 2; f++ {
		res, err := p.RenderFrame(sc, 0)
		if err != nil {
			t.Fatal(err)
		}
		if res.Cycles != first.Cycles || res.Activity != first.Activity {
			t.Fatalf("frame %d on kept workers differs from the first", f+2)
		}
	}
	if len(workers) != 2 || tr.Len() != events {
		t.Fatalf("later frames built %d workers and added %d trace events", len(workers)-2, tr.Len()-events)
	}
}
