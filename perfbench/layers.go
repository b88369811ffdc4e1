package main

import (
	"context"
	"fmt"
	"runtime/metrics"
	"sync"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/energy"
	"repro/internal/gpu"
	"repro/internal/hmc"
	"repro/internal/mem"
	"repro/internal/scene"
	"repro/internal/tfim"
	"repro/internal/workload"
)

// clock is the monotonic origin the decorators time against.
var clock = time.Now()

func nowNS() int64 { return int64(time.Since(clock)) }

// layerCounts accumulates calls and busy nanoseconds per simulator layer.
type layerCounts struct {
	tfimCalls, tfimSelfNS     int64
	hmcAccessCalls, hmcAccess int64
	hmcIntCalls, hmcIntNS     int64
	hmcPktCalls, hmcPktNS     int64
	dramCalls, dramNS         int64
}

func (c *layerCounts) add(o *layerCounts) {
	c.tfimCalls += o.tfimCalls
	c.tfimSelfNS += o.tfimSelfNS
	c.hmcAccessCalls += o.hmcAccessCalls
	c.hmcAccess += o.hmcAccess
	c.hmcIntCalls += o.hmcIntCalls
	c.hmcIntNS += o.hmcIntNS
	c.hmcPktCalls += o.hmcPktCalls
	c.hmcPktNS += o.hmcPktNS
	c.dramCalls += o.dramCalls
	c.dramNS += o.dramNS
}

// memNS is the time spent in memory-model calls.
func (c *layerCounts) memNS() int64 { return c.hmcAccess + c.hmcIntNS + c.hmcPktNS + c.dramNS }

// probe is the counter set of one memory system (a shard worker's or the
// frame-level one). A probe is only ever touched by the goroutine that
// owns its memory system, so it needs no locking; the pipeline's join
// orders its writes before the frame's result is read.
type probe struct {
	layerCounts
	// sampleMemNS is the memory time spent inside the Sample call in
	// flight, subtracted to give the texture path's self time.
	sampleMemNS int64
}

func (p *probe) memCall(start int64) int64 {
	d := nowNS() - start
	p.sampleMemNS += d
	return d
}

// tracedPath times gpu.TexturePath.Sample. It forwards Traffic, which the
// pipeline type-asserts on every texture path the designs build.
type tracedPath struct {
	gpu.TexturePath
	p *probe
}

func (t *tracedPath) Sample(now int64, req *gpu.TexRequest) gpu.TexResult {
	start := nowNS()
	t.p.sampleMemNS = 0
	r := t.TexturePath.Sample(now, req)
	t.p.tfimCalls++
	t.p.tfimSelfNS += nowNS() - start - t.p.sampleMemNS
	return r
}

func (t *tracedPath) Traffic() *mem.Traffic {
	return t.TexturePath.(interface{ Traffic() *mem.Traffic }).Traffic()
}

// tracedDRAM times mem.Backend.Access on the GDDR5 model.
type tracedDRAM struct {
	mem.Backend
	p *probe
}

func (t *tracedDRAM) Access(now int64, req mem.Request) int64 {
	start := nowNS()
	r := t.Backend.Access(now, req)
	t.p.dramCalls++
	t.p.dramNS += t.p.memCall(start)
	return r
}

// tracedCube times the hmc.Cube entry points: external accesses, logic-
// layer (vault) accesses and the TFIM request/response packets.
type tracedCube struct {
	hmc.Cube
	p *probe
}

func (t *tracedCube) Access(now int64, req mem.Request) int64 {
	start := nowNS()
	r := t.Cube.Access(now, req)
	t.p.hmcAccessCalls++
	t.p.hmcAccess += t.p.memCall(start)
	return r
}

func (t *tracedCube) InternalAccess(now int64, req mem.Request) int64 {
	start := nowNS()
	r := t.Cube.InternalAccess(now, req)
	t.p.hmcIntCalls++
	t.p.hmcIntNS += t.p.memCall(start)
	return r
}

func (t *tracedCube) SendPacketTo(now int64, addr uint64, payloadBytes int) int64 {
	start := nowNS()
	r := t.Cube.SendPacketTo(now, addr, payloadBytes)
	t.p.hmcPktCalls++
	t.p.hmcPktNS += t.p.memCall(start)
	return r
}

func (t *tracedCube) ReturnPacketFrom(now int64, addr uint64, payloadBytes int) int64 {
	start := nowNS()
	r := t.Cube.ReturnPacketFrom(now, addr, payloadBytes)
	t.p.hmcPktCalls++
	t.p.hmcPktNS += t.p.memCall(start)
	return r
}

// buildTraced wires one design's memory system and texture path with the
// same constructors internal/core uses, each behind its decorator. cube is
// the undecorated HMC (nil on Baseline), read for internal byte counts.
func buildTraced(cfg config.Config, p *probe) (mem.Backend, gpu.TexturePath, hmc.Cube) {
	if cfg.Design == config.Baseline {
		d := dram.DefaultConfig()
		d.MemClockGHz = cfg.MemClockGHz
		backend := &tracedDRAM{Backend: dram.New(d), p: p}
		return backend, &tracedPath{TexturePath: tfim.NewBaselinePath(cfg, backend), p: p}, nil
	}
	h := hmc.DefaultConfig()
	h.Vaults = cfg.HMCVaults
	h.BanksPerVault = cfg.HMCBanksPerVault
	h.ExternalGBs = cfg.HMCExternalGBs
	h.InternalGBs = cfg.HMCInternalGBs
	h.MemClockGHz = cfg.MemClockGHz
	raw := hmc.New(h)
	cube := &tracedCube{Cube: raw, p: p}
	var path gpu.TexturePath
	switch cfg.Design {
	case config.BPIM:
		path = tfim.NewBaselinePath(cfg, cube)
	case config.STFIM:
		path = tfim.NewSTFIMPath(cfg, cube)
	default:
		path = tfim.NewATFIMPath(cfg, cube)
	}
	return cube, &tracedPath{TexturePath: path, p: p}, raw
}

// stageTimes are host wall times of one frame's pipeline stages, taken at
// the pipeline's stage-boundary progress reports, plus the bytes the
// fragment stage allocated.
type stageTimes struct {
	geometry, setup, fragment, resolve time.Duration
	fragmentAlloc                      uint64
}

// tracedFrame is one frame rendered through the decorated pipeline.
type tracedFrame struct {
	result  *core.Result
	wall    time.Duration
	stages  stageTimes
	total   layerCounts // every probe
	workers layerCounts // the shard workers' probes (fragment stage only)
	shards  int
}

func heapAllocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// renderTraced renders the scene's mid-flythrough frame under the default
// options of design d, mirroring internal/core's single-frame run with
// every layer behind a decorator. The returned Result carries the same
// frame, energy and image a SimulateContext call produces; its backend is
// not attached, so its snapshot has no bandwidth histograms.
func renderTraced(ctx context.Context, sc *scene.Scene, wl workload.Workload, d config.Design) (*tracedFrame, error) {
	cfg := config.Default(d)
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	start := time.Now()
	frameProbe := &probe{}
	backend, path, cube := buildTraced(cfg, frameProbe)
	pipe := gpu.NewPipeline(cfg, wl.Width, wl.Height, backend, path)
	pipe.Shards = core.DefaultShards()

	var mu sync.Mutex
	probes := []*probe{}
	pipe.NewWorker = func() (mem.Backend, gpu.TexturePath, func() uint64) {
		p := &probe{}
		mu.Lock()
		probes = append(probes, p)
		mu.Unlock()
		wb, wp, wcube := buildTraced(cfg, p)
		var internal func() uint64
		if wcube != nil {
			internal = func() uint64 { return wcube.TotalStats().VaultBytes }
		}
		return wb, wp, internal
	}

	// Stage boundaries: the first report of each stage marks its start.
	var marks [5]time.Time
	var allocAtFragment, allocAtResolve uint64
	stageIdx := map[gpu.Stage]int{gpu.StageGeometry: 0, gpu.StageSetup: 1, gpu.StageFragment: 2, gpu.StageResolve: 3, gpu.StageDone: 4}
	pipe.Progress = func(pr gpu.Progress) {
		i := stageIdx[pr.Stage]
		if pr.Stage == gpu.StageFragment && pr.GroupsDone > 0 {
			return // per-group reports arrive concurrently from workers
		}
		marks[i] = time.Now()
		switch pr.Stage {
		case gpu.StageFragment:
			allocAtFragment = heapAllocBytes()
		case gpu.StageResolve:
			allocAtResolve = heapAllocBytes()
		}
	}

	res, err := pipe.RenderFrameContext(ctx, sc, len(sc.Cameras)/2)
	if err != nil {
		return nil, err
	}
	res.Traffic.Add(path.(*tracedPath).Traffic())
	res.Activity.ExternalBytes = res.Traffic.Total()
	if cube != nil {
		res.Activity.InternalBytes += cube.TotalStats().VaultBytes
	}
	model := energy.DefaultModel()
	model.ClockGHz = cfg.GPU.ClockGHz
	out := &tracedFrame{
		result: &core.Result{
			Workload: wl,
			Design:   d,
			Options:  core.Options{Design: d},
			Frame:    res,
			Energy:   model.Estimate(res, cfg.UsesHMC()),
			Image:    res.Image,
		},
		wall: time.Since(start),
		stages: stageTimes{
			geometry:      marks[1].Sub(marks[0]),
			setup:         marks[2].Sub(marks[1]),
			fragment:      marks[3].Sub(marks[2]),
			resolve:       marks[4].Sub(marks[3]),
			fragmentAlloc: allocAtResolve - allocAtFragment,
		},
		shards: pipe.Shards,
	}
	for _, m := range marks {
		if m.IsZero() {
			return nil, fmt.Errorf("%s: pipeline skipped a stage report", wl.Name())
		}
	}
	out.total.add(&frameProbe.layerCounts)
	for _, p := range probes {
		out.workers.add(&p.layerCounts)
		out.total.add(&p.layerCounts)
	}
	return out, nil
}

// buildScene generates a workload's scene the way internal/core does for
// default options (Morton layout, uncompressed textures).
func buildScene(wl workload.Workload) *scene.Scene {
	sc := scene.Generate(wl.Spec)
	sc.AssignTextureAddresses(mem.RegionTexture)
	return sc
}
