package core

import (
	"sync"

	"repro/internal/config"
	"repro/internal/gpu"
	"repro/internal/hmc"
	"repro/internal/mem"
)

// machineKey identifies interchangeable machines: the design
// configuration, the cube count (0 and 1 both mean one) and the render
// target size.
type machineKey struct {
	cfg           config.Config
	cubes         int
	width, height int
}

// machine is one simulated GPU with its memory system: the pipeline, its
// frame-level backend (geometry and resolve traffic; the frame level never
// samples textures, so it has no texture path), the shard workers the
// pipeline builds on first use and keeps, and the design's telemetry
// hooks. Every unit resets at frame and tile-group start, so a reused
// machine renders exactly what a fresh one would.
type machine struct {
	pipe       *gpu.Pipeline
	cube       hmc.Cube // the frame-level backend when it is a cube
	onProgress func(gpu.Progress)
	gauges     gpu.FrameEndFunc
}

func newMachine(k machineKey) *machine {
	backend, cube := buildBackend(k.cfg, k.cubes)
	m := &machine{pipe: gpu.NewPipeline(k.cfg, k.width, k.height, backend, nil), cube: cube}
	m.pipe.NewWorker = func() (mem.Backend, gpu.TexturePath, func() uint64) {
		wb, wcube := buildBackend(k.cfg, k.cubes)
		var internal func() uint64
		if wcube != nil {
			internal = func() uint64 { return wcube.TotalStats().VaultBytes }
		}
		return wb, buildPath(k.cfg, wb, wcube), internal
	}
	m.onProgress, m.gauges = simTelemetry(k.cfg.Design)
	return m
}

// machinePool keeps an engine's idle machines, one sync.Pool per key, so
// concurrent runs of one key each hold their own machine and idle ones are
// released by the garbage collector.
type machinePool struct {
	mu    sync.Mutex
	pools map[machineKey]*sync.Pool
}

func (mp *machinePool) pool(k machineKey) *sync.Pool {
	mp.mu.Lock()
	defer mp.mu.Unlock()
	p := mp.pools[k]
	if p == nil {
		if mp.pools == nil {
			mp.pools = map[machineKey]*sync.Pool{}
		}
		p = &sync.Pool{}
		mp.pools[k] = p
	}
	return p
}

// get returns an idle machine for k, building one when none is idle.
func (mp *machinePool) get(k machineKey) *machine {
	if m, _ := mp.pool(k).Get().(*machine); m != nil {
		return m
	}
	return newMachine(k)
}

// put detaches what the finished run attached to m and keeps it for the
// next run of k.
func (mp *machinePool) put(k machineKey, m *machine) {
	m.pipe.Detach()
	mp.pool(k).Put(m)
}
