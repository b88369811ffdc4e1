package core

import (
	"fmt"

	"repro/internal/mem"
	"repro/internal/obs"
)

// Metrics flattens a Result into the stable observability snapshot exported
// by `pimsim -json`. Counters cover traffic (per class and direction),
// pipeline activity and per-cache statistics; gauges cover energy, rates and
// latencies; histograms carry the memory backend's bandwidth-utilization
// profile when the backend exposes one, as the run left it.
func (r *Result) Metrics() *obs.Snapshot {
	// A result restored from the durable store carries the snapshot its
	// original run produced (including backend histograms no restored
	// result could recompute); serve it verbatim.
	if r.storedMetrics != nil {
		return r.storedMetrics
	}
	s := obs.NewSnapshot("run")
	s.Workload = r.Workload.Name()
	s.Design = r.Design.String()
	s.Cycles = r.Frame.Cycles
	s.SimVersion = SimVersion
	build := obs.Build()
	s.Build = &build

	// Traffic by class and direction plus the headline totals.
	for c := mem.Class(0); c < mem.NumClasses; c++ {
		for _, k := range []mem.Kind{mem.Read, mem.Write} {
			s.Counter(fmt.Sprintf("traffic.%s.%s.bytes", c, k),
				r.Frame.Traffic.Bytes(c, k))
		}
	}
	s.Counter("traffic.total.bytes", r.Frame.Traffic.Total())
	s.Counter("traffic.texture.bytes", r.Frame.Traffic.TextureBytes())

	// Frame/pipeline activity.
	a := r.Frame.Activity
	s.Counter("frame.vertices", a.VertexCount)
	s.Counter("frame.fragments", a.FragmentCount)
	s.Counter("frame.shader_instrs", a.ShaderInstrs)
	s.Counter("frame.z_accesses", a.ZAccesses)
	s.Counter("frame.color_accesses", a.ColorAccesses)
	s.Counter("frame.external_bytes", a.ExternalBytes)
	s.Counter("frame.internal_bytes", a.InternalBytes)
	s.Counter("frame.geometry_cycles", uint64(r.Frame.GeometryCycles))
	s.Counter("frame.fragment_cycles", uint64(r.Frame.FragmentCycles))

	// Texture-path activity.
	p := a.Path
	s.Counter("texpath.requests", p.TexRequests)
	s.Counter("texpath.gpu_texel_fetches", p.GPUTexelFetches)
	s.Counter("texpath.gpu_filter_ops", p.GPUFilterOps)
	s.Counter("texpath.pim_texel_fetches", p.PIMTexelFetches)
	s.Counter("texpath.pim_filter_ops", p.PIMFilterOps)
	s.Counter("texpath.l1_accesses", p.L1Accesses)
	s.Counter("texpath.l2_accesses", p.L2Accesses)
	s.Counter("texpath.offload_packets", p.OffloadPackets)
	s.Counter("texpath.response_packets", p.ResponsePackets)
	s.Counter("texpath.angle_recalcs", p.AngleRecalcs)
	s.Counter("texpath.parent_texels_served", p.ParentTexelsServed)
	s.Counter("texpath.consolidated_fetches", p.ConsolidatedFetches)

	// Per-cache statistics.
	for name, cs := range r.Frame.Caches {
		s.Counter("cache."+name+".accesses", cs.Accesses)
		s.Counter("cache."+name+".hits", cs.Hits)
		s.Counter("cache."+name+".misses", cs.Misses)
		s.Counter("cache."+name+".evictions", cs.Evictions)
	}

	// Energy breakdown (joules) and headline rates.
	s.Gauge("energy.shader_j", r.Energy.Shader)
	s.Gauge("energy.texture_gpu_j", r.Energy.TextureGPU)
	s.Gauge("energy.caches_j", r.Energy.Caches)
	s.Gauge("energy.rop_j", r.Energy.ROP)
	s.Gauge("energy.links_j", r.Energy.Links)
	s.Gauge("energy.dram_j", r.Energy.DRAM)
	s.Gauge("energy.pim_logic_j", r.Energy.PIMLogic)
	s.Gauge("energy.background_j", r.Energy.Background)
	s.Gauge("energy.leakage_j", r.Energy.Leakage)
	s.Gauge("energy.total_j", r.Energy.Total())

	cfg := buildConfig(r.Options)
	s.Gauge("rate.fps", r.Frame.FPS(cfg.GPU.ClockGHz))
	s.Gauge("latency.tex_filter_cycles", r.Frame.TexFilterLatency())
	s.Gauge("latency.tex_queue_cycles_per_req", perReq(p.QueueCycles, p.TexRequests))
	s.Gauge("latency.tex_mem_cycles_per_req", perReq(p.MemCycles, p.TexRequests))
	s.Gauge("texpath.busy_cycles", p.BusyCycles)

	// Bandwidth-utilization histograms snapshotted at the end of the run.
	for name, bins := range r.bw {
		s.Histogram("bw."+name, bins)
	}
	return s
}

// metricsHistogramBins is the bandwidth-utilization histogram resolution in
// the exported snapshot.
const metricsHistogramBins = 16

func perReq(sum int64, n uint64) float64 {
	if n == 0 {
		return 0
	}
	return float64(sum) / float64(n)
}

// JSONResult converts an Experiment into its stable wire form for
// `paperbench -json`.
func (e *Experiment) JSONResult() obs.ExperimentResult {
	return obs.ExperimentResult{
		Name:    e.Name,
		Title:   e.Table.Title,
		Columns: e.Table.Columns,
		Rows:    e.Table.Rows(),
		Summary: e.Summary,
	}
}
