// Package gpu integrates the rendering pipeline of the baseline
// architecture (Fig. 1): vertex fetch and shading, primitive assembly and
// clipping, tile-based rasterization with early-Z, fragment shading on
// unified shader clusters, texture filtering through a pluggable texture
// path (the four designs live in internal/tfim), and a ROP stage with Z and
// color caches. Rendering is functional (real frames come out) and timed
// (every stage and memory transaction advances cycle accounting).
package gpu

import (
	"repro/internal/cache"
	"repro/internal/mem"
	"repro/internal/raster"
	"repro/internal/texture"
)

// TexRequest is one texture-filtering request sent from a unified shader
// cluster to its texture unit.
type TexRequest struct {
	// Tex is the bound texture.
	Tex *texture.Texture
	// U, V are the fragment's texture coordinates.
	U, V float32
	// Foot is the anisotropic footprint (includes the camera angle).
	Foot texture.Footprint
	// Cluster is the issuing shader cluster (selects the texture unit/MTU).
	Cluster int
}

// TexResult is the outcome of one texture request.
type TexResult struct {
	// Color is the filtered texture color.
	Color texture.Color
	// Done is the GPU cycle when the shader receives the result.
	Done int64
}

// TexturePath is the design-specific texture subsystem: Baseline/B-PIM keep
// the whole filter chain on the GPU; S-TFIM runs it in memory; A-TFIM
// splits it (Sections III-V of the paper).
type TexturePath interface {
	// Name identifies the path ("baseline", "s-tfim", "a-tfim").
	Name() string
	// Sample filters one request issued at cycle now.
	Sample(now int64, req *TexRequest) TexResult
	// EndFrame drains any path-internal state at frame end and returns the
	// path's completion horizon.
	EndFrame(now int64) int64
	// Activity reports the path's accumulated energy-relevant event counts.
	Activity() PathActivity
	// CacheStats returns per-cache statistics keyed by cache name.
	CacheStats() map[string]cache.Stats
	// Reset clears all accumulated state between frames/runs.
	Reset()
}

// PathActivity counts energy-relevant events inside a texture path.
type PathActivity struct {
	// TexRequests is the number of texture requests filtered.
	TexRequests uint64
	// GPUTexelFetches counts texels fetched by GPU-side texture units.
	GPUTexelFetches uint64
	// GPUFilterOps counts GPU-side filtering ALU operations.
	GPUFilterOps uint64
	// PIMTexelFetches counts texels fetched inside the HMC logic layer.
	PIMTexelFetches uint64
	// PIMFilterOps counts logic-layer filtering ALU operations (MTU or
	// Texel Generator + Combination Unit).
	PIMFilterOps uint64
	// L1Accesses/L2Accesses count texture cache activity.
	L1Accesses, L2Accesses uint64
	// OffloadPackets/ResponsePackets count TFIM link packages.
	OffloadPackets, ResponsePackets uint64
	// AngleRecalcs counts parent texels recalculated due to camera-angle
	// threshold misses (A-TFIM, Section V-C).
	AngleRecalcs uint64
	// ParentTexelsServed counts parent texels returned to bilinear/
	// trilinear filtering (A-TFIM).
	ParentTexelsServed uint64
	// ConsolidatedFetches counts child fetches removed by the Child Texel
	// Consolidation unit.
	ConsolidatedFetches uint64
	// LatencySum/LatencyCount accumulate per-request filter latency, the
	// paper's texture-filtering performance metric (Section VII-A).
	LatencySum   int64
	LatencyCount uint64
	// QueueCycles accumulates per-request queueing delay before unit issue
	// and MemCycles the memory portion after issue (diagnostics).
	QueueCycles int64
	MemCycles   int64
	// OffloadLatencySum accumulates per-offload round-trip cycles
	// (diagnostics for the TFIM paths).
	OffloadLatencySum int64
	// BusyCycles accumulates texture-subsystem busy time: per-request unit
	// occupancy plus memory stalls the outstanding-miss window could not
	// hide. The Fig. 10 texture-filtering speedup is the ratio of this
	// quantity between designs — it measures how long the filtering
	// hardware itself is tied up per frame.
	BusyCycles float64
}

// MeanLatency returns the average texture filtering latency in cycles.
func (a PathActivity) MeanLatency() float64 {
	if a.LatencyCount == 0 {
		return 0
	}
	return float64(a.LatencySum) / float64(a.LatencyCount)
}

// FilterTime returns the texture-subsystem busy time (see BusyCycles); the
// Fig. 10 speedup between two designs is baseline.FilterTime() /
// design.FilterTime().
func (a PathActivity) FilterTime() float64 { return a.BusyCycles }

// Add merges o into a.
func (a *PathActivity) Add(o PathActivity) {
	a.TexRequests += o.TexRequests
	a.GPUTexelFetches += o.GPUTexelFetches
	a.GPUFilterOps += o.GPUFilterOps
	a.PIMTexelFetches += o.PIMTexelFetches
	a.PIMFilterOps += o.PIMFilterOps
	a.L1Accesses += o.L1Accesses
	a.L2Accesses += o.L2Accesses
	a.OffloadPackets += o.OffloadPackets
	a.ResponsePackets += o.ResponsePackets
	a.AngleRecalcs += o.AngleRecalcs
	a.ParentTexelsServed += o.ParentTexelsServed
	a.ConsolidatedFetches += o.ConsolidatedFetches
	a.LatencySum += o.LatencySum
	a.LatencyCount += o.LatencyCount
	a.QueueCycles += o.QueueCycles
	a.MemCycles += o.MemCycles
	a.OffloadLatencySum += o.OffloadLatencySum
	a.BusyCycles += o.BusyCycles
}

// Activity aggregates energy-relevant event counts for a frame.
type Activity struct {
	// VertexCount and FragmentCount size the geometry and fragment work.
	VertexCount, FragmentCount uint64
	// ShaderInstrs counts executed shader ISA instructions.
	ShaderInstrs uint64
	// ZAccesses/ColorAccesses count ROP cache activity.
	ZAccesses, ColorAccesses uint64
	// ExternalBytes counts bytes crossing the GPU<->memory boundary.
	ExternalBytes uint64
	// InternalBytes counts HMC-internal (vault) bytes.
	InternalBytes uint64
	// Path is the texture path's activity.
	Path PathActivity
	// Cycles is the frame's total cycle count.
	Cycles int64
}

// Add merges o into a.
func (a *Activity) Add(o Activity) {
	a.VertexCount += o.VertexCount
	a.FragmentCount += o.FragmentCount
	a.ShaderInstrs += o.ShaderInstrs
	a.ZAccesses += o.ZAccesses
	a.ColorAccesses += o.ColorAccesses
	a.ExternalBytes += o.ExternalBytes
	a.InternalBytes += o.InternalBytes
	a.Cycles += o.Cycles
	a.Path.Add(o.Path)
}

// FrameResult is everything measured while rendering one frame.
type FrameResult struct {
	// Width, Height are the frame dimensions.
	Width, Height int
	// Cycles is the total frame time in GPU cycles.
	Cycles int64
	// GeometryCycles, FragmentCycles break the frame down by stage.
	GeometryCycles, FragmentCycles int64
	// Traffic is the GPU<->memory traffic by class.
	Traffic mem.Traffic
	// Activity holds the energy-model inputs.
	Activity Activity
	// Raster holds rasterizer statistics.
	Raster raster.Stats
	// Caches holds per-cache hit statistics (texture path + ROP caches).
	Caches map[string]cache.Stats
	// Image is the rendered RGBA8 frame (row-major, W*H words).
	Image []uint32
}

// addCaches accumulates per-cache statistics from src into dst.
func addCaches(dst, src map[string]cache.Stats) {
	for k, v := range src {
		cur := dst[k]
		cur.Add(v)
		dst[k] = cur
	}
}

// TexFilterLatency returns the mean texture filtering latency.
func (r *FrameResult) TexFilterLatency() float64 { return r.Activity.Path.MeanLatency() }

// FPS returns frames per second at the given GPU clock.
func (r *FrameResult) FPS(clockGHz float64) float64 {
	if r.Cycles == 0 {
		return 0
	}
	return clockGHz * 1e9 / float64(r.Cycles)
}

// Accumulate merges another frame's measurements (for multi-frame runs).
func (r *FrameResult) Accumulate(o *FrameResult) {
	r.Cycles += o.Cycles
	r.GeometryCycles += o.GeometryCycles
	r.FragmentCycles += o.FragmentCycles
	r.Traffic.Add(&o.Traffic)
	r.Activity.Add(o.Activity)
	if r.Caches == nil {
		r.Caches = map[string]cache.Stats{}
	}
	addCaches(r.Caches, o.Caches)
	// Keep the last frame's image.
	r.Image = o.Image
	r.Width, r.Height = o.Width, o.Height
}
