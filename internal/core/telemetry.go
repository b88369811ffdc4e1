package core

import (
	"repro/internal/config"
	"repro/internal/gpu"
	"repro/internal/obs"
	"repro/internal/obs/telem"
)

// Live telemetry for simulations in flight. Every instrument lives in the
// process-wide telem registry (cmd/pimfarm serves it as /metrics) and is
// fed exclusively from the gpu.Progress callback and a gpu.Observer's
// frame ends — values the timing model already produced — so scraping a
// running farm never perturbs simulated results.

// bwGaugeBins is the histogram resolution used to summarize a bandwidth
// meter's busy span into one mean-utilization gauge sample.
const bwGaugeBins = 16

// simTelemetry returns a gpu.Progress callback that mirrors one run's
// in-flight state into per-design gauges/counters, plus an observer that
// publishes the frame-level backend's bandwidth-meter utilizations at
// frame end. Both are no-ops against an empty registry.
func simTelemetry(design config.Design) (onProgress func(gpu.Progress), onFrameEnd gpu.FrameEndFunc) {
	r := telem.Default()
	labels := telem.Labels{"design": design.String()}
	inflight := r.Gauge("pim_sim_frames_inflight",
		"Frames currently being simulated, by design.", labels)
	stageG := r.Gauge("pim_sim_frame_stage",
		"Current pipeline stage of the latest in-flight frame (0=geometry 1=setup 2=fragment 3=resolve 4=done).", labels)
	groupsDone := r.Gauge("pim_sim_frame_groups_done",
		"Supertile groups merged so far in the latest in-flight frame.", labels)
	groupsTotal := r.Gauge("pim_sim_frame_groups_total",
		"Supertile groups in the latest in-flight frame.", labels)
	cyclesG := r.Gauge("pim_sim_frame_cycles",
		"Frame-timeline cycles accounted for so far in the latest in-flight frame.", labels)
	groupsCompleted := r.Counter("pim_sim_groups_completed_total",
		"Supertile groups simulated to completion, by design.", labels)
	framesCompleted := r.Counter("pim_sim_frames_completed_total",
		"Frames simulated to completion, by design.", labels)

	onProgress = func(pr gpu.Progress) {
		switch pr.Stage {
		case gpu.StageGeometry:
			inflight.Inc()
			stageG.Set(0)
		case gpu.StageSetup:
			stageG.Set(1)
		case gpu.StageFragment:
			stageG.Set(2)
			if pr.GroupsDone > 0 {
				groupsCompleted.Inc()
			}
		case gpu.StageResolve:
			stageG.Set(3)
		case gpu.StageDone:
			stageG.Set(4)
			inflight.Dec()
			framesCompleted.Inc()
		}
		groupsDone.Set(float64(pr.GroupsDone))
		groupsTotal.Set(float64(pr.GroupsTotal))
		cyclesG.Set(float64(pr.Cycles))
	}

	onFrameEnd = func(f gpu.FrameEnd) {
		hs, ok := f.Backend.(obs.HistogramSource)
		if !ok {
			return
		}
		for name, bins := range hs.UtilizationHistograms(bwGaugeBins) {
			var mean float64
			for _, v := range bins {
				mean += v
			}
			if len(bins) > 0 {
				mean /= float64(len(bins))
			}
			r.Gauge("pim_sim_bw_utilization_ratio",
				"Mean bandwidth-meter utilization over the last completed frame's busy span, by design and meter.",
				telem.Labels{"design": design.String(), "meter": name}).Set(mean)
		}
	}
	return onProgress, onFrameEnd
}

// runCacheTiers are the outcomes runCacheOutcome can record.
var runCacheTiers = []string{"memory", "disk", "compute"}

func runCacheCounter(outcome string) *telem.Counter {
	return telem.Default().Counter("pim_runcache_requests_total",
		"core.RunCached and RunPayload lookups by satisfying tier (memory LRU, durable disk store, or fresh compute).",
		telem.Labels{"outcome": outcome})
}

// runCacheOutcome counts one lookup by where it was satisfied: "memory"
// (RunCached's in-process LRU), "disk" (durable store), or "compute". The
// last two come from runStored, so RunPayload's lookups count too.
func runCacheOutcome(outcome string) { runCacheCounter(outcome).Inc() }

// RunCacheCounters snapshots the lookup tier counters (memory / disk /
// compute lookups so far in this process), for cmd/pimfarm's /varz.
func RunCacheCounters() map[string]uint64 {
	out := make(map[string]uint64, len(runCacheTiers))
	for _, tier := range runCacheTiers {
		out[tier] = runCacheCounter(tier).Value()
	}
	return out
}
