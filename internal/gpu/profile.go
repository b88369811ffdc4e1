package gpu

import (
	"fmt"
	"sort"

	"repro/internal/mem"
	"repro/internal/obs"
)

// profileGroupBuckets is the per-group meter-timeline resolution captured
// by shard workers. Group-local timelines are resampled onto the frame
// timeline at merge, so this only bounds the capture granularity inside
// one group's span.
const profileGroupBuckets = 64

// FrameProfiler is the Observer that assembles pim-render/frameprofile/v1
// frame anatomies: each worker captures its group-local meter timelines
// at group end, and the merge places them on the frame timeline in fixed
// group order, so the artifact is byte-identical at any shard count.
type FrameProfiler struct {
	frames []obs.FrameAnatomy

	// Per-frame scratch, handed over or cleared at frame end.
	sources []obs.PlacedTimeline
	groups  []obs.GroupProfile
}

// Frames returns the anatomies of every frame completed so far, in render
// order.
func (fp *FrameProfiler) Frames() []obs.FrameAnatomy { return fp.frames }

// Worker captures the worker backend's meter timelines at each group end.
func (fp *FrameProfiler) Worker(backend mem.Backend, _ TexturePath) WorkerObserver {
	return profileWorker{backend}
}

// Group records the group's attribution and places its timelines at the
// group's offset on the frame timeline.
func (fp *FrameProfiler) Group(g obs.GroupProfile, captured any) {
	fp.groups = append(fp.groups, g)
	timelines, _ := captured.(map[string]obs.Timeline)
	fp.addSource(g.StartCycle, timelines)
}

// FrameEnd adds the frame-level backend's timelines (already in frame
// time: geometry and resolve traffic), merges every source onto the frame
// timeline and appends the finished anatomy.
func (fp *FrameProfiler) FrameEnd(f FrameEnd) {
	fp.addSource(0, captureBackend(f.Backend, obs.DefaultTimelineBuckets))
	fp.frames = append(fp.frames, obs.FrameAnatomy{
		Frame:   f.Frame,
		Width:   f.Width,
		Height:  f.Height,
		Cycles:  f.Cycles,
		GroupPx: groupPx,
		Stages: []obs.StageSpan{
			{Name: "geometry", Start: 0, End: f.GeometryEnd},
			{Name: "setup", Start: f.GeometryEnd, End: f.SetupEnd},
			{Name: "fragment", Start: f.SetupEnd, End: f.FragmentEnd},
			{Name: "resolve", Start: f.FragmentEnd, End: f.Cycles},
		},
		Timelines:    obs.MergeTimelines(fp.sources, f.Cycles, obs.DefaultTimelineBuckets),
		Groups:       fp.groups,
		TrafficBytes: trafficBytes(&f.Traffic),
	})
	fp.sources = fp.sources[:0]
	fp.groups = nil
}

// addSource places a backend's meter timelines at offset on the frame
// timeline. Meter names are iterated sorted, so the float accumulation
// order in the final merge — and therefore the artifact — is
// deterministic.
func (fp *FrameProfiler) addSource(offset int64, timelines map[string]obs.Timeline) {
	names := make([]string, 0, len(timelines))
	for name := range timelines {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fp.sources = append(fp.sources, obs.PlacedTimeline{
			Meter: name, Offset: offset, Timeline: timelines[name],
		})
	}
}

// profileWorker is FrameProfiler's per-worker side.
type profileWorker struct{ backend mem.Backend }

func (profileWorker) Tile(int, int64, int64) {}

// GroupEnd reads the group's meter timelines before the next group resets
// the backend. Reading meters never mutates them.
func (w profileWorker) GroupEnd() any {
	return captureBackend(w.backend, profileGroupBuckets)
}

// captureBackend reads a backend's meter timelines, when it has any.
func captureBackend(backend mem.Backend, buckets int) map[string]obs.Timeline {
	ts, ok := backend.(obs.TimelineSource)
	if !ok {
		return nil
	}
	return ts.BandwidthTimelines(buckets)
}

// trafficBytes breaks traffic down by "<class>.<direction>", the
// metrics/v1 counter naming, omitting zero entries.
func trafficBytes(t *mem.Traffic) map[string]uint64 {
	tb := map[string]uint64{}
	for c := mem.Class(0); c < mem.NumClasses; c++ {
		for _, k := range []mem.Kind{mem.Read, mem.Write} {
			if b := t.Bytes(c, k); b > 0 {
				tb[fmt.Sprintf("%s.%s", c, k)] = b
			}
		}
	}
	return tb
}
