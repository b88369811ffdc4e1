package core

import (
	"bytes"
	"context"
	"sync/atomic"
	"testing"

	"repro/internal/config"
	"repro/internal/obs"
)

// TestFrameProfileArtifact is the tentpole acceptance criterion: a profiled
// run emits a valid frameprofile/v1 artifact with at least two meter
// timelines and per-supertile attribution, stamped with provenance.
func TestFrameProfileArtifact(t *testing.T) {
	wl := miniWorkload(t)
	for _, d := range []config.Design{config.Baseline, config.BPIM} {
		d := d
		t.Run(d.String(), func(t *testing.T) {
			var fp obs.FrameProfile
			res, err := RunContext(context.Background(), wl, Options{Design: d, Profile: &fp})
			if err != nil {
				t.Fatal(err)
			}
			if fp.Schema != obs.FrameProfileSchema {
				t.Fatalf("schema %q, want %q", fp.Schema, obs.FrameProfileSchema)
			}
			if fp.Workload != wl.Name() || fp.Design != d.String() {
				t.Fatalf("identity %q/%q, want %q/%q", fp.Workload, fp.Design, wl.Name(), d)
			}
			if fp.SimVersion != SimVersion || fp.Build == nil || fp.Build.GoVersion == "" {
				t.Fatalf("provenance missing: sim=%q build=%+v", fp.SimVersion, fp.Build)
			}
			if len(fp.Frames) != 1 {
				t.Fatalf("got %d frames, want 1", len(fp.Frames))
			}
			f := fp.Frames[0]
			if f.Cycles != res.Cycles() {
				t.Fatalf("anatomy cycles %d, result cycles %d", f.Cycles, res.Cycles())
			}
			if len(f.Timelines) < 2 {
				t.Fatalf("got %d meter timelines, want >= 2", len(f.Timelines))
			}
			for _, tl := range f.Timelines {
				if tl.Meter == "" || tl.EndCycle != f.Cycles || len(tl.Bytes) == 0 {
					t.Fatalf("malformed timeline %+v", tl)
				}
			}
			if len(f.Groups) == 0 {
				t.Fatal("no supertile groups attributed")
			}
			var frags uint64
			prevEnd := int64(-1)
			for _, g := range f.Groups {
				frags += g.Fragments
				if g.EndCycle < g.StartCycle || g.X < 0 || g.Y < 0 || g.X >= f.Width || g.Y >= f.Height {
					t.Fatalf("malformed group %+v", g)
				}
				if g.StartCycle < prevEnd {
					t.Fatalf("group spans overlap: %+v starts before %d", g, prevEnd)
				}
				prevEnd = g.EndCycle
			}
			if frags != res.Frame.Activity.FragmentCount {
				t.Fatalf("group fragments sum %d, frame total %d", frags, res.Frame.Activity.FragmentCount)
			}
			if len(f.Stages) != 4 {
				t.Fatalf("got %d stages, want 4 (geometry/setup/fragment/resolve)", len(f.Stages))
			}
			if len(f.TrafficBytes) == 0 {
				t.Fatal("traffic breakdown missing")
			}
		})
	}
}

// TestProfileDoesNotPerturbResults: profiling is observational only — the
// metrics snapshot and framebuffer of a profiled run are byte-identical to
// an unprofiled one, also with the tracer and a progress callback on too.
func TestProfileDoesNotPerturbResults(t *testing.T) {
	wl := miniWorkload(t)
	plain, err := RunContext(context.Background(), wl, Options{Design: config.BPIM})
	if err != nil {
		t.Fatal(err)
	}
	var a bytes.Buffer
	if err := plain.Metrics().WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	var progressed atomic.Int64
	for name, opts := range map[string]Options{
		"profile": {Design: config.BPIM, Profile: &obs.FrameProfile{}},
		"trace+profile+progress": {Design: config.BPIM, Profile: &obs.FrameProfile{},
			Trace: obs.NewTracer(0), Progress: func(Progress) { progressed.Add(1) }},
	} {
		observed, err := RunContext(context.Background(), wl, opts)
		if err != nil {
			t.Fatal(err)
		}
		var b bytes.Buffer
		if err := observed.Metrics().WriteJSON(&b); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Fatalf("%s: metrics snapshot differs with observers on", name)
		}
		for i := range plain.Image {
			if plain.Image[i] != observed.Image[i] {
				t.Fatalf("%s: framebuffer diverges at pixel %d", name, i)
			}
		}
	}
	if progressed.Load() == 0 {
		t.Fatal("progress callback never ran")
	}
}

// TestProfileDeterministicAcrossShards: the artifacts themselves — not
// just the simulated results — are byte-identical at any shard count:
// the frame profile and the Chrome trace of the same run.
func TestProfileDeterministicAcrossShards(t *testing.T) {
	wl := miniWorkload(t)
	artifacts := func(shards int) (profile, trace []byte) {
		var fp obs.FrameProfile
		tr := obs.NewTracer(0)
		if _, err := RunContext(context.Background(), wl,
			Options{Design: config.ATFIM, Shards: shards, Profile: &fp, Trace: tr}); err != nil {
			t.Fatal(err)
		}
		var pb, tb bytes.Buffer
		if err := fp.WriteJSON(&pb); err != nil {
			t.Fatal(err)
		}
		if err := tr.WriteChromeTrace(&tb); err != nil {
			t.Fatal(err)
		}
		return pb.Bytes(), tb.Bytes()
	}
	serialProfile, serialTrace := artifacts(1)
	for _, shards := range []int{2, 8} {
		profile, trace := artifacts(shards)
		if !bytes.Equal(profile, serialProfile) {
			t.Fatalf("shards=%d: profile artifact differs from serial run", shards)
		}
		if !bytes.Equal(trace, serialTrace) {
			t.Fatalf("shards=%d: Chrome trace differs from serial run", shards)
		}
	}
}

// TestProfileExcludedFromCacheKey: Profile is runtime-only, so it must not
// split the run cache (same key with and without).
func TestProfileExcludedFromCacheKey(t *testing.T) {
	wl := miniWorkload(t)
	var fp obs.FrameProfile
	with := cacheKey(wl, Options{Design: config.BPIM, Profile: &fp})
	without := cacheKey(wl, Options{Design: config.BPIM})
	if with != without {
		t.Fatalf("cache key differs with profiling: %q vs %q", with, without)
	}
}
