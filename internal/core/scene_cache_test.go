package core

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/config"
	"repro/internal/mem"
	"repro/internal/scene"
	"repro/internal/texture"
	"repro/internal/workload"
)

// smallSpec is a cheap scene spec no workload uses, so its cache entries
// are this test's own.
func smallSpec(name string, seed uint64) scene.Spec {
	return scene.Spec{Name: name, Seed: seed, CorridorSegments: 2, Props: 3,
		TextureCount: 3, TextureSize: 16, Frames: 1, Layout: texture.LayoutMorton}
}

// TestSceneBuildsOncePerKey checks that concurrent callers of one key run
// one build and share its result, and that every concurrent cachedScene
// caller of one spec gets the same textures.
func TestSceneBuildsOncePerKey(t *testing.T) {
	const callers = 8
	var builds atomic.Int32
	key := fmt.Sprintf("test/builds-once/%p", &builds) // fresh under -count
	release := make(chan struct{})
	got := make([]*scene.Scene, callers)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = memoScene(key, func() *scene.Scene {
				builds.Add(1)
				<-release
				return &scene.Scene{Name: "built"}
			})
		}()
	}
	close(release)
	wg.Wait()
	if n := builds.Load(); n != 1 {
		t.Errorf("%d builds for one key, want 1", n)
	}
	for i, sc := range got {
		if sc != got[0] {
			t.Fatalf("caller %d got a different scene", i)
		}
	}

	spec := smallSpec("once", 0x0ce)
	scs := make([]*scene.Scene, callers)
	for i := range scs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			scs[i] = cachedScene(spec, false)
		}()
	}
	wg.Wait()
	for i, sc := range scs {
		if sc.Name != spec.Name || &sc.Textures[0] != &scs[0].Textures[0] {
			t.Fatalf("cachedScene caller %d got scene %q with its own textures", i, sc.Name)
		}
	}
}

// TestSceneCacheKeysOnContent checks that the key is what Generate reads:
// two resolutions of one game (which differ only in Name) share textures
// and keep their own names, and specs that differ only in TextureSize do
// not share a scene.
func TestSceneCacheKeysOnContent(t *testing.T) {
	lo := workload.MustGet("hl2", 160, 120).Spec
	hi := workload.MustGet("hl2", 320, 240).Spec
	a, b := cachedScene(lo, false), cachedScene(hi, false)
	if a.Name != lo.Name || b.Name != hi.Name {
		t.Errorf("names %q and %q, want %q and %q", a.Name, b.Name, lo.Name, hi.Name)
	}
	for i := range a.Textures {
		if a.Textures[i] != b.Textures[i] {
			t.Fatalf("texture %d not shared between %s and %s", i, lo.Name, hi.Name)
		}
	}

	small := smallSpec("size", 0x512e)
	big := small
	big.TextureSize = 32
	s, g := cachedScene(small, false), cachedScene(big, false)
	if s == g || s.Textures[0] == g.Textures[0] {
		t.Fatal("specs differing only in TextureSize share a scene")
	}
	if w := g.Textures[0].Levels[0].W; w != 32 {
		t.Errorf("TextureSize 32 scene has a %d-texel base level", w)
	}
}

// TestCompressedSceneMatchesFreshBuild checks that the compressed variant,
// built from the cached uncompressed textures, renders byte-identically to
// a scene generated and compressed from scratch, shares the uncompressed
// texels and leaves the uncompressed scene as it was.
func TestCompressedSceneMatchesFreshBuild(t *testing.T) {
	wl := workload.MustGet("wolf", 160, 120)
	opts := Options{Design: config.Baseline, Compressed: true}
	raw := cachedScene(wl.Spec, false)
	rawAddr := raw.Textures[0].Levels[1].Addr

	cached, err := Run(wl, opts)
	if err != nil {
		t.Fatal(err)
	}
	fresh := scene.Generate(wl.Spec)
	for _, tx := range fresh.Textures {
		tx.Compress()
	}
	fresh.AssignTextureAddresses(mem.RegionTexture)
	want, err := RunScene(fresh, wl, opts)
	if err != nil {
		t.Fatal(err)
	}
	var gotJSON, wantJSON bytes.Buffer
	if err := cached.Metrics().WriteJSON(&gotJSON); err != nil {
		t.Fatal(err)
	}
	if err := want.Metrics().WriteJSON(&wantJSON); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotJSON.Bytes(), wantJSON.Bytes()) {
		t.Error("compressed run's metrics differ from a freshly compressed scene's")
	}
	for i := range want.Image {
		if cached.Image[i] != want.Image[i] {
			t.Fatalf("compressed run's pixel %d differs from a freshly compressed scene's", i)
		}
	}

	comp := cachedScene(wl.Spec, true)
	for i, tx := range comp.Textures {
		if !tx.Compressed || raw.Textures[i].Compressed {
			t.Fatalf("texture %d: compressed variant %v, uncompressed %v", i, tx.Compressed, raw.Textures[i].Compressed)
		}
		if &tx.Levels[0].Pix[0] != &raw.Textures[i].Levels[0].Pix[0] {
			t.Errorf("texture %d: compressed variant copied its texels", i)
		}
	}
	if raw.Textures[0].Levels[1].Addr != rawAddr {
		t.Error("compressing moved the uncompressed scene's addresses")
	}
}
