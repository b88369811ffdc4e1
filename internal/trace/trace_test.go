package trace

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/scene"
	"repro/internal/texture"
	"repro/internal/workload"
)

func captureScene(t *testing.T) (*scene.Scene, Header) {
	t.Helper()
	wl := workload.MustGet("riddick", 320, 240)
	sc := wl.Scene()
	return sc, Header{Name: wl.Name(), Width: wl.Width, Height: wl.Height}
}

func TestRoundTrip(t *testing.T) {
	sc, hdr := captureScene(t)
	var buf bytes.Buffer
	if err := Write(&buf, hdr, sc, sc.TextureSpecs); err != nil {
		t.Fatal(err)
	}
	rhdr, rsc, err := Read(&buf, texture.LayoutMorton)
	if err != nil {
		t.Fatal(err)
	}
	if rhdr != hdr {
		t.Fatalf("header %+v want %+v", rhdr, hdr)
	}
	if len(rsc.Mesh.Vertices) != len(sc.Mesh.Vertices) {
		t.Fatalf("vertices %d want %d", len(rsc.Mesh.Vertices), len(sc.Mesh.Vertices))
	}
	for i := range sc.Mesh.Vertices {
		if rsc.Mesh.Vertices[i] != sc.Mesh.Vertices[i] {
			t.Fatalf("vertex %d differs", i)
		}
	}
	for i := range sc.Mesh.Triangles {
		if rsc.Mesh.Triangles[i] != sc.Mesh.Triangles[i] {
			t.Fatalf("triangle %d differs", i)
		}
	}
	for i := range sc.Cameras {
		if rsc.Cameras[i] != sc.Cameras[i] {
			t.Fatalf("camera %d differs", i)
		}
	}
	if rsc.Ambient != sc.Ambient || rsc.LightDir != sc.LightDir {
		t.Fatal("lighting differs")
	}
	// Textures must re-synthesize bit-identically from their recipes.
	for ti := range sc.Textures {
		a := sc.Textures[ti].Levels[0].Pix
		b := rsc.Textures[ti].Levels[0].Pix
		for pi := range a {
			if a[pi] != b[pi] {
				t.Fatalf("texture %d texel %d differs after replay", ti, pi)
			}
		}
	}
}

func TestSpecCountMismatch(t *testing.T) {
	sc, hdr := captureScene(t)
	var buf bytes.Buffer
	if err := Write(&buf, hdr, sc, sc.TextureSpecs[:1]); err == nil {
		t.Fatal("mismatched spec count accepted")
	}
}

func TestBadMagic(t *testing.T) {
	_, _, err := Read(bytes.NewReader([]byte{1, 2, 3, 4, 5, 6, 7, 8}), texture.LayoutMorton)
	if err == nil || !strings.Contains(err.Error(), "magic") {
		t.Fatalf("bad magic not rejected: %v", err)
	}
}

func TestTruncatedFile(t *testing.T) {
	sc, hdr := captureScene(t)
	var buf bytes.Buffer
	if err := Write(&buf, hdr, sc, sc.TextureSpecs); err != nil {
		t.Fatal(err)
	}
	for _, frac := range []int{2, 4, 10} {
		data := buf.Bytes()[:buf.Len()/frac]
		if _, _, err := Read(bytes.NewReader(data), texture.LayoutMorton); err == nil {
			t.Fatalf("truncated trace (1/%d) accepted", frac)
		}
	}
}

func TestCorruptIndicesRejected(t *testing.T) {
	sc, hdr := captureScene(t)
	// Corrupt a triangle index beyond the vertex count.
	sc2 := *sc
	sc2.Mesh.Triangles = append([]scene.Triangle{}, sc.Mesh.Triangles...)
	sc2.Mesh.Triangles[0].V[0] = len(sc.Mesh.Vertices) + 100
	var buf bytes.Buffer
	if err := Write(&buf, hdr, &sc2, sc.TextureSpecs); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Read(&buf, texture.LayoutMorton); err == nil {
		t.Fatal("out-of-range vertex index accepted")
	}
}

// specTrace writes a trace holding only the given texture records (no
// geometry, no cameras).
func specTrace(t *testing.T, specs ...texture.SynthSpec) []byte {
	t.Helper()
	sc := &scene.Scene{Textures: make([]*texture.Texture, len(specs))}
	var buf bytes.Buffer
	if err := Write(&buf, Header{Name: "specs", Width: 16, Height: 12}, sc, specs); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestHostileTextureRecordsRejected: texture records come from the file,
// so Read must refuse the ones Synthesize cannot or should not build —
// with an error, before synthesizing anything, never a panic or a
// multi-gigabyte allocation.
func TestHostileTextureRecordsRejected(t *testing.T) {
	spec := func(kind texture.SynthKind, size int) texture.SynthSpec {
		return texture.SynthSpec{Kind: kind, Seed: 1, Size: size, Scale: 4}
	}
	cases := []struct {
		name  string
		specs []texture.SynthSpec
		want  string
	}{
		{"size 3", []texture.SynthSpec{spec(texture.SynthChecker, 3)}, "power of two"},
		{"size 0", []texture.SynthSpec{spec(texture.SynthChecker, 0)}, "power of two"},
		{"unknown kind", []texture.SynthSpec{spec(99, 8)}, "unknown kind"},
		{"size 65536", []texture.SynthSpec{spec(texture.SynthChecker, 65536)}, "texels"},
		{"two 4096 textures", []texture.SynthSpec{
			spec(texture.SynthChecker, 4096), spec(texture.SynthChecker, 4096)}, "texels"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, _, err := Read(bytes.NewReader(specTrace(t, c.specs...)), texture.LayoutMorton)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("Read = %v, want an error containing %q", err, c.want)
			}
		})
	}

	// The budget admits the largest Table II scene.
	hl2 := make([]texture.SynthSpec, 14)
	for i := range hl2 {
		hl2[i] = spec(texture.SynthChecker, 1024)
	}
	_, sc, err := Read(bytes.NewReader(specTrace(t, hl2...)), texture.LayoutMorton)
	if err != nil || len(sc.Textures) != len(hl2) {
		t.Fatalf("hl2-sized texture set rejected: %v", err)
	}
}
