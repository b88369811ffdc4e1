package trace

import (
	"bytes"
	"testing"

	"repro/internal/texture"
)

// maxFuzzBytes caps the inputs FuzzRead decodes, keeping each exec fast:
// the format's cost is in the textures a few records can ask for, and a
// small trace already reaches every record type.
const maxFuzzBytes = 4096

// FuzzRead feeds arbitrary bytes to the trace reader. Whatever the input,
// Read returns an error or a scene — never a panic — and an accepted
// scene references only vertices and textures it holds, with square
// power-of-two textures inside the texel budget. The seed corpus in
// testdata/fuzz/FuzzRead holds a small valid trace, a truncated one, bad
// magic, oversize counts and a texture record of size 3.
func FuzzRead(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > maxFuzzBytes {
			t.Skip("input above the fuzz byte cap")
		}
		_, sc, err := Read(bytes.NewReader(data), texture.LayoutMorton)
		if err != nil {
			return
		}
		texels := 0
		for i, tex := range sc.Textures {
			w, h := tex.Levels[0].W, tex.Levels[0].H
			if w != h || w <= 0 || w&(w-1) != 0 {
				t.Fatalf("texture %d is %dx%d", i, w, h)
			}
			texels += w * h
		}
		if texels > maxTexels {
			t.Fatalf("accepted %d texels, budget %d", texels, maxTexels)
		}
		for i, tri := range sc.Mesh.Triangles {
			for _, v := range tri.V {
				if v < 0 || v >= len(sc.Mesh.Vertices) {
					t.Fatalf("triangle %d references vertex %d of %d", i, v, len(sc.Mesh.Vertices))
				}
			}
			if tri.TexID < 0 || tri.TexID >= len(sc.Textures) {
				t.Fatalf("triangle %d references texture %d of %d", i, tri.TexID, len(sc.Textures))
			}
		}
	})
}
