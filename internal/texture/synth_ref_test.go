package texture

import (
	"fmt"
	"runtime"
	"slices"
	"testing"

	"repro/internal/xrand"
)

// refSynthesize is the serial synthesis loop: one texel at a time in row
// order, each through SetTexel with a fresh synthesizer (so no lattice
// cell is remembered between texels), then refBuildMipmaps. It is the
// reference for the banded, lattice-reusing Synthesize.
func refSynthesize(id int, spec SynthSpec, layout Layout) *Texture {
	t := NewTexture(id, spec.Kind.String(), spec.Size, spec.Size, layout, WrapRepeat)
	n := spec.Size
	scale := spec.Scale
	if scale <= 0 {
		scale = 8
	}
	for y := 0; y < n; y++ {
		for x := 0; x < n; x++ {
			u := float32(x) / float32(n)
			v := float32(y) / float32(n)
			t.SetTexel(0, x, y, newSynthesizer(spec, scale).texel(u, v))
		}
	}
	refBuildMipmaps(t)
	return t
}

// refBuildMipmaps is the coordinate-addressed 2x2 box filter over every
// level, the reference for BuildMipmaps' linear Morton pass and bands.
func refBuildMipmaps(t *Texture) {
	for lv := 1; lv < len(t.Levels); lv++ {
		src := &t.Levels[lv-1]
		dst := &t.Levels[lv]
		for y := 0; y < dst.H; y++ {
			for x := 0; x < dst.W; x++ {
				x0, y0 := x*2, y*2
				x1 := min(x0+1, src.W-1)
				y1 := min(y0+1, src.H-1)
				c := t.levelTexel(src, x0, y0).
					Add(t.levelTexel(src, x1, y0)).
					Add(t.levelTexel(src, x0, y1)).
					Add(t.levelTexel(src, x1, y1)).
					Scale(0.25)
				dst.Pix[texelIndex(t.Layout, dst.W, dst.H, x, y)] = Pack(c)
			}
		}
	}
}

// withProcs runs fn with GOMAXPROCS set to procs.
func withProcs(procs int, fn func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	fn()
}

// equalLevels reports the first level whose texels differ, or -1.
func equalLevels(a, b *Texture) int {
	for lv := range a.Levels {
		if !slices.Equal(a.Levels[lv].Pix, b.Levels[lv].Pix) {
			return lv
		}
	}
	return -1
}

// TestSynthesizeMatchesSerialReference pins every texel of every level to
// the serial reference for every family, both layouts, sizes from 1 to
// 1024 (covering the serial small-level path and the banded one) and
// GOMAXPROCS 1 and 2.
func TestSynthesizeMatchesSerialReference(t *testing.T) {
	for k := SynthKind(0); k < numSynthKinds; k++ {
		for _, size := range []int{1, 2, 64, 256, 1024} {
			for _, layout := range []Layout{LayoutMorton, LayoutLinear} {
				prim, sec := DefaultPalette(int(k))
				spec := SynthSpec{Kind: k, Seed: 0x9e3779b9 * uint64(k+1), Size: size,
					Primary: prim, Secondary: sec, Scale: float32(4 + k)}
				ref := refSynthesize(3, spec, layout)
				for _, procs := range []int{1, 2} {
					name := fmt.Sprintf("%v/%d/%v/procs%d", k, size, layout, procs)
					var got *Texture
					withProcs(procs, func() { got = Synthesize(3, spec, layout) })
					if lv := equalLevels(got, ref); lv >= 0 {
						t.Errorf("%s: level %d differs from the serial reference", name, lv)
					}
				}
			}
		}
	}
}

// TestBuildMipmapsMatchesReference covers the levels Synthesize never
// makes: non-square chains (Morton tiles and the 1-texel-wide tail) in
// both layouts, from random base texels, at GOMAXPROCS 1 and 2.
func TestBuildMipmapsMatchesReference(t *testing.T) {
	for _, dim := range [][2]int{{256, 64}, {64, 256}, {512, 8}, {1, 128}, {128, 128}} {
		for _, layout := range []Layout{LayoutMorton, LayoutLinear} {
			ref := NewTexture(0, "t", dim[0], dim[1], layout, WrapRepeat)
			rng := xrand.New(uint64(dim[0]*dim[1]) + uint64(layout))
			for i := range ref.Levels[0].Pix {
				ref.Levels[0].Pix[i] = uint32(rng.Uint64())
			}
			got := NewTexture(0, "t", dim[0], dim[1], layout, WrapRepeat)
			copy(got.Levels[0].Pix, ref.Levels[0].Pix)
			refBuildMipmaps(ref)
			for _, procs := range []int{1, 2} {
				withProcs(procs, got.BuildMipmaps)
				if lv := equalLevels(got, ref); lv >= 0 {
					t.Errorf("%dx%d %v procs %d: level %d differs from the reference", dim[0], dim[1], layout, procs, lv)
				}
			}
		}
	}
}

// TestTexelIndexSeparable checks the identity Synthesize's column table
// rests on: texelIndex(x, y) = texelIndex(x, 0) + texelIndex(0, y).
func TestTexelIndexSeparable(t *testing.T) {
	for _, layout := range []Layout{LayoutMorton, LayoutLinear} {
		for w := 1; w <= 64; w *= 2 {
			for h := 1; h <= 64; h *= 2 {
				for y := 0; y < h; y++ {
					for x := 0; x < w; x++ {
						if got, want := texelIndex(layout, w, h, x, 0)+texelIndex(layout, w, h, 0, y), texelIndex(layout, w, h, x, y); got != want {
							t.Fatalf("%v %dx%d (%d,%d): row+column %d, index %d", layout, w, h, x, y, got, want)
						}
					}
				}
			}
		}
	}
}
