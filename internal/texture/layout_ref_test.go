package texture

import (
	"testing"

	"repro/internal/xrand"
)

// refTexelIndex is texelIndex written with division and modulo, kept as an
// independent reference for the shift-and-mask version.
func refTexelIndex(layout Layout, w, h, x, y int) int {
	if layout == LayoutLinear {
		return y*w + x
	}
	sq := w
	if h < sq {
		sq = h
	}
	if sq <= 1 {
		return y*w + x
	}
	tileX := x / sq
	tileY := y / sq
	inX := uint32(x % sq)
	inY := uint32(y % sq)
	tilesPerRow := w / sq
	tile := tileY*tilesPerRow + tileX
	return tile*sq*sq + int(MortonEncode(inX, inY))
}

// refWrapCoord is wrapCoord written with % and comparisons, the reference
// for the mask version.
func refWrapCoord(mode WrapMode, v, n int) int {
	if n <= 1 {
		return 0
	}
	switch mode {
	case WrapClamp:
		if v < 0 {
			return 0
		}
		if v >= n {
			return n - 1
		}
		return v
	default:
		v %= n
		if v < 0 {
			v += n
		}
		return v
	}
}

// TestAddressingMatchesDivisionReference checks texelIndex, wrapCoord and
// the TexelAddr they compose into against the division/modulo reference,
// for both layouts and both wrap modes, every power-of-two level size up
// to 2048x2048 (square and non-square), and coordinates from -3n to 3n.
func TestAddressingMatchesDivisionReference(t *testing.T) {
	const maxLog = 11
	for lg := 0; lg <= maxLog; lg++ {
		n := 1 << lg
		for _, mode := range []WrapMode{WrapRepeat, WrapClamp} {
			for v := -3 * n; v <= 3*n; v++ {
				if got, want := wrapCoord(mode, v, n), refWrapCoord(mode, v, n); got != want {
					t.Fatalf("wrapCoord(%d, %d, %d) = %d, want %d", mode, v, n, got, want)
				}
			}
		}
	}
	rng := xrand.New(0xADD2)
	for lw := 0; lw <= maxLog; lw++ {
		for lh := 0; lh <= maxLog; lh++ {
			w, h := 1<<lw, 1<<lh
			for _, layout := range []Layout{LayoutMorton, LayoutLinear} {
				checkIndexRange(t, layout, w, h, rng)
				for _, mode := range []WrapMode{WrapRepeat, WrapClamp} {
					checkTexelAddr(t, layout, mode, w, h, rng)
				}
			}
		}
	}
}

// checkIndexRange compares texelIndex with the reference on every texel of
// a w x h level up to 2^14 texels, and on whole rows and columns plus 4096
// random texels of larger ones.
func checkIndexRange(t *testing.T, layout Layout, w, h int, rng *xrand.Rand) {
	t.Helper()
	check := func(x, y int) {
		if got, want := texelIndex(layout, w, h, x, y), refTexelIndex(layout, w, h, x, y); got != want {
			t.Fatalf("%s %dx%d texelIndex(%d, %d) = %d, want %d", layout, w, h, x, y, got, want)
		}
	}
	if w*h <= 1<<14 {
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				check(x, y)
			}
		}
		return
	}
	for _, y := range []int{0, 1, h / 2, h - 1} {
		for x := 0; x < w; x++ {
			check(x, y)
		}
	}
	for _, x := range []int{0, 1, w / 2, w - 1} {
		for y := 0; y < h; y++ {
			check(x, y)
		}
	}
	for range 4096 {
		check(rng.Intn(w), rng.Intn(h))
	}
}

// checkTexelAddr compares Texture.TexelAddr on a one-level texture with the
// reference wrap and index over coordinates in [-3n, 3n]: whole rows and
// columns through the level and its eight neighbouring copies, and random
// points.
func checkTexelAddr(t *testing.T, layout Layout, mode WrapMode, w, h int, rng *xrand.Rand) {
	t.Helper()
	const base = 0x10000
	tx := &Texture{Layout: layout, Wrap: mode, Levels: []Level{{W: w, H: h, Addr: base}}}
	check := func(x, y int) {
		want := base + uint64(refTexelIndex(layout, w, h, refWrapCoord(mode, x, w), refWrapCoord(mode, y, h)))*4
		if got := tx.TexelAddr(0, x, y); got != want {
			t.Fatalf("%s wrap %d %dx%d TexelAddr(%d, %d) = %#x, want %#x", layout, mode, w, h, x, y, got, want)
		}
	}
	for _, y := range []int{-3 * h, -h - 1, -1, 0, h - 1, h, 2*h + 1, 3 * h} {
		for x := -3 * w; x <= 3*w; x++ {
			check(x, y)
		}
	}
	for _, x := range []int{-3 * w, -w - 1, -1, 0, w - 1, w, 2*w + 1, 3 * w} {
		for y := -3 * h; y <= 3*h; y++ {
			check(x, y)
		}
	}
	for range 1024 {
		check(rng.Intn(6*w+1)-3*w, rng.Intn(6*h+1)-3*h)
	}
}
