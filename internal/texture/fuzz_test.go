package texture

import (
	"math"
	"testing"

	"repro/internal/xrand"
)

func validColor(c Color) bool {
	ok := func(v float32) bool {
		return !math.IsNaN(float64(v)) && !math.IsInf(float64(v), 0) &&
			v >= -0.001 && v <= 1.001
	}
	return ok(c.R) && ok(c.G) && ok(c.B) && ok(c.A)
}

// TestSamplerNeverProducesInvalidColors drives every sampling mode with
// randomized (including hostile) inputs and requires finite, in-range
// output — the renderer relies on this to never corrupt a frame.
func TestSamplerNeverProducesInvalidColors(t *testing.T) {
	tx := noiseTexture(64)
	s := Sampler{MaxAniso: 16}
	rng := xrand.New(0xF022)
	for i := 0; i < 50000; i++ {
		u := rng.Range(-10, 10)
		v := rng.Range(-10, 10)
		foot := Footprint{
			Lod:   rng.Range(-5, 20),
			N:     1 + rng.Intn(16),
			AxisU: rng.Range(-2, 2),
			AxisV: rng.Range(-2, 2),
		}
		if c := s.SampleAniso(tx, u, v, foot); !validColor(c) {
			t.Fatalf("SampleAniso invalid at iter %d: %+v (uv %g,%g foot %+v)", i, c, u, v, foot)
		}
		if c := s.SampleAnisoReordered(tx, u, v, foot, nil); !validColor(c) {
			t.Fatalf("SampleAnisoReordered invalid at iter %d", i)
		}
		if c := s.SampleIsotropic(tx, u, v, foot); !validColor(c) {
			t.Fatalf("SampleIsotropic invalid at iter %d", i)
		}
	}
}

// TestFootprintNeverInvalid checks ComputeFootprint against degenerate
// gradients (zero, NaN-free but huge, negative).
func TestFootprintNeverInvalid(t *testing.T) {
	tx := noiseTexture(128)
	rng := xrand.New(0xF001)
	for i := 0; i < 50000; i++ {
		g := Gradients{
			DUDX: rng.Range(-100, 100),
			DVDX: rng.Range(-100, 100),
			DUDY: rng.Range(-100, 100),
			DVDY: rng.Range(-100, 100),
		}
		if i%17 == 0 {
			g = Gradients{} // fully degenerate
		}
		f := ComputeFootprint(tx, g, 16)
		if f.N < 1 || f.N > 16 {
			t.Fatalf("N=%d out of range for %+v", f.N, g)
		}
		if math.IsNaN(float64(f.Lod)) || f.Lod < 0 || f.Lod > float32(tx.NumLevels()-1) {
			t.Fatalf("lod=%g out of range for %+v", f.Lod, g)
		}
		if f.IsoLod() < f.Lod {
			t.Fatalf("iso lod below fine lod for %+v", g)
		}
	}
}

// TestTexelAddrAlwaysInsideLevel checks the address map against hostile
// coordinates (far out of range, negative) and every level including 1x1.
func TestTexelAddrAlwaysInsideLevel(t *testing.T) {
	for _, compressed := range []bool{false, true} {
		tx := noiseTexture(64)
		if compressed {
			tx.Compress()
		}
		end := tx.AssignAddresses(0x10000)
		rng := xrand.New(0xADD2)
		for i := 0; i < 50000; i++ {
			lv := rng.Intn(tx.NumLevels()+4) - 2
			x := rng.Intn(4000) - 2000
			y := rng.Intn(4000) - 2000
			addr := tx.TexelAddr(lv, x, y)
			if addr < 0x10000 || addr >= end {
				t.Fatalf("compressed=%v: texel (%d,%d,%d) address %#x outside [%#x,%#x)",
					compressed, lv, x, y, addr, 0x10000, end)
			}
			if !validColor(tx.Texel(lv, x, y)) {
				t.Fatalf("compressed=%v: invalid texel color at (%d,%d,%d)", compressed, lv, x, y)
			}
		}
	}
}

// TestChildOffsetsWithinFootprintSpan verifies generated child texels stay
// within the major-axis extent the footprint declares.
func TestChildOffsetsWithinFootprintSpan(t *testing.T) {
	tx := noiseTexture(128)
	rng := xrand.New(0xC41D)
	for i := 0; i < 20000; i++ {
		f := Footprint{
			N:     1 + rng.Intn(16),
			AxisU: rng.Range(-0.5, 0.5),
			AxisV: rng.Range(-0.5, 0.5),
		}
		level := rng.Intn(tx.NumLevels())
		w := float64(tx.Levels[level].W)
		h := float64(tx.Levels[level].H)
		maxDX := math.Abs(float64(f.AxisU))*w/2 + 1
		maxDY := math.Abs(float64(f.AxisV))*h/2 + 1
		for p := 0; p < f.N; p++ {
			dx, dy := f.ChildOffset(tx, level, p)
			if math.Abs(float64(dx)) > maxDX || math.Abs(float64(dy)) > maxDY {
				t.Fatalf("child %d/%d offset (%d,%d) exceeds span (%.1f,%.1f)",
					p, f.N, dx, dy, maxDX, maxDY)
			}
		}
	}
}

// fuzzTexture builds a small texture of 2^wExp x 2^hExp texels (exponents
// taken mod 7) with distinct texel values and assigned addresses.
func fuzzTexture(wExp, hExp uint8, linear, clamp, compressed bool) *Texture {
	layout, wrap := LayoutMorton, WrapRepeat
	if linear {
		layout = LayoutLinear
	}
	if clamp {
		wrap = WrapClamp
	}
	w, h := 1<<(wExp%7), 1<<(hExp%7)
	tx := NewTexture(0, "fuzz", w, h, layout, wrap)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			v := xrand.Hash2D(0xf22, int32(x), int32(y))
			tx.SetTexel(0, x, y, Color{R: v, G: 1 - v, B: v * v, A: 1})
		}
	}
	tx.BuildMipmaps()
	if compressed {
		tx.Compress()
	}
	tx.AssignAddresses(0x4000)
	return tx
}

// FuzzTexelAndAddr requires TexelAndAddr to equal (TexelAddr, Texel) for
// both layouts and wrap modes, compressed textures, non-square levels,
// out-of-range levels and negative or far out-of-range coordinates. The
// seed corpus is in testdata/fuzz/FuzzTexelAndAddr.
func FuzzTexelAndAddr(f *testing.F) {
	f.Fuzz(func(t *testing.T, wExp, hExp uint8, linear, clamp, compressed bool, lv, x, y int) {
		tx := fuzzTexture(wExp, hExp, linear, clamp, compressed)
		addr, c := tx.TexelAndAddr(lv, x, y)
		if want := tx.TexelAddr(lv, x, y); addr != want {
			t.Fatalf("address %#x, TexelAddr says %#x", addr, want)
		}
		if want := tx.Texel(lv, x, y); c != want {
			t.Fatalf("color %+v, Texel says %+v", c, want)
		}
	})
}
