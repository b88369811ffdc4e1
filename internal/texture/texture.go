package texture

import (
	"fmt"
	"math"
)

// WrapMode selects texture-coordinate wrapping behaviour.
type WrapMode uint8

const (
	// WrapRepeat tiles the texture (GL_REPEAT).
	WrapRepeat WrapMode = iota
	// WrapClamp clamps coordinates to the edge (GL_CLAMP_TO_EDGE).
	WrapClamp
)

// Level is one mipmap level.
type Level struct {
	// W and H are the level dimensions in texels (powers of two).
	W, H int
	// Pix holds the texels in layout order (see Layout).
	Pix []uint32
	// Addr is the level's base byte address in the global address space.
	Addr uint64
}

// Texture is a 2D texture with a full mipmap chain down to 1x1.
type Texture struct {
	// ID is the texture's identity within its scene.
	ID int
	// Name describes the procedural source ("brick", "noise", ...).
	Name string
	// Levels is the mip chain; Levels[0] is the base image.
	Levels []Level
	// Layout is the texel address layout.
	Layout Layout
	// Wrap is the coordinate wrap mode.
	Wrap WrapMode
	// Compressed reports whether the texture uses fixed-rate block
	// compression (see Compress).
	Compressed bool
	compressed []compressedLevel
}

// NewTexture allocates a texture of the given power-of-two size with an
// uninitialized base level and a full mip chain (call BuildMipmaps after
// filling level 0). It panics on non-power-of-two sizes.
func NewTexture(id int, name string, w, h int, layout Layout, wrap WrapMode) *Texture {
	if w <= 0 || h <= 0 || w&(w-1) != 0 || h&(h-1) != 0 {
		panic(fmt.Sprintf("texture %q: dimensions %dx%d must be powers of two", name, w, h))
	}
	t := &Texture{ID: id, Name: name, Layout: layout, Wrap: wrap}
	for w > 0 && h > 0 {
		t.Levels = append(t.Levels, Level{W: w, H: h, Pix: make([]uint32, w*h)})
		if w == 1 && h == 1 {
			break
		}
		w = max(1, w/2)
		h = max(1, h/2)
	}
	return t
}

// NumLevels returns the mip chain length.
func (t *Texture) NumLevels() int { return len(t.Levels) }

// SizeBytes returns the total storage of all levels (compressed footprint
// when block compression is enabled).
func (t *Texture) SizeBytes() int {
	s := 0
	for i, l := range t.Levels {
		if t.Compressed {
			s += t.compressedLevelBytes(i)
		} else {
			s += len(l.Pix) * 4
		}
	}
	return s
}

// AssignAddresses lays the mip chain out consecutively starting at base
// (4 KiB aligned per level) and returns the first free address after the
// texture.
func (t *Texture) AssignAddresses(base uint64) uint64 {
	const align = 4096
	for i := range t.Levels {
		base = (base + align - 1) &^ uint64(align-1)
		t.Levels[i].Addr = base
		if t.Compressed {
			base += uint64(t.compressedLevelBytes(i))
		} else {
			base += uint64(len(t.Levels[i].Pix) * 4)
		}
	}
	return base
}

// wrapCoord maps a possibly out-of-range texel coordinate into [0, n).
// n is a power of two, so repeat wrapping is a mask, which is exact for
// negative v too.
func wrapCoord(mode WrapMode, v, n int) int {
	if mode == WrapClamp {
		return min(max(v, 0), n-1)
	}
	return v & (n - 1)
}

// SetTexel stores a color at (x, y) of level lv (coordinates must be in
// range; used by the synthesizers).
func (t *Texture) SetTexel(lv, x, y int, c Color) {
	l := &t.Levels[lv]
	l.Pix[texelIndex(t.Layout, l.W, l.H, x, y)] = Pack(c)
}

// TexelWord returns the packed RGBA8 word at (x, y) of level lv, applying
// the wrap mode. Level indices are clamped to the chain.
func (t *Texture) TexelWord(lv, x, y int) uint32 {
	if lv < 0 {
		lv = 0
	}
	if lv >= len(t.Levels) {
		lv = len(t.Levels) - 1
	}
	l := &t.Levels[lv]
	x = wrapCoord(t.Wrap, x, l.W)
	y = wrapCoord(t.Wrap, y, l.H)
	return l.Pix[texelIndex(t.Layout, l.W, l.H, x, y)]
}

// Texel returns the color at (x, y) of level lv with wrapping. Compressed
// textures decode on the fly (lossy).
func (t *Texture) Texel(lv, x, y int) Color {
	if t.Compressed {
		lv = t.ClampLevel(lv)
		l := &t.Levels[lv]
		return t.compressedTexel(lv, wrapCoord(t.Wrap, x, l.W), wrapCoord(t.Wrap, y, l.H))
	}
	return Unpack(t.TexelWord(lv, x, y))
}

// TexelAddr returns the byte address of texel (x, y) at level lv, applying
// the wrap mode so out-of-range coordinates map to real storage. For
// compressed textures this is the containing block's address.
func (t *Texture) TexelAddr(lv, x, y int) uint64 {
	lv = t.ClampLevel(lv)
	l := &t.Levels[lv]
	x = wrapCoord(t.Wrap, x, l.W)
	y = wrapCoord(t.Wrap, y, l.H)
	if t.Compressed {
		return t.compressedTexelAddr(lv, x, y)
	}
	return l.Addr + uint64(texelIndex(t.Layout, l.W, l.H, x, y))*4
}

// TexelAndAddr returns TexelAddr(lv, x, y) and Texel(lv, x, y) together,
// wrapping the coordinates and computing the texel index once.
func (t *Texture) TexelAndAddr(lv, x, y int) (uint64, Color) {
	lv = t.ClampLevel(lv)
	l := &t.Levels[lv]
	x = wrapCoord(t.Wrap, x, l.W)
	y = wrapCoord(t.Wrap, y, l.H)
	if t.Compressed {
		return t.compressedTexelAddr(lv, x, y), t.compressedTexel(lv, x, y)
	}
	idx := texelIndex(t.Layout, l.W, l.H, x, y)
	return l.Addr + uint64(idx)*4, Unpack(l.Pix[idx])
}

// LineTexel identifies one texel within a cache line: its coordinates and
// its byte offset from the line base.
type LineTexel struct {
	X, Y int
	Off  int
}

// texelsPerLine is the number of RGBA8 texels in a 64-byte memory line.
const texelsPerLine = 16

// lineBase returns the clamped level holding texel (x, y) of level lv and
// the index of the first texel of the memory line that contains it.
func (t *Texture) lineBase(lv, x, y int) (*Level, int) {
	l := &t.Levels[t.ClampLevel(lv)]
	x = wrapCoord(t.Wrap, x, l.W)
	y = wrapCoord(t.Wrap, y, l.H)
	return l, texelIndex(t.Layout, l.W, l.H, x, y) &^ (texelsPerLine - 1)
}

// LineAddr returns the base address of the 64-byte memory line that
// contains texel (x, y) of level lv.
func (t *Texture) LineAddr(lv, x, y int) uint64 {
	l, base := t.lineBase(lv, x, y)
	return l.Addr + uint64(base)*4
}

// AppendLineTexels appends to dst the texels stored in the 64-byte memory
// line that contains texel (x, y) of level lv (LineAddr is the line's base
// address). Under the Morton layout a line is a 4x4 texel block — this is
// the granularity at which the A-TFIM composing stage groups parent texels
// ("the same format as a normal bilinear fetch", Section V-D).
func (t *Texture) AppendLineTexels(dst []LineTexel, lv, x, y int) []LineTexel {
	l, base := t.lineBase(lv, x, y)
	n := min(texelsPerLine, len(l.Pix)-base)
	for k := 0; k < n; k++ {
		tx, ty := inverseTexelIndex(t.Layout, l.W, l.H, base+k)
		dst = append(dst, LineTexel{X: tx, Y: ty, Off: k * 4})
	}
	return dst
}

// ClampLevel clamps a mip level index into the chain.
func (t *Texture) ClampLevel(lv int) int {
	if lv < 0 {
		return 0
	}
	if lv >= len(t.Levels) {
		return len(t.Levels) - 1
	}
	return lv
}

// BuildMipmaps regenerates levels 1..n from level 0 with a 2x2 box filter
// (the standard mipmap construction the paper's footnote 1 describes).
// Each level is split into bands built in parallel (see parallelRange).
func (t *Texture) BuildMipmaps() {
	for lv := 1; lv < len(t.Levels); lv++ {
		src := &t.Levels[lv-1]
		dst := &t.Levels[lv]
		if t.Layout == LayoutMorton && src.W == src.H {
			// In a square Morton level the 2x2 children of destination
			// texel i are source texels 4i..4i+3, in the order (x0,y0),
			// (x1,y0), (x0,y1), (x1,y1), so the build is a linear pass.
			parallelRange(len(dst.Pix), len(dst.Pix), func(lo, hi int) {
				for i := lo; i < hi; i++ {
					q := src.Pix[4*i : 4*i+4]
					c := Unpack(q[0]).Add(Unpack(q[1])).Add(Unpack(q[2])).Add(Unpack(q[3])).Scale(0.25)
					dst.Pix[i] = Pack(c)
				}
			})
			continue
		}
		parallelRange(dst.H, len(dst.Pix), func(lo, hi int) {
			for y := lo; y < hi; y++ {
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
		})
	}
}

func (t *Texture) levelTexel(l *Level, x, y int) Color {
	return Unpack(l.Pix[texelIndex(t.Layout, l.W, l.H, x, y)])
}

// Log2 returns log2(v) for float32 inputs (used for LOD computation).
func Log2(v float32) float32 {
	return float32(math.Log2(float64(v)))
}
