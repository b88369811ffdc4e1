package texture

import "math/bits"

// Layout selects how texels map to byte addresses within a mip level.
// GPUs store textures in tiled/swizzled layouts so that a cache line holds
// a 2D block of texels; the simulator models both for the ablation study.
type Layout uint8

const (
	// LayoutMorton interleaves the x/y bits (Z-order). A 64-byte line holds
	// a 4x4 texel block, which is what gives texture caches their 2D reuse.
	LayoutMorton Layout = iota
	// LayoutLinear is simple row-major order.
	LayoutLinear
)

// String returns "morton" or "linear".
func (l Layout) String() string {
	if l == LayoutLinear {
		return "linear"
	}
	return "morton"
}

// MortonEncode interleaves the low 16 bits of x and y into a Z-order index:
// bit i of x lands at bit 2i, bit i of y at bit 2i+1.
func MortonEncode(x, y uint32) uint32 {
	return part1By1(x) | part1By1(y)<<1
}

// MortonDecode inverts MortonEncode.
func MortonDecode(m uint32) (x, y uint32) {
	return compact1By1(m), compact1By1(m >> 1)
}

func part1By1(v uint32) uint32 {
	v &= 0x0000ffff
	v = (v | v<<8) & 0x00ff00ff
	v = (v | v<<4) & 0x0f0f0f0f
	v = (v | v<<2) & 0x33333333
	v = (v | v<<1) & 0x55555555
	return v
}

func compact1By1(v uint32) uint32 {
	v &= 0x55555555
	v = (v | v>>1) & 0x33333333
	v = (v | v>>2) & 0x0f0f0f0f
	v = (v | v>>4) & 0x00ff00ff
	v = (v | v>>8) & 0x0000ffff
	return v
}

// inverseTexelIndex maps a texel index back to (x, y) coordinates within a
// level of width w and height h — the inverse of texelIndex.
func inverseTexelIndex(layout Layout, w, h, idx int) (x, y int) {
	if layout == LayoutLinear {
		return idx % w, idx / w
	}
	sq := w
	if h < sq {
		sq = h
	}
	if sq <= 1 {
		return idx % w, idx / w
	}
	tile := idx / (sq * sq)
	within := idx % (sq * sq)
	tilesPerRow := w / sq
	tileX := tile % tilesPerRow
	tileY := tile / tilesPerRow
	inX, inY := MortonDecode(uint32(within))
	return tileX*sq + int(inX), tileY*sq + int(inY)
}

// texelIndex returns the texel's index (in texels, not bytes) within a
// level of width w and height h under the given layout. For Morton order on
// non-square levels, the square Morton block covers min(w,h) and the longer
// axis is tiled. Level sizes are powers of two (NewTexture enforces it), so
// the tile split is a shift and a mask; a 1-texel-wide level degenerates to
// row-major order. x and y must lie inside the level.
func texelIndex(layout Layout, w, h, x, y int) int {
	if layout == LayoutLinear {
		return y*w + x
	}
	s := bits.TrailingZeros(uint(min(w, h)))
	m := 1<<s - 1
	tile := (y>>s)*(w>>s) + x>>s
	return tile<<(2*s) + int(MortonEncode(uint32(x&m), uint32(y&m)))
}
