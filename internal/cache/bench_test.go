package cache

import (
	"testing"

	"repro/internal/texture"
	"repro/internal/xrand"
)

// quadStream returns n texel addresses the way a texture unit issues them:
// 2x2 quads of 4-byte texels in a Morton-ordered 1024x1024 texture, around
// a spot that takes a slow random walk with an occasional jump. Most
// accesses hit the line the quad's first texel brought in; the walk and
// the jumps miss.
func quadStream(n int) []uint64 {
	const size = 1024
	rng := xrand.New(0xB0A7)
	addrs := make([]uint64, 0, n)
	x, y := size/2, size/2
	for len(addrs) < n {
		x += rng.Intn(5) - 2
		y += rng.Intn(5) - 2
		if rng.Intn(16) == 0 {
			x, y = rng.Intn(size), rng.Intn(size)
		}
		for _, d := range [4][2]int{{0, 0}, {1, 0}, {0, 1}, {1, 1}} {
			tx, ty := uint32((x+d[0])&(size-1)), uint32((y+d[1])&(size-1))
			addrs = append(addrs, uint64(texture.MortonEncode(tx, ty))*4)
		}
	}
	return addrs[:n]
}

// BenchmarkCacheAccess measures one texture L1 lookup (16 KB, 16 ways,
// 64 B lines, the default texL1) on a quad-local stream with hits and
// misses.
func BenchmarkCacheAccess(b *testing.B) {
	c := New(Config{Name: "texL1", SizeBytes: 16 << 10, Ways: 16, LineBytes: 64})
	addrs := quadStream(1 << 16)
	for _, a := range addrs {
		c.Access(a, false)
	}
	if s := c.Stats(); s.Hits == 0 || s.Misses == 0 {
		b.Fatalf("stream did not mix hits and misses: %+v", s)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resultSink = c.Access(addrs[i&(len(addrs)-1)], false)
	}
}

var resultSink Result
