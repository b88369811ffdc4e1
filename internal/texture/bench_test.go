package texture

import "testing"

// BenchmarkAverageChildren measures one A-TFIM Combination Unit parent
// texel: the 8 child offsets and the direct texel reads they average.
func BenchmarkAverageChildren(b *testing.B) {
	tx := noiseTexture(256)
	foot := Footprint{Lod: 1, N: 8, AxisU: 0.05, AxisV: 0.01}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		colorSink = AverageChildren(tx, i%3, i&255, (i>>8)&255, foot, nil)
	}
}

// BenchmarkLineTexels measures enumerating the 16 texels of the memory line
// holding a texel, the A-TFIM composing stage's unit of work, into a
// reused buffer as the A-TFIM path does.
func BenchmarkLineTexels(b *testing.B) {
	tx := noiseTexture(256)
	var buf []LineTexel
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = tx.AppendLineTexels(buf[:0], i%3, i&255, (i>>8)&255)
	}
	lineSink = buf
}

var (
	colorSink Color
	lineSink  []LineTexel
)
