package texture_test

import (
	"testing"

	"repro/internal/texture"
	"repro/internal/workload"
)

// BenchmarkSynthesize measures synthesizing hl2's texture set: fourteen
// 1024x1024 textures with full mip chains, the largest set of the five
// games and the bulk of a cold hl2 scene build.
func BenchmarkSynthesize(b *testing.B) {
	wl := workload.MustGet("hl2", 160, 120)
	specs := wl.Scene().TextureSpecs
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for id, spec := range specs {
			texSink = texture.Synthesize(id, spec, wl.Spec.Layout)
		}
	}
}

var texSink *texture.Texture
