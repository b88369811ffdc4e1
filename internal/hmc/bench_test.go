package hmc

import (
	"testing"

	"repro/internal/mem"
)

// BenchmarkHMCInternalAccess is one 16-byte logic-layer read (switch ->
// vault -> TSV -> bank), the access the S-TFIM MTUs and the A-TFIM Texel
// Generator issue, on a seeded stream of 4096 jittered accesses. The cube
// resets at the start of every pass, so the meters stop growing once warm.
func BenchmarkHMCInternalAccess(b *testing.B) {
	h := New(DefaultConfig())
	ops := stream(1, 4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % len(ops)
		if j == 0 {
			h.Reset()
		}
		h.InternalAccess(ops[j].at, mem.Request{Addr: ops[j].addr, Size: 16, Kind: mem.Read})
	}
}
