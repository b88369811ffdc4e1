package dram

import "testing"

// BenchmarkGDDR5Access is one Baseline off-chip access (row-buffer state
// machine plus channel-bus reservation) on a seeded stream of 4096 reads
// and writes of 16 to 128 bytes at jittered times. The backend resets at
// the start of every pass, so the meters stop growing once warm.
func BenchmarkGDDR5Access(b *testing.B) {
	g := New(DefaultConfig())
	reqs := stream(1, 4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % len(reqs)
		if j == 0 {
			g.Reset()
		}
		g.Access(issueAt(j), reqs[j])
	}
}
