package tfim

import (
	"math"
	"testing"

	"repro/internal/xrand"
)

// TestGranuleTableMatchesMap drives the table and a map[uint64]int64 with
// the same operations across many resets, through growth (a reset keeps
// the grown size) and an epoch wrap, and requires identical answers.
func TestGranuleTableMatchesMap(t *testing.T) {
	var g granuleTable
	rng := xrand.New(21)
	for round := 0; round < 300; round++ {
		if round == 1 {
			// Jump 2^32-1 resets ahead: this reset wraps the stamp back to
			// the epoch round 0 filled the table under.
			g.epoch = math.MaxUint32
		}
		g.reset()
		ref := map[uint64]int64{}
		// Some rounds stay small, some grow the table well past its
		// initial size; keys collide often within a round.
		keys := 1 + rng.Intn(8)
		if round%7 == 0 {
			keys = 200 + rng.Intn(400)
		}
		for op := 0; op < 3*keys; op++ {
			k := uint64(rng.Intn(keys)) * internalGranule
			got, ok := g.get(k)
			want, wok := ref[k]
			if ok != wok || got != want {
				t.Fatalf("round %d: get(%#x) = %d,%v want %d,%v", round, k, got, ok, want, wok)
			}
			if rng.Intn(2) == 0 {
				v := int64(rng.Uint32())
				g.put(k, v)
				ref[k] = v
			}
		}
		if g.n != len(ref) {
			t.Fatalf("round %d: %d live slots, want %d", round, g.n, len(ref))
		}
	}
}
