package dram

import (
	"reflect"
	"testing"

	"repro/internal/mem"
	"repro/internal/xrand"
)

// stream draws n reads and writes of 16 to 128 bytes.
func stream(seed uint64, n int) []mem.Request {
	rng := xrand.New(seed)
	reqs := make([]mem.Request, n)
	for i := range reqs {
		kind := mem.Read
		if rng.Intn(3) == 0 {
			kind = mem.Write
		}
		reqs[i] = mem.Request{
			Addr: uint64(rng.Intn(1<<28)) &^ 15,
			Size: uint32(16 << rng.Intn(4)),
			Kind: kind,
		}
	}
	return reqs
}

// issueAt is the jittered, partly out-of-order issue cycle of the i-th
// request of a stream.
func issueAt(i int) int64 { return max(int64(i*3)-int64(i*7919%500), 0) }

// replay issues reqs on g and returns every completion cycle.
func replay(g *GDDR5, reqs []mem.Request, done []int64) []int64 {
	done = done[:0]
	for i, r := range reqs {
		done = append(done, g.Access(issueAt(i), r))
	}
	return done
}

type observed struct {
	done      []int64
	stats     Stats
	busyUntil int64
	hist      map[string][]float64
}

func observe(g *GDDR5, reqs []mem.Request) observed {
	return observed{
		done:      replay(g, reqs, nil),
		stats:     g.Stats(),
		busyUntil: g.BusyUntil(),
		hist:      g.UtilizationHistograms(16),
	}
}

// TestResetMatchesFresh is the in-place Reset contract: after a different
// stream and a Reset, the backend gives the same completions, statistics
// and utilization histograms as a freshly built one.
func TestResetMatchesFresh(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		reqs := stream(seed, 5000)
		want := observe(New(DefaultConfig()), reqs)

		used := New(DefaultConfig())
		replay(used, stream(seed+100, 8000), nil)
		used.Reset()
		if got := observe(used, reqs); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: a used-then-Reset backend diverges from a fresh one", seed)
		}
	}
}

// TestWarmResetAllocatesNothing: Reset keeps every channel meter's window
// storage, so replaying a stream the backend has already seen and
// resetting again allocates nothing.
func TestWarmResetAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("-race instrumentation allocates")
	}
	g := New(DefaultConfig())
	reqs := stream(7, 2000)
	done := replay(g, reqs, nil)
	g.Reset()
	if allocs := testing.AllocsPerRun(20, func() {
		done = replay(g, reqs, done)
		g.Reset()
	}); allocs != 0 {
		t.Fatalf("a warm replay and Reset allocated %.1f times", allocs)
	}
}
