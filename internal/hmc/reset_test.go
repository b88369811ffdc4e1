package hmc

import (
	"reflect"
	"testing"

	"repro/internal/mem"
	"repro/internal/xrand"
)

// op is one access of a seeded stream over every cube entry point.
type op struct {
	kind int // 0 external read, 1 external write, 2 internal read, 3 internal write, 4 packet out, 5 packet back
	at   int64
	addr uint64
}

// stream draws n accesses with jittered, partly out-of-order timestamps
// over a few cubes' worth of address space.
func stream(seed uint64, n int) []op {
	rng := xrand.New(seed)
	ops := make([]op, n)
	var now int64
	for i := range ops {
		now += int64(rng.Intn(4))
		at := now - int64(rng.Intn(400))
		if at < 0 {
			at = 0
		}
		ops[i] = op{kind: rng.Intn(6), at: at, addr: uint64(rng.Intn(1<<28)) &^ 15}
	}
	return ops
}

// replay runs ops on c and returns every completion cycle.
func replay(c Cube, ops []op, done []int64) []int64 {
	done = done[:0]
	for _, o := range ops {
		var d int64
		switch o.kind {
		case 0:
			d = c.Access(o.at, mem.Request{Addr: o.addr &^ 63, Size: 64, Kind: mem.Read})
		case 1:
			d = c.Access(o.at, mem.Request{Addr: o.addr &^ 63, Size: 64, Kind: mem.Write})
		case 2:
			d = c.InternalAccess(o.at, mem.Request{Addr: o.addr, Size: 16, Kind: mem.Read})
		case 3:
			d = c.InternalAccess(o.at, mem.Request{Addr: o.addr, Size: 16, Kind: mem.Write})
		case 4:
			d = c.SendPacketTo(o.at, o.addr, 48)
		default:
			d = c.ReturnPacketFrom(o.at, o.addr, 80)
		}
		done = append(done, d)
	}
	return done
}

// observed is everything a cube reports after a stream.
type observed struct {
	done      []int64
	stats     Stats
	busyUntil int64
	hist      map[string][]float64
}

func observe(c Cube, ops []op) observed {
	o := observed{done: replay(c, ops, nil), stats: c.TotalStats(), busyUntil: c.BusyUntil()}
	o.hist = c.(interface {
		UtilizationHistograms(int) map[string][]float64
	}).UtilizationHistograms(16)
	return o
}

// TestResetMatchesFresh is the in-place Reset contract: after a different
// stream and a Reset, a single cube and a cube array give the same
// completions, statistics and utilization histograms as freshly built ones.
func TestResetMatchesFresh(t *testing.T) {
	builds := map[string]func() Cube{
		"hmc":   func() Cube { return New(DefaultConfig()) },
		"array": func() Cube { return NewArray(3, DefaultConfig()) },
	}
	for name, build := range builds {
		for seed := uint64(1); seed <= 4; seed++ {
			ops := stream(seed, 4000)
			want := observe(build(), ops)

			used := build()
			replay(used, stream(seed+100, 6000), nil)
			used.Reset()
			if got := observe(used, ops); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s seed %d: a used-then-Reset cube diverges from a fresh one", name, seed)
			}
		}
	}
}

// TestWarmResetAllocatesNothing: Reset keeps every meter's window storage,
// so replaying a stream the cube has already seen and resetting again
// allocates nothing.
func TestWarmResetAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("-race instrumentation allocates")
	}
	ops := stream(7, 2000)
	for name, c := range map[string]Cube{"hmc": New(DefaultConfig()), "array": NewArray(2, DefaultConfig())} {
		done := replay(c, ops, nil)
		c.Reset()
		if allocs := testing.AllocsPerRun(20, func() {
			done = replay(c, ops, done)
			c.Reset()
		}); allocs != 0 {
			t.Errorf("%s: a warm replay and Reset allocated %.1f times", name, allocs)
		}
	}
}
