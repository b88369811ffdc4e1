package cache

import (
	"slices"
	"testing"

	"repro/internal/xrand"
)

// refEntry is one resident line of the reference model.
type refEntry struct {
	tag   uint64
	dirty bool
	angle float32
	index int    // the production cache's LineIndex for this line
	word  uint32 // payload word 0 as last stored through the cache
}

// refCache is a trivially-correct reference model: per-set LRU lists with
// write-back dirty bits, camera-angle tags and the counters Stats keeps.
type refCache struct {
	cfg      Config
	sets     int
	lineBits uint
	lru      [][]refEntry // most recent last
	stats    Stats
}

func newRefCache(cfg Config) *refCache {
	sets := cfg.SizeBytes / cfg.LineBytes / cfg.Ways
	bits := uint(0)
	for 1<<bits < cfg.LineBytes {
		bits++
	}
	return &refCache{cfg: cfg, sets: sets, lineBits: bits, lru: make([][]refEntry, sets)}
}

func (r *refCache) locate(addr uint64) (set int, tag uint64) {
	line := addr >> r.lineBits
	return int(line % uint64(r.sets)), line / uint64(r.sets)
}

// access mirrors Cache.AccessAngle (threshold < 0 disables the angle check)
// and returns the expected result and the model's entry for the line. A
// fill takes the lowest free way of the set, else the LRU line's way.
func (r *refCache) access(addr uint64, write bool, angle, threshold float32) (Result, *refEntry) {
	r.stats.Accesses++
	set, tag := r.locate(addr)
	list := r.lru[set]
	for i, e := range list {
		if e.tag != tag {
			continue
		}
		if write && r.cfg.WriteBack {
			e.dirty = true
		}
		res := Result{Hit: true, LineIndex: e.index}
		if threshold >= 0 && r.cfg.AngleTags && angleDiff(e.angle, angle) > threshold {
			r.stats.AngleRejects++
			r.stats.Misses++
			e.angle = angle
			res = Result{AngleRejected: true, LineIndex: e.index}
		} else {
			r.stats.Hits++
		}
		list = append(append(list[:i:i], list[i+1:]...), e)
		r.lru[set] = list
		return res, &list[len(list)-1]
	}
	r.stats.Misses++
	var res Result
	if len(list) == r.cfg.Ways {
		victim := list[0]
		list = list[1:]
		res.LineIndex = victim.index
		r.stats.Evictions++
		if victim.dirty {
			r.stats.Writebacks++
			res.Writeback = true
			res.VictimAddr = (victim.tag*uint64(r.sets) + uint64(set)) << r.lineBits
		}
	} else {
		res.LineIndex = r.firstFree(set, list)
	}
	list = append(list, refEntry{tag: tag, dirty: write && r.cfg.WriteBack, angle: angle, index: res.LineIndex})
	r.lru[set] = list
	return res, &list[len(list)-1]
}

// firstFree returns the line index of the lowest way of set that no
// resident line of list occupies.
func (r *refCache) firstFree(set int, list []refEntry) int {
	for i := set * r.cfg.Ways; ; i++ {
		if !slices.ContainsFunc(list, func(e refEntry) bool { return e.index == i }) {
			return i
		}
	}
}

func (r *refCache) probe(addr uint64) bool {
	set, tag := r.locate(addr)
	for _, e := range r.lru[set] {
		if e.tag == tag {
			return true
		}
	}
	return false
}

// flushDirty returns the dirty lines' addresses, sorted, and cleans them.
func (r *refCache) flushDirty() []uint64 {
	var out []uint64
	for set, list := range r.lru {
		for i := range list {
			if list[i].dirty {
				out = append(out, (list[i].tag*uint64(r.sets)+uint64(set))<<r.lineBits)
				list[i].dirty = false
				r.stats.Writebacks++
			}
		}
	}
	slices.Sort(out)
	return out
}

// TestCacheAgainstReferenceModel drives the production cache and the
// reference LRU model with the same random access stream and requires
// identical hit/miss decisions on every access.
func TestCacheAgainstReferenceModel(t *testing.T) {
	const (
		size  = 4096
		ways  = 4
		line  = 64
		steps = 200000
	)
	cfg := Config{Name: "m", SizeBytes: size, Ways: ways, LineBytes: line}
	c := New(cfg)
	ref := newRefCache(cfg)
	rng := xrand.New(0xCAC4E)
	for i := 0; i < steps; i++ {
		// Skewed address distribution: mostly a hot region, sometimes cold.
		var addr uint64
		if rng.Float32() < 0.8 {
			addr = uint64(rng.Intn(size * 2))
		} else {
			addr = uint64(rng.Intn(1 << 24))
		}
		write := rng.Float32() < 0.3
		got := c.Access(addr, write).Hit
		want, _ := ref.access(addr, write, 0, -1)
		if got != want.Hit {
			t.Fatalf("step %d addr %#x: cache hit=%v, reference hit=%v", i, addr, got, want.Hit)
		}
	}
	s := c.Stats()
	if s.Accesses != steps {
		t.Fatalf("access count %d want %d", s.Accesses, steps)
	}
	if s.Hits+s.Misses != s.Accesses {
		t.Fatal("hits + misses != accesses")
	}
}

// TestTextureGeometryAgainstReferenceModel checks every Result field, the
// line payloads, Probe, FlushDirty and every counter against the reference
// model at the texture L1 geometry (16 KB, 16 ways, 64 B lines), for the
// Baseline L1, the A-TFIM L1 (angle tags and payloads) and a write-back
// variant with both, under reads, writes, angle flips and resets.
func TestTextureGeometryAgainstReferenceModel(t *testing.T) {
	base := Config{SizeBytes: 16 << 10, Ways: 16, LineBytes: 64}
	for _, tc := range []struct {
		name                          string
		writeBack, angleTags, payload bool
	}{
		{"baseline-l1", false, false, false},
		{"atfim-l1", false, true, true},
		{"writeback-angle", true, true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base
			cfg.Name, cfg.WriteBack, cfg.AngleTags, cfg.DataLines = tc.name, tc.writeBack, tc.angleTags, tc.payload
			checkAgainstModel(t, cfg, 0x7E57+uint64(len(tc.name)))
		})
	}
}

func checkAgainstModel(t *testing.T, cfg Config, seed uint64) {
	const steps = 300000
	c := New(cfg)
	ref := newRefCache(cfg)
	rng := xrand.New(seed)
	ways := uint64(cfg.Ways)
	hot := uint64(cfg.SizeBytes) * 3 // a working set three times the cache
	for i := 0; i < steps; i++ {
		var addr uint64
		switch p := rng.Float32(); {
		case p < 0.7: // quad-local: a few lines around a slowly moving spot
			addr = uint64(i/64)*64*ways%hot + uint64(rng.Intn(256))
		case p < 0.95:
			addr = uint64(rng.Intn(int(hot)))
		default:
			addr = uint64(rng.Intn(1 << 28))
		}
		switch op := rng.Intn(1000); {
		case op == 0:
			c.Reset()
			ref = newRefCache(cfg)
			continue
		case op < 4:
			got := c.FlushDirty()
			slices.Sort(got)
			if want := ref.flushDirty(); !slices.Equal(got, want) {
				t.Fatalf("step %d: FlushDirty = %x, want %x", i, got, want)
			}
			continue
		case op < 100:
			if got, want := c.Probe(addr), ref.probe(addr); got != want {
				t.Fatalf("step %d addr %#x: Probe = %v, want %v", i, addr, got, want)
			}
			continue
		}
		write := rng.Float32() < 0.3
		angle := float32(0.2)
		if i/500%2 == 1 {
			angle = 0.2 + rng.Range(0, 0.1)
		}
		threshold := float32(0.05)
		if rng.Float32() < 0.2 {
			threshold = -1
		}
		got := c.AccessAngle(addr, write, angle, threshold)
		want, e := ref.access(addr, write, angle, threshold)
		if got != want {
			t.Fatalf("step %d addr %#x write=%v angle=%g threshold=%g: got %+v, want %+v",
				i, addr, write, angle, threshold, got, want)
		}
		if cfg.DataLines {
			// A fill clears the payload; a hit or an angle reject keeps it.
			if w := c.Word(got.LineIndex, 0); w != e.word {
				t.Fatalf("step %d: payload word %#x, want %#x", i, w, e.word)
			}
			e.word = uint32(i) | 1
			c.SetWord(got.LineIndex, 0, e.word)
		}
		if c.Angle(got.LineIndex) != e.angle {
			t.Fatalf("step %d: stored angle %g, want %g", i, c.Angle(got.LineIndex), e.angle)
		}
		if c.Stats() != ref.stats {
			t.Fatalf("step %d: stats %+v, want %+v", i, c.Stats(), ref.stats)
		}
	}
	s := ref.stats
	if s.Hits == 0 || s.Evictions == 0 || (cfg.AngleTags && s.AngleRejects == 0) || (cfg.WriteBack && s.Writebacks == 0) {
		t.Fatalf("stream did not exercise every outcome: %+v", s)
	}
}

// TestCacheStatsInvariants checks counter consistency under a random
// angle-tagged workload.
func TestCacheStatsInvariants(t *testing.T) {
	c := New(Config{Name: "inv", SizeBytes: 2048, Ways: 2, LineBytes: 64,
		WriteBack: true, AngleTags: true, DataLines: true})
	rng := xrand.New(7)
	writebacks := uint64(0)
	for i := 0; i < 100000; i++ {
		addr := uint64(rng.Intn(1 << 16))
		angle := rng.Float32()
		r := c.AccessAngle(addr, rng.Float32() < 0.5, angle, 0.2)
		if r.Writeback {
			writebacks++
		}
		if r.Hit && r.AngleRejected {
			t.Fatal("a hit cannot also be angle-rejected")
		}
	}
	s := c.Stats()
	if s.Hits+s.Misses != s.Accesses {
		t.Fatal("hits + misses != accesses")
	}
	if s.AngleRejects > s.Misses {
		t.Fatal("more angle rejects than misses")
	}
	if s.Writebacks < writebacks {
		t.Fatal("writeback stat below observed writebacks")
	}
}
