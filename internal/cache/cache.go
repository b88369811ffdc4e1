// Package cache implements the set-associative cache model used for the
// GPU's texture L1/L2 caches and the ROP's Z and color caches. Beyond a
// conventional tag array with LRU replacement and write-back, it supports
// the two extensions the A-TFIM design needs:
//
//   - an optional per-line camera-angle tag (7 bits in the paper; stored
//     here as a float32 with 1-degree comparison accuracy), used to decide
//     whether a cached parent texel may be reused for a fragment viewed
//     from a different camera angle, and
//   - an optional per-line data payload (16 four-byte texels per 64-byte
//     line) so approximated parent-texel values produced in memory can be
//     cached and re-served on the GPU.
package cache

import (
	"fmt"
	"math"
)

// Config describes a cache instance.
type Config struct {
	// Name identifies the cache in statistics ("texL1", "texL2", "zcache").
	Name string
	// SizeBytes is the total capacity.
	SizeBytes int
	// Ways is the associativity.
	Ways int
	// LineBytes is the line size.
	LineBytes int
	// WriteBack selects write-back (true) or write-through (false) policy.
	WriteBack bool
	// AngleTags enables the per-line camera-angle tag used by A-TFIM.
	AngleTags bool
	// DataLines enables per-line payload storage (one uint32 per 4 bytes).
	DataLines bool
}

// Validate checks structural parameters.
func (c Config) Validate() error {
	if c.SizeBytes <= 0 || c.Ways <= 0 || c.LineBytes <= 0 {
		return fmt.Errorf("cache %q: non-positive geometry", c.Name)
	}
	if c.LineBytes&(c.LineBytes-1) != 0 {
		return fmt.Errorf("cache %q: line size %d not a power of two", c.Name, c.LineBytes)
	}
	lines := c.SizeBytes / c.LineBytes
	if lines%c.Ways != 0 {
		return fmt.Errorf("cache %q: %d lines not divisible by %d ways", c.Name, lines, c.Ways)
	}
	sets := lines / c.Ways
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache %q: %d sets not a power of two", c.Name, sets)
	}
	return nil
}

// Stats counts cache events.
type Stats struct {
	Accesses   uint64
	Hits       uint64
	Misses     uint64
	Evictions  uint64
	Writebacks uint64
	// AngleRejects counts hits that were demoted to misses because the
	// stored camera angle differed from the request's by more than the
	// threshold (A-TFIM recalculation, Section V-C of the paper).
	AngleRejects uint64
}

// HitRate returns hits/accesses (0 when no accesses).
func (s Stats) HitRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Accesses)
}

type line struct {
	tag   uint64
	valid bool
	dirty bool
	angle float32
	data  []uint32
}

// Cache is a set-associative cache. It is not safe for concurrent use; the
// simulator drives each cache from a single goroutine.
type Cache struct {
	cfg       Config
	sets      int
	setMask   uint64
	lineShift uint
	lines     []line // sets*ways, way-major within a set
	lruTick   uint64
	lru       []uint64 // last-use tick per line
	stats     Stats
}

// New builds a cache from cfg. It panics on invalid geometry (configuration
// is programmer-controlled).
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	sets := cfg.SizeBytes / cfg.LineBytes / cfg.Ways
	c := &Cache{
		cfg:       cfg,
		sets:      sets,
		setMask:   uint64(sets - 1),
		lineShift: uint(bitsFor(cfg.LineBytes)),
		lines:     make([]line, sets*cfg.Ways),
		lru:       make([]uint64, sets*cfg.Ways),
	}
	if cfg.DataLines {
		// One backing array for every line's payload; the full-slice
		// expression caps each line so it cannot grow into its neighbour.
		words := cfg.LineBytes / 4
		data := make([]uint32, len(c.lines)*words)
		for i := range c.lines {
			c.lines[i].data = data[i*words : (i+1)*words : (i+1)*words]
		}
	}
	return c
}

func bitsFor(v int) int {
	n := 0
	for 1<<n < v {
		n++
	}
	return n
}

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns a copy of the event counters.
func (c *Cache) Stats() Stats { return c.stats }

// Reset invalidates every line and zeroes statistics.
func (c *Cache) Reset() {
	for i := range c.lines {
		c.lines[i].valid = false
		c.lines[i].dirty = false
	}
	for i := range c.lru {
		c.lru[i] = 0
	}
	c.lruTick = 0
	c.stats = Stats{}
}

func (c *Cache) index(addr uint64) (set int, tag uint64) {
	l := addr >> c.lineShift
	return int(l & c.setMask), l >> uint(bitsFor(c.sets))
}

// Result describes the outcome of one cache access.
type Result struct {
	// Hit is true when the line was present (and, if an angle threshold was
	// supplied, the stored angle was within the threshold).
	Hit bool
	// Writeback is true when a dirty victim must be written to memory.
	Writeback bool
	// VictimAddr is the line address of the evicted victim when Writeback.
	VictimAddr uint64
	// AngleRejected is true when the line was present but the camera angle
	// differed by more than the threshold, forcing a recalculation miss.
	AngleRejected bool
	// LineIndex identifies the (filled or hit) line for payload access.
	LineIndex int
}

// Access looks up addr; on a miss the line is filled (allocate-on-miss for
// both reads and writes). write marks the line dirty under write-back.
func (c *Cache) Access(addr uint64, write bool) Result {
	return c.AccessAngle(addr, write, 0, -1)
}

// AccessAngle is Access plus the A-TFIM camera-angle check: when
// angleThreshold >= 0 and the cache was built with AngleTags, a present
// line whose stored angle differs from `angle` by more than the threshold
// is treated as a miss (the texel must be recalculated in memory), and the
// stored angle is refreshed on fill. Angles are radians.
func (c *Cache) AccessAngle(addr uint64, write bool, angle float32, angleThreshold float32) Result {
	c.stats.Accesses++
	c.lruTick++
	set, tag := c.index(addr)
	base := set * c.cfg.Ways

	// Lookup.
	for w := 0; w < c.cfg.Ways; w++ {
		ln := &c.lines[base+w]
		if ln.valid && ln.tag == tag {
			if angleThreshold >= 0 && c.cfg.AngleTags {
				if angleDiff(ln.angle, angle) > angleThreshold {
					// Present but stale for this viewing angle: recalculate.
					c.stats.AngleRejects++
					c.stats.Misses++
					ln.angle = angle
					if write {
						ln.dirty = c.cfg.WriteBack
					}
					c.lru[base+w] = c.lruTick
					return Result{Hit: false, AngleRejected: true, LineIndex: base + w}
				}
			}
			c.stats.Hits++
			if write {
				ln.dirty = c.cfg.WriteBack
			}
			c.lru[base+w] = c.lruTick
			return Result{Hit: true, LineIndex: base + w}
		}
	}

	// Miss: choose victim (invalid first, else LRU).
	c.stats.Misses++
	victim := -1
	for w := 0; w < c.cfg.Ways; w++ {
		if !c.lines[base+w].valid {
			victim = base + w
			break
		}
	}
	res := Result{}
	if victim < 0 {
		victim = base
		oldest := c.lru[base]
		for w := 1; w < c.cfg.Ways; w++ {
			if c.lru[base+w] < oldest {
				oldest = c.lru[base+w]
				victim = base + w
			}
		}
		c.stats.Evictions++
		if c.lines[victim].dirty {
			c.stats.Writebacks++
			res.Writeback = true
			res.VictimAddr = c.lineAddrOf(set, c.lines[victim].tag)
		}
	}
	ln := &c.lines[victim]
	ln.valid = true
	ln.tag = tag
	ln.dirty = write && c.cfg.WriteBack
	ln.angle = angle
	if ln.data != nil {
		for i := range ln.data {
			ln.data[i] = 0
		}
	}
	c.lru[victim] = c.lruTick
	res.LineIndex = victim
	return res
}

// Probe reports whether addr is present without updating LRU or counters.
func (c *Cache) Probe(addr uint64) bool {
	set, tag := c.index(addr)
	base := set * c.cfg.Ways
	for w := 0; w < c.cfg.Ways; w++ {
		ln := &c.lines[base+w]
		if ln.valid && ln.tag == tag {
			return true
		}
	}
	return false
}

func (c *Cache) lineAddrOf(set int, tag uint64) uint64 {
	return (tag<<uint(bitsFor(c.sets)) | uint64(set)) << c.lineShift
}

// Word returns the 32-bit payload word at byte offset off within the line
// identified by a previous Result.LineIndex. Requires DataLines.
func (c *Cache) Word(lineIndex int, off int) uint32 {
	return c.lines[lineIndex].data[off/4]
}

// SetWord stores a 32-bit payload word at byte offset off within the line.
func (c *Cache) SetWord(lineIndex int, off int, v uint32) {
	c.lines[lineIndex].data[off/4] = v
}

// WordValid reports whether a payload word has been stored (non-zero tagging
// is handled by callers; the texture path stores texels with alpha >= 1 so a
// zero word means "not yet computed").
func (c *Cache) WordValid(lineIndex, off int) bool {
	return c.lines[lineIndex].data[off/4] != 0
}

// Angle returns the stored camera angle of a line.
func (c *Cache) Angle(lineIndex int) float32 { return c.lines[lineIndex].angle }

// FlushDirty returns the line addresses of all dirty lines and marks them
// clean (used at end of frame to drain the write-back caches).
func (c *Cache) FlushDirty() []uint64 {
	var out []uint64
	for i := range c.lines {
		ln := &c.lines[i]
		if ln.valid && ln.dirty {
			set := i / c.cfg.Ways
			out = append(out, c.lineAddrOf(set, ln.tag))
			ln.dirty = false
			c.stats.Writebacks++
		}
	}
	return out
}

func angleDiff(a, b float32) float32 {
	d := float64(a - b)
	if d < 0 {
		d = -d
	}
	// Angles are surface viewing angles in [0, pi/2]; simple absolute
	// difference with wrap safety.
	if d > math.Pi {
		d = 2*math.Pi - d
	}
	return float32(d)
}
