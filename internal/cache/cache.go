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
	"math/bits"
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

// Add accumulates o into s.
func (s *Stats) Add(o Stats) {
	s.Accesses += o.Accesses
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.Evictions += o.Evictions
	s.Writebacks += o.Writebacks
	s.AngleRejects += o.AngleRejects
}

// HitRate returns hits/accesses (0 when no accesses).
func (s Stats) HitRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Accesses)
}

// line is one way of a set. lastUse is the LRU tick of the line's latest
// access; it is 0 exactly when the line is invalid, because every access
// advances the tick before stamping a line.
type line struct {
	tag     uint64
	lastUse uint64
	angle   float32
	valid   bool
	dirty   bool
}

// Cache is a set-associative cache. It is not safe for concurrent use; the
// simulator drives each cache from a single goroutine.
type Cache struct {
	cfg       Config
	ways      int
	setMask   uint64
	lineShift uint
	tagShift  uint     // log2(sets): line address bits that pick the set
	lines     []line   // sets*ways, way-major within a set
	words     int      // payload words per line when DataLines, else 0
	data      []uint32 // line i's payload is data[i*words : (i+1)*words]
	lruTick   uint64
	mru       int // index of the most recently accessed line
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
		ways:      cfg.Ways,
		setMask:   uint64(sets - 1),
		lineShift: uint(bits.TrailingZeros(uint(cfg.LineBytes))),
		tagShift:  uint(bits.TrailingZeros(uint(sets))),
		lines:     make([]line, sets*cfg.Ways),
	}
	if cfg.DataLines {
		c.words = cfg.LineBytes / 4
		c.data = make([]uint32, len(c.lines)*c.words)
	}
	return c
}

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns a copy of the event counters.
func (c *Cache) Stats() Stats { return c.stats }

// Reset invalidates every line and zeroes statistics.
func (c *Cache) Reset() {
	clear(c.lines)
	c.lruTick = 0
	c.stats = Stats{}
}

func (c *Cache) index(addr uint64) (set int, tag uint64) {
	l := addr >> c.lineShift
	return int(l & c.setMask), l >> c.tagShift
}

// Result describes the outcome of one cache access. It keeps to four
// top-level fields, the most the compiler holds in registers: a fifth
// would spill every returned Result to the stack, and reading it back
// stalls on store forwarding at every access.
type Result struct {
	// Hit is true when the line was present (and, if an angle threshold was
	// supplied, the stored angle was within the threshold).
	Hit bool
	// AngleRejected is true when the line was present but the camera angle
	// differed by more than the threshold, forcing a recalculation miss.
	AngleRejected bool
	// LineIndex identifies the (filled or hit) line for payload access.
	LineIndex int
	// Victim reports the dirty line a fill evicted (Writeback, VictimAddr).
	Victim
}

// Victim describes the line a miss evicted, when it must be written back.
type Victim struct {
	// Writeback is true when a dirty victim must be written to memory.
	Writeback bool
	// VictimAddr is the line address of the evicted victim when Writeback.
	VictimAddr uint64
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
	base := set * c.ways
	ways := c.lines[base : base+c.ways]

	// Lookup, trying the most recently used line first: consecutive
	// accesses usually share one line (the texels of a 2x2 quad, the Z and
	// color of neighbouring fragments). A tag is in a set at most once, so
	// the shortcut finds the line the scan would.
	w := c.mru - base
	if uint(w) >= uint(len(ways)) || !ways[w].valid || ways[w].tag != tag {
		for w = 0; w < len(ways); w++ {
			if ways[w].valid && ways[w].tag == tag {
				break
			}
		}
	}
	if w < len(ways) {
		ln := &ways[w]
		c.mru = base + w
		ln.lastUse = c.lruTick
		if write {
			ln.dirty = c.cfg.WriteBack
		}
		if angleThreshold >= 0 && c.cfg.AngleTags && angleDiff(ln.angle, angle) > angleThreshold {
			// Present but stale for this viewing angle: recalculate.
			c.stats.AngleRejects++
			c.stats.Misses++
			ln.angle = angle
			return Result{Hit: false, AngleRejected: true, LineIndex: base + w}
		}
		c.stats.Hits++
		return Result{Hit: true, LineIndex: base + w}
	}

	// Miss: the victim is the first way with the oldest lastUse, which is
	// the first invalid way when there is one, else the LRU way.
	c.stats.Misses++
	v := 0
	for w := 1; w < len(ways); w++ {
		if ways[w].lastUse < ways[v].lastUse {
			v = w
		}
	}
	ln := &ways[v]
	res := Result{LineIndex: base + v}
	if ln.valid {
		c.stats.Evictions++
		if ln.dirty {
			c.stats.Writebacks++
			res.Writeback = true
			res.VictimAddr = c.lineAddrOf(set, ln.tag)
		}
	}
	*ln = line{tag: tag, lastUse: c.lruTick, angle: angle, valid: true, dirty: write && c.cfg.WriteBack}
	clear(c.payload(res.LineIndex))
	c.mru = res.LineIndex
	return res
}

// Probe reports whether addr is present without updating LRU or counters.
func (c *Cache) Probe(addr uint64) bool {
	set, tag := c.index(addr)
	base := set * c.ways
	for _, ln := range c.lines[base : base+c.ways] {
		if ln.valid && ln.tag == tag {
			return true
		}
	}
	return false
}

func (c *Cache) lineAddrOf(set int, tag uint64) uint64 {
	return (tag<<c.tagShift | uint64(set)) << c.lineShift
}

// payload returns the data words of line i (empty without DataLines).
func (c *Cache) payload(i int) []uint32 {
	return c.data[i*c.words : (i+1)*c.words]
}

// Word returns the 32-bit payload word at byte offset off within the line
// identified by a previous Result.LineIndex. Requires DataLines.
func (c *Cache) Word(lineIndex int, off int) uint32 {
	return c.payload(lineIndex)[off/4]
}

// SetWord stores a 32-bit payload word at byte offset off within the line.
func (c *Cache) SetWord(lineIndex int, off int, v uint32) {
	c.payload(lineIndex)[off/4] = v
}

// WordValid reports whether a payload word has been stored (non-zero tagging
// is handled by callers; the texture path stores texels with alpha >= 1 so a
// zero word means "not yet computed").
func (c *Cache) WordValid(lineIndex, off int) bool {
	return c.payload(lineIndex)[off/4] != 0
}

// Angle returns the stored camera angle of a line.
func (c *Cache) Angle(lineIndex int) float32 { return c.lines[lineIndex].angle }

// FlushDirty returns the line addresses of all dirty lines and marks them
// clean (used at end of frame to drain the write-back caches).
func (c *Cache) FlushDirty() []uint64 { return c.AppendDirty(nil) }

// AppendDirty is FlushDirty appending the addresses to out, so a caller
// that reuses out allocates nothing once it is grown.
func (c *Cache) AppendDirty(out []uint64) []uint64 {
	for i := range c.lines {
		ln := &c.lines[i]
		if ln.valid && ln.dirty {
			set := i / c.ways
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
