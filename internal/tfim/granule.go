package tfim

import "math/bits"

// granuleTable maps the internal-fetch granules of one offload to the
// cycle their vault access completes (the Child Texel Consolidation's
// "already fetched" set). It is open-addressed with linear probing, and
// every slot carries the epoch that wrote it, so reset empties the table in
// O(1) and its storage is reused across offloads without allocating.
type granuleTable struct {
	slots []granuleSlot
	shift uint   // 64 - log2(len(slots)), for Fibonacci hashing
	epoch uint32 // live slots carry this epoch; 0 is never live
	n     int    // live slots
}

type granuleSlot struct {
	key   uint64
	done  int64
	epoch uint32
}

// minGranuleSlots is the initial table size: 32 granules at the 1/2 load
// factor. A typical offload touches about a dozen, so the table rarely
// grows, and once grown it keeps its size.
const minGranuleSlots = 64

// reset empties the table.
func (g *granuleTable) reset() {
	g.n = 0
	g.epoch++
	if g.epoch == 0 {
		// The stamp wrapped: slots written 2^32 resets ago would read as
		// live again.
		for i := range g.slots {
			g.slots[i].epoch = 0
		}
		g.epoch = 1
	}
}

// find returns the slot holding key, or the empty slot where it belongs.
func (g *granuleTable) find(key uint64) *granuleSlot {
	mask := len(g.slots) - 1
	for i := int((key * 0x9e3779b97f4a7c15) >> g.shift); ; i = (i + 1) & mask {
		s := &g.slots[i]
		if s.epoch != g.epoch || s.key == key {
			return s
		}
	}
}

// get returns the completion cycle stored for key.
func (g *granuleTable) get(key uint64) (int64, bool) {
	if g.n == 0 {
		return 0, false
	}
	if s := g.find(key); s.epoch == g.epoch {
		return s.done, true
	}
	return 0, false
}

// put stores the completion cycle for key.
func (g *granuleTable) put(key uint64, done int64) {
	if 2*(g.n+1) > len(g.slots) {
		g.grow()
	}
	s := g.find(key)
	if s.epoch != g.epoch {
		s.key, s.epoch = key, g.epoch
		g.n++
	}
	s.done = done
}

// grow doubles the table (or sizes it initially) and re-inserts the live
// slots.
func (g *granuleTable) grow() {
	old := g.slots
	size := max(minGranuleSlots, 2*len(old))
	g.slots = make([]granuleSlot, size)
	g.shift = uint(64 - bits.TrailingZeros(uint(size)))
	if g.epoch == 0 {
		g.epoch = 1
	}
	g.n = 0
	for _, s := range old {
		if s.epoch == g.epoch {
			g.put(s.key, s.done)
		}
	}
}
