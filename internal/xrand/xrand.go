// Package xrand implements a small deterministic pseudo-random number
// generator (splitmix64) used to synthesize reproducible scenes, textures
// and workloads. It is intentionally independent of math/rand so that
// generated workloads are stable across Go releases.
package xrand

import "math"

// Rand is a splitmix64 pseudo-random generator. The zero value is a valid
// generator seeded with 0.
type Rand struct {
	state uint64
}

// New returns a generator seeded with seed.
func New(seed uint64) *Rand { return &Rand{state: seed} }

// Uint64 returns the next 64-bit pseudo-random value.
func (r *Rand) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Uint32 returns the next 32-bit pseudo-random value.
func (r *Rand) Uint32() uint32 { return uint32(r.Uint64() >> 32) }

// Intn returns a pseudo-random int in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Float32 returns a pseudo-random float32 in [0, 1).
func (r *Rand) Float32() float32 {
	return float32(r.Uint64()>>40) / float32(1<<24)
}

// Float64 returns a pseudo-random float64 in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / float64(1<<53)
}

// Range returns a pseudo-random float32 in [lo, hi).
func (r *Rand) Range(lo, hi float32) float32 {
	return lo + (hi-lo)*r.Float32()
}

// Norm returns an approximately normally distributed float32 with mean 0
// and standard deviation 1 (Irwin-Hall sum of 12 uniforms).
func (r *Rand) Norm() float32 {
	var s float32
	for i := 0; i < 12; i++ {
		s += r.Float32()
	}
	return s - 6
}

// Perm returns a pseudo-random permutation of [0, n).
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Hash64 mixes x through the splitmix64 finalizer; useful as a stateless
// hash for procedural noise.
func Hash64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Hash2D returns a deterministic pseudo-random float32 in [0,1) for integer
// lattice coordinates (x, y) under the given seed.
func Hash2D(seed uint64, x, y int32) float32 {
	h := Hash64(seed ^ uint64(uint32(x)) ^ uint64(uint32(y))<<32)
	return float32(h>>40) / float32(1<<24)
}

// lattice evaluates value noise: bilinear interpolation of lattice hashes
// with a smoothstep fade, in [0,1). It remembers the four corner hashes of
// the last cell it evaluated, so consecutive points inside one cell hash
// nothing and a step into the next cell along x hashes only the two new
// corners.
type lattice struct {
	x0, y0             int32
	filled             bool
	v00, v10, v01, v11 float32
}

// noise returns the value noise at (x, y). The hash values are the ones a
// fresh evaluation would compute and the float operations run in one
// fixed order, so the result does not depend on the remembered cell.
func (c *lattice) noise(seed uint64, x, y float32) float32 {
	x0 := int32(math.Floor(float64(x)))
	y0 := int32(math.Floor(float64(y)))
	if !c.filled || x0 != c.x0 || y0 != c.y0 {
		if c.filled && y0 == c.y0 && x0 == c.x0+1 {
			c.v00, c.v01 = c.v10, c.v11
		} else {
			c.v00 = Hash2D(seed, x0, y0)
			c.v01 = Hash2D(seed, x0, y0+1)
		}
		c.v10 = Hash2D(seed, x0+1, y0)
		c.v11 = Hash2D(seed, x0+1, y0+1)
		c.x0, c.y0, c.filled = x0, y0, true
	}
	fx := x - float32(x0)
	fy := y - float32(y0)
	fx = fx * fx * (3 - 2*fx)
	fy = fy * fy * (3 - 2*fy)
	a := c.v00 + (c.v10-c.v00)*fx
	b := c.v01 + (c.v11-c.v01)*fx
	return a + (b-a)*fy
}

// FBM evaluates fractal Brownian motion noise for one seed and octave
// count: octaves of value noise with halving amplitude and doubling
// frequency, normalized to [0,1). It remembers each octave's last lattice
// cell, so a caller that walks nearby points in order (a texture row)
// re-hashes only when a point crosses into a new cell. Results do not
// depend on the order of calls. An FBM is not safe for concurrent use;
// give each goroutine its own.
type FBM struct {
	seed  uint64
	cells []lattice
}

// NewFBM returns an FBM evaluator with the given seed and octave count.
func NewFBM(seed uint64, octaves int) *FBM {
	return &FBM{seed: seed, cells: make([]lattice, max(octaves, 0))}
}

// At returns the noise at (x, y).
func (f *FBM) At(x, y float32) float32 {
	var sum, norm, amp float32
	amp = 1
	freq := float32(1)
	for o := range f.cells {
		sum += amp * f.cells[o].noise(f.seed+uint64(o)*0x9e37, x*freq, y*freq)
		norm += amp
		amp /= 2
		freq *= 2
	}
	if norm == 0 {
		return 0
	}
	return sum / norm
}
