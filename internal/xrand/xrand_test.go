package xrand

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at step %d", i)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("%d collisions between different seeds", same)
	}
}

func TestFloat32Range(t *testing.T) {
	r := New(7)
	for i := 0; i < 10000; i++ {
		v := r.Float32()
		if v < 0 || v >= 1 {
			t.Fatalf("Float32 out of range: %g", v)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(7)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %g", v)
		}
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(3)
	seen := map[int]bool{}
	for i := 0; i < 1000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn out of range: %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 7 {
		t.Fatalf("Intn(7) only produced %d distinct values", len(seen))
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestRange(t *testing.T) {
	r := New(9)
	for i := 0; i < 1000; i++ {
		v := r.Range(-2, 5)
		if v < -2 || v >= 5 {
			t.Fatalf("Range out of bounds: %g", v)
		}
	}
}

func TestPermIsPermutation(t *testing.T) {
	err := quick.Check(func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%50) + 1
		p := New(seed).Perm(n)
		if len(p) != n {
			return false
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestNormRoughStats(t *testing.T) {
	r := New(11)
	var sum, sumSq float64
	const n = 50000
	for i := 0; i < n; i++ {
		v := float64(r.Norm())
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if mean < -0.05 || mean > 0.05 {
		t.Errorf("Norm mean %g too far from 0", mean)
	}
	if variance < 0.9 || variance > 1.1 {
		t.Errorf("Norm variance %g too far from 1", variance)
	}
}

func TestHash2DDeterministicAndBounded(t *testing.T) {
	err := quick.Check(func(seed uint64, x, y int32) bool {
		a := Hash2D(seed, x, y)
		b := Hash2D(seed, x, y)
		return a == b && a >= 0 && a < 1
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestValueNoiseSmoothAndBounded(t *testing.T) {
	// Noise must be continuous: neighboring samples differ by a bounded
	// amount; all values in [0,1).
	// One octave is plain value noise.
	noise := NewFBM(5, 1)
	prev := noise.At(0, 0)
	for i := 1; i < 2000; i++ {
		x := float32(i) * 0.01
		v := noise.At(x, x*0.5)
		if v < 0 || v >= 1 {
			t.Fatalf("noise out of range: %g", v)
		}
		if d := v - prev; d > 0.2 || d < -0.2 {
			t.Fatalf("noise discontinuity at %g: %g -> %g", x, prev, v)
		}
		prev = v
	}
}

func TestFBMBounded(t *testing.T) {
	f := NewFBM(9, 5)
	for i := 0; i < 1000; i++ {
		v := f.At(float32(i)*0.13, float32(i)*0.07)
		if v < 0 || v >= 1 {
			t.Fatalf("fbm out of range: %g", v)
		}
	}
	if NewFBM(9, 0).At(1, 1) != 0 {
		t.Error("fbm with zero octaves should be 0")
	}
}

// refValueNoise2D is value noise hashing all four lattice corners on every
// call, the reference for the cell-remembering lattice.
func refValueNoise2D(seed uint64, x, y float32) float32 {
	x0 := int32(math.Floor(float64(x)))
	y0 := int32(math.Floor(float64(y)))
	fx := x - float32(x0)
	fy := y - float32(y0)
	fx = fx * fx * (3 - 2*fx)
	fy = fy * fy * (3 - 2*fy)
	v00 := Hash2D(seed, x0, y0)
	v10 := Hash2D(seed, x0+1, y0)
	v01 := Hash2D(seed, x0, y0+1)
	v11 := Hash2D(seed, x0+1, y0+1)
	a := v00 + (v10-v00)*fx
	b := v01 + (v11-v01)*fx
	return a + (b-a)*fy
}

// refFBM2D is fBm over refValueNoise2D with no state between calls, the
// reference for FBM.
func refFBM2D(seed uint64, x, y float32, octaves int) float32 {
	var sum, norm, amp float32
	amp = 1
	freq := float32(1)
	for o := 0; o < octaves; o++ {
		sum += amp * refValueNoise2D(seed+uint64(o)*0x9e37, x*freq, y*freq)
		norm += amp
		amp /= 2
		freq *= 2
	}
	if norm == 0 {
		return 0
	}
	return sum / norm
}

// TestFBMMatchesStatelessReference pins FBM.At bit for bit to the
// stateless reference along texture-like row walks (where the remembered
// cell is reused and stepped), on random jumps (where it is refilled), and
// across negative and cell-boundary coordinates.
func TestFBMMatchesStatelessReference(t *testing.T) {
	for _, octaves := range []int{0, 1, 3, 5} {
		const seed = 0x5eed
		f := NewFBM(seed, octaves)
		check := func(x, y float32) {
			t.Helper()
			if got, want := f.At(x, y), refFBM2D(seed, x, y, octaves); math.Float32bits(got) != math.Float32bits(want) {
				t.Fatalf("octaves %d: At(%g, %g) = %g, reference %g", octaves, x, y, got, want)
			}
		}
		const n = 256
		for _, scale := range []float32{4, 7, 15} {
			for y := 0; y < n; y += 3 {
				for x := 0; x < n; x++ {
					u := float32(x) / float32(n)
					v := float32(y) / float32(n)
					check(u*scale, v*scale)
					check(u*scale*6, v*2)
				}
			}
		}
		r := New(uint64(octaves))
		for i := 0; i < 5000; i++ {
			check(r.Range(-40, 40), r.Range(-40, 40))
		}
		for i := -8; i <= 8; i++ {
			check(float32(i), float32(i)/2)
			check(float32(i)-1e-6, 0.5)
		}
	}
}
