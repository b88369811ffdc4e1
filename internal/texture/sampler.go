package texture

import "math"

// FetchFunc is the texel-fetch callback. The functional renderer passes a
// direct array read; the timing designs wrap it with cache lookups, memory
// transactions and (for A-TFIM) in-memory approximation.
type FetchFunc func(t *Texture, level, x, y int) Color

// Gradients are the screen-space derivatives of the texture coordinates,
// computed analytically by the rasterizer per fragment.
type Gradients struct {
	DUDX, DVDX float32
	DUDY, DVDY float32
}

// Footprint is the anisotropic sampling decision for one texture request:
// the fine LOD used for trilinear filtering, the number of anisotropic
// probes N (the paper's "level of anisotropic"), and the major-axis step in
// UV space. With N == 1 the request degenerates to plain trilinear.
type Footprint struct {
	// Lod is the trilinear level-of-detail (log2 of the minor axis length).
	Lod float32
	// N is the anisotropy degree (1..MaxAniso).
	N int
	// AxisU, AxisV is the full major-axis extent in UV space; probe i sits
	// at offset Axis * ((i+0.5)/N - 0.5).
	AxisU, AxisV float32
	// Angle is the camera angle proxy (radians) associated with this
	// footprint; A-TFIM tags cached parent texels with it.
	Angle float32
}

// IsoLod returns the isotropic LOD (log2 of the major axis) used when
// anisotropic filtering is disabled — blurrier but cheap (Section II-C).
func (f Footprint) IsoLod() float32 {
	return f.Lod + Log2(float32(f.N))
}

// TexelFetches returns how many texels the conventional order fetches
// (N probes x 2 mip levels x 4 bilinear corners), e.g. 32 for 4x anisotropy
// as in the paper's Fig. 7(A).
func (f Footprint) TexelFetches() int { return f.N * 8 }

// ParentFetches returns how many parent texels A-TFIM fetches from the GPU
// side (2 levels x 4 corners = 8, Fig. 7(B)).
func (f Footprint) ParentFetches() int { return 8 }

// ComputeFootprint derives the anisotropic footprint from UV gradients for
// texture t, capping anisotropy at maxAniso (>= 1).
func ComputeFootprint(t *Texture, g Gradients, maxAniso int) Footprint {
	if maxAniso < 1 {
		maxAniso = 1
	}
	w := float32(t.Levels[0].W)
	h := float32(t.Levels[0].H)
	// Gradient lengths in base-level texel space.
	lx := float32(math.Hypot(float64(g.DUDX*w), float64(g.DVDX*h)))
	ly := float32(math.Hypot(float64(g.DUDY*w), float64(g.DVDY*h)))

	majorU, majorV := g.DUDX, g.DVDX
	major, minor := lx, ly
	if ly > lx {
		majorU, majorV = g.DUDY, g.DVDY
		major, minor = ly, lx
	}
	const eps = 1e-6
	if major < eps {
		major = eps
	}
	if minor < eps {
		minor = eps
	}
	ratio := major / minor
	if ratio > float32(maxAniso) {
		ratio = float32(maxAniso)
	}
	n := int(math.Ceil(float64(ratio)))
	if n < 1 {
		n = 1
	}
	// Trilinear LOD covers the minor axis; probes cover the major axis.
	lodLen := major / float32(n)
	if lodLen < 1 {
		lodLen = 1
	}
	lod := Log2(lodLen)
	maxLod := float32(t.NumLevels() - 1)
	if lod > maxLod {
		lod = maxLod
	}
	if lod < 0 {
		lod = 0
	}
	return Footprint{Lod: lod, N: n, AxisU: majorU, AxisV: majorV}
}

// probeStep returns the normalized probe position s_i in [-0.5, 0.5).
func probeStep(i, n int) float32 {
	return (float32(i)+0.5)/float32(n) - 0.5
}

// ChildOffset returns the integer texel offset of child probe i at the given
// mip level: the major-axis step scaled into level texel space and rounded.
// These are exactly the child texels the A-TFIM Texel Generator produces in
// the HMC logic layer (Fig. 8).
func (f Footprint) ChildOffset(t *Texture, level, i int) (dx, dy int) {
	level = t.ClampLevel(level)
	l := &t.Levels[level]
	s := probeStep(i, f.N)
	dx = int(math.Round(float64(f.AxisU * float32(l.W) * s)))
	dy = int(math.Round(float64(f.AxisV * float32(l.H) * s)))
	return dx, dy
}

// bilinearSetup computes the base corner and fractional weights of a
// bilinear fetch at (u, v) on the given level.
func bilinearSetup(t *Texture, level int, u, v float32) (x0, y0 int, fx, fy float32) {
	l := &t.Levels[t.ClampLevel(level)]
	tu := u*float32(l.W) - 0.5
	tv := v*float32(l.H) - 0.5
	x0 = int(math.Floor(float64(tu)))
	y0 = int(math.Floor(float64(tv)))
	fx = tu - float32(x0)
	fy = tv - float32(y0)
	return x0, y0, fx, fy
}

// trilinearLevels returns the two mip levels and the blend weight for a LOD.
func trilinearLevels(t *Texture, lod float32) (l0, l1 int, w float32) {
	if lod <= 0 {
		return 0, 0, 0
	}
	maxL := t.NumLevels() - 1
	fl := int(lod)
	if fl >= maxL {
		return maxL, maxL, 0
	}
	return fl, fl + 1, lod - float32(fl)
}

// Sampler executes the texture-filtering pipeline. Fetch may be nil, in
// which case texels are read directly from the texture (pure functional
// rendering with no timing side effects).
type Sampler struct {
	// MaxAniso caps the anisotropy degree (16 in Table I-class GPUs);
	// 1 disables anisotropic filtering.
	MaxAniso int
	// Fetch is the texel-fetch callback (nil = direct array read).
	Fetch FetchFunc
}

func (s *Sampler) fetch(t *Texture, level, x, y int) Color {
	if s.Fetch != nil {
		return s.Fetch(t, level, x, y)
	}
	return t.Texel(level, x, y)
}

// SampleBilinear performs one bilinear fetch at (u, v) on a single level
// (4 texels).
func (s *Sampler) SampleBilinear(t *Texture, level int, u, v float32) Color {
	x0, y0, fx, fy := bilinearSetup(t, level, u, v)
	c00 := s.fetch(t, level, x0, y0)
	c10 := s.fetch(t, level, x0+1, y0)
	c01 := s.fetch(t, level, x0, y0+1)
	c11 := s.fetch(t, level, x0+1, y0+1)
	top := LerpColor(c00, c10, fx)
	bot := LerpColor(c01, c11, fx)
	return LerpColor(top, bot, fy)
}

// SampleTrilinear blends bilinear fetches from the two levels bracketing
// lod (8 texels), smoothing the mipmap-level boundaries (Fig. 3, step 2).
func (s *Sampler) SampleTrilinear(t *Texture, u, v, lod float32) Color {
	l0, l1, w := trilinearLevels(t, lod)
	c0 := s.SampleBilinear(t, l0, u, v)
	if l1 == l0 || w == 0 {
		return c0
	}
	c1 := s.SampleBilinear(t, l1, u, v)
	return LerpColor(c0, c1, w)
}

// SampleIsotropic samples with anisotropic filtering disabled: plain
// trilinear at the isotropic (major-axis) LOD. This is the Fig. 4
// "anisotropic filtering disabled" configuration — cheap but blurry on
// oblique surfaces.
func (s *Sampler) SampleIsotropic(t *Texture, u, v float32, f Footprint) Color {
	return s.SampleTrilinear(t, u, v, f.IsoLod())
}

// SampleAniso performs full anisotropic filtering in the conventional order
// of Fig. 3/Fig. 7(A): for every child probe, bilinear fetches at both mip
// levels; probe results are averaged last (anisotropic step at the end).
// It fetches f.TexelFetches() texels.
func (s *Sampler) SampleAniso(t *Texture, u, v float32, f Footprint) Color {
	if f.N <= 1 {
		return s.SampleTrilinear(t, u, v, f.Lod)
	}
	l0, l1, w := trilinearLevels(t, f.Lod)
	inv := 1 / float32(f.N)

	sampleLevel := func(level int) Color {
		x0, y0, fx, fy := bilinearSetup(t, level, u, v)
		var acc Color
		for i := 0; i < f.N; i++ {
			dx, dy := f.ChildOffset(t, level, i)
			c00 := s.fetch(t, level, x0+dx, y0+dy)
			c10 := s.fetch(t, level, x0+1+dx, y0+dy)
			c01 := s.fetch(t, level, x0+dx, y0+1+dy)
			c11 := s.fetch(t, level, x0+1+dx, y0+1+dy)
			top := LerpColor(c00, c10, fx)
			bot := LerpColor(c01, c11, fx)
			acc = acc.Add(LerpColor(top, bot, fy))
		}
		return acc.Scale(inv)
	}

	c0 := sampleLevel(l0)
	if l1 == l0 || w == 0 {
		return c0
	}
	c1 := sampleLevel(l1)
	return LerpColor(c0, c1, w)
}

// ParentFetchFunc returns the anisotropically pre-filtered ("approximated")
// parent texel at integer position (level, x, y): the average of that
// corner's N child texels. In A-TFIM this runs in the HMC logic layer.
type ParentFetchFunc func(t *Texture, level, x, y int, f Footprint) Color

// AverageChildren computes a parent texel the way the A-TFIM Combination
// Unit does: fetch the N child texels at the footprint's offsets from
// (x, y) and average them. With fetch == nil texels are read directly.
func AverageChildren(t *Texture, level, x, y int, f Footprint, fetch FetchFunc) Color {
	if f.N <= 1 {
		if fetch != nil {
			return fetch(t, level, x, y)
		}
		return t.Texel(level, x, y)
	}
	var acc Color
	for i := 0; i < f.N; i++ {
		dx, dy := f.ChildOffset(t, level, i)
		if fetch != nil {
			acc = acc.Add(fetch(t, level, x+dx, y+dy))
		} else {
			acc = acc.Add(t.Texel(level, x+dx, y+dy))
		}
	}
	return acc.Scale(1 / float32(f.N))
}

// SampleAnisoReordered performs the A-TFIM reordered pipeline of Fig. 7(B):
// anisotropic filtering first (per parent texel, via parentFetch), then
// bilinear and trilinear on the 8 approximated parent texels. With
// parentFetch == AverageChildren-over-direct-texels this computes exactly
// the same weighted sum as SampleAniso (the paper's Eq. 3 correctness
// argument), reassociated.
func (s *Sampler) SampleAnisoReordered(t *Texture, u, v float32, f Footprint, parentFetch ParentFetchFunc) Color {
	if parentFetch == nil {
		parentFetch = func(t *Texture, level, x, y int, f Footprint) Color {
			return AverageChildren(t, level, x, y, f, s.Fetch)
		}
	}
	if f.N <= 1 {
		// No anisotropy: parent texels are plain texels.
		l0, l1, w := trilinearLevels(t, f.Lod)
		c0 := s.bilinearVia(t, l0, u, v, f, parentFetch)
		if l1 == l0 || w == 0 {
			return c0
		}
		c1 := s.bilinearVia(t, l1, u, v, f, parentFetch)
		return LerpColor(c0, c1, w)
	}
	l0, l1, w := trilinearLevels(t, f.Lod)
	c0 := s.bilinearVia(t, l0, u, v, f, parentFetch)
	if l1 == l0 || w == 0 {
		return c0
	}
	c1 := s.bilinearVia(t, l1, u, v, f, parentFetch)
	return LerpColor(c0, c1, w)
}

func (s *Sampler) bilinearVia(t *Texture, level int, u, v float32, f Footprint, pf ParentFetchFunc) Color {
	x0, y0, fx, fy := bilinearSetup(t, level, u, v)
	c00 := pf(t, level, x0, y0, f)
	c10 := pf(t, level, x0+1, y0, f)
	c01 := pf(t, level, x0, y0+1, f)
	c11 := pf(t, level, x0+1, y0+1, f)
	top := LerpColor(c00, c10, fx)
	bot := LerpColor(c01, c11, fx)
	return LerpColor(top, bot, fy)
}

// AppendParentTexelCoords appends the 8 (level, x, y) parent-texel
// coordinates a reordered sample touches to dst, in deterministic order:
// level-0 corners then level-1 corners. When the LOD needs only one level,
// 4 coordinates are appended. SampleAnisoReordered requests the parents in
// this order.
func AppendParentTexelCoords(dst []ParentCoord, t *Texture, u, v float32, f Footprint) []ParentCoord {
	l0, l1, w := trilinearLevels(t, f.Lod)
	dst = appendParentLevel(dst, t, l0, u, v)
	if l1 != l0 && w != 0 {
		dst = appendParentLevel(dst, t, l1, u, v)
	}
	return dst
}

// appendParentLevel appends the 4 bilinear corners of (u, v) on level in
// the order bilinearVia fetches them.
func appendParentLevel(dst []ParentCoord, t *Texture, level int, u, v float32) []ParentCoord {
	x0, y0, _, _ := bilinearSetup(t, level, u, v)
	return append(dst,
		ParentCoord{Level: level, X: x0, Y: y0},
		ParentCoord{Level: level, X: x0 + 1, Y: y0},
		ParentCoord{Level: level, X: x0, Y: y0 + 1},
		ParentCoord{Level: level, X: x0 + 1, Y: y0 + 1},
	)
}

// ParentCoord identifies one parent texel.
type ParentCoord struct {
	Level, X, Y int
}
