// Package raster implements the fixed-function rasterization stage of the
// baseline GPU (Fig. 1): triangle setup with edge functions, near-plane
// clipping, perspective-correct attribute interpolation with analytic
// screen-space gradients (needed for texture LOD/anisotropy), a 16x16
// tile-based scan order (Table I's tile size), and a hierarchical-Z
// structure used for early-Z rejection.
package raster

import (
	"math"

	"repro/internal/vmath"
)

// TileSize is the rasterizer tile edge in pixels (16x16 per Table I).
const TileSize = 16

// Vertex is a post-vertex-shading vertex: clip-space position plus the
// attributes interpolated across the triangle.
type Vertex struct {
	// Pos is the clip-space position (before perspective divide).
	Pos vmath.Vec4
	// UV is the texture coordinate.
	UV vmath.Vec2
	// Color is the vertex color.
	Color vmath.Vec4
	// Normal is the (eye-space) surface normal.
	Normal vmath.Vec3
}

// Fragment is one covered pixel produced by the rasterizer.
type Fragment struct {
	// X, Y are the pixel coordinates.
	X, Y int
	// Depth is the interpolated NDC depth in [0, 1] (0 = near).
	Depth float32
	// UV is the perspective-correct texture coordinate.
	UV vmath.Vec2
	// DUDX, DVDX, DUDY, DVDY are the analytic screen-space UV derivatives.
	DUDX, DVDX, DUDY, DVDY float32
	// Color is the interpolated vertex color.
	Color vmath.Vec4
	// Normal is the interpolated normal (unnormalized).
	Normal vmath.Vec3
	// ViewAngle is the angle (radians) between the view direction and the
	// surface normal — the "camera angle" the A-TFIM design tags texels
	// with (Section V-C).
	ViewAngle float32
	// TexID selects the draw call's texture (copied by the pipeline).
	TexID int
}

// Tile identifies one 16x16 screen tile.
type Tile struct {
	X0, Y0 int // top-left pixel
}

// Stats counts rasterizer events.
type Stats struct {
	Triangles        uint64
	Clipped          uint64
	Culled           uint64
	TilesTouched     uint64
	FragmentsIn      uint64
	FragmentsEarlyZ  uint64
	FragmentsEmitted uint64
	HiZRejectedTiles uint64
}

// Add merges o into s (used to reduce per-shard counters).
func (s *Stats) Add(o Stats) {
	s.Triangles += o.Triangles
	s.Clipped += o.Clipped
	s.Culled += o.Culled
	s.TilesTouched += o.TilesTouched
	s.FragmentsIn += o.FragmentsIn
	s.FragmentsEarlyZ += o.FragmentsEarlyZ
	s.FragmentsEmitted += o.FragmentsEmitted
	s.HiZRejectedTiles += o.HiZRejectedTiles
}

// Rasterizer scans triangles into fragments over a WxH render target.
type Rasterizer struct {
	W, H int
	// EarlyZ enables per-fragment early depth rejection against Depth.
	EarlyZ bool
	// HiZ enables hierarchical-Z tile rejection.
	HiZ bool
	// Depth is the depth buffer (owned by the caller/ROP); used read-only
	// for early-Z when non-nil.
	Depth []float32
	// hiZ holds the per-tile maximum depth for hierarchical rejection.
	hiZ   []float32
	tw    int
	th    int
	stats Stats
	// frag is ScanTile's fragment, kept on the rasterizer so it does not
	// escape to the heap on every call; emit must not keep the pointer.
	frag Fragment
}

// New creates a rasterizer for a WxH target.
func New(w, h int) *Rasterizer {
	tw := (w + TileSize - 1) / TileSize
	th := (h + TileSize - 1) / TileSize
	r := &Rasterizer{W: w, H: h, EarlyZ: true, HiZ: true, tw: tw, th: th}
	r.hiZ = make([]float32, tw*th)
	r.ResetHiZ()
	return r
}

// Stats returns a copy of the counters.
func (r *Rasterizer) Stats() Stats { return r.stats }

// ResetStats zeroes the counters.
func (r *Rasterizer) ResetStats() { r.stats = Stats{} }

// AddStats folds externally accumulated counters (a shard view's) into r.
func (r *Rasterizer) AddStats(o Stats) { r.stats.Add(o) }

// ShardView returns a rasterizer that shares r's depth and hierarchical-Z
// storage but keeps private statistics. Concurrent views are safe as long
// as each scans a disjoint set of tiles: ScanTile and UpdateHiZ only touch
// the depth/HiZ entries of the tile being scanned.
func (r *Rasterizer) ShardView() *Rasterizer {
	v := *r
	v.stats = Stats{}
	return &v
}

// ResetHiZ clears the hierarchical-Z buffer to the far plane.
func (r *Rasterizer) ResetHiZ() {
	for i := range r.hiZ {
		r.hiZ[i] = 1
	}
}

// UpdateHiZ lowers the tile's max-depth bound after the ROP writes depth.
func (r *Rasterizer) UpdateHiZ(tile Tile, maxDepth float32) {
	idx := (tile.Y0/TileSize)*r.tw + tile.X0/TileSize
	if maxDepth < r.hiZ[idx] {
		r.hiZ[idx] = maxDepth
	}
}

// clipNear clips a triangle against the near plane (w >= wEps) in clip
// space into out, returning how many triangles (0, 1 or 2) it wrote. The
// clip distance is kept well above zero so post-divide screen coordinates
// stay in a numerically stable range (it sits closer than any camera near
// plane in use).
func clipNear(v [3]Vertex, out *[2][3]Vertex) int {
	const wEps = 0.05
	var in, outside [3]Vertex
	nIn, nOut := 0, 0
	for _, p := range v {
		if p.Pos.W >= wEps {
			in[nIn] = p
			nIn++
		} else {
			outside[nOut] = p
			nOut++
		}
	}
	switch nIn {
	case 3:
		out[0] = v
		return 1
	case 0:
		return 0
	}
	lerpV := func(a, b Vertex) Vertex {
		t := (wEps - a.Pos.W) / (b.Pos.W - a.Pos.W)
		return Vertex{
			Pos:    vmath.Lerp(a.Pos, b.Pos, t),
			UV:     vmath.Lerp2(a.UV, b.UV, t),
			Color:  vmath.Lerp(a.Color, b.Color, t),
			Normal: a.Normal.Add(b.Normal.Sub(a.Normal).Scale(t)),
		}
	}
	if nIn == 1 {
		a := in[0]
		out[0] = [3]Vertex{a, lerpV(a, outside[0]), lerpV(a, outside[1])}
		return 1
	}
	// Two inside: quad -> two triangles.
	a, b := in[0], in[1]
	c := lerpV(a, outside[0])
	d := lerpV(b, outside[0])
	out[0] = [3]Vertex{a, b, c}
	out[1] = [3]Vertex{b, d, c}
	return 2
}

// screenVertex is a post-divide vertex with perspective-correct setup data.
type screenVertex struct {
	x, y  float32 // window coordinates
	z     float32 // NDC depth remapped to [0,1]
	invW  float32
	uvW   vmath.Vec2 // uv * invW
	colW  vmath.Vec4 // color * invW
	nrmW  vmath.Vec3 // normal * invW
	angle float32
}

// SetupTriangle holds everything needed to scan one triangle.
type SetupTriangle struct {
	sv                     [3]screenVertex
	area2                  float32 // twice the signed area
	minX, maxX, minY, maxY int
	// Attribute plane gradients for u/w, v/w and 1/w in screen space.
	duwDX, duwDY float32
	dvwDX, dvwDY float32
	dwDX, dwDY   float32
	TexID        int
}

// Setup performs clipping, perspective divide, viewport mapping, back-face
// culling and gradient setup. It returns zero or more scan-ready triangles.
func (r *Rasterizer) Setup(v [3]Vertex, texID int) []SetupTriangle {
	return r.AppendSetup(nil, v, texID)
}

// AppendSetup is Setup appending the scan-ready triangles to dst, so a
// caller that reuses dst across frames allocates nothing once it is grown.
func (r *Rasterizer) AppendSetup(dst []SetupTriangle, v [3]Vertex, texID int) []SetupTriangle {
	r.stats.Triangles++
	var tris [2][3]Vertex
	n := clipNear(v, &tris)
	if n == 0 {
		r.stats.Culled++
		return dst
	}
	if n > 1 || tris[0] != v {
		r.stats.Clipped++
	}
	for _, t := range tris[:n] {
		if st, ok := r.setupOne(t, texID); ok {
			dst = append(dst, st)
		} else {
			r.stats.Culled++
		}
	}
	return dst
}

func (r *Rasterizer) setupOne(t [3]Vertex, texID int) (SetupTriangle, bool) {
	var st SetupTriangle
	st.TexID = texID
	for i, p := range t {
		invW := 1 / p.Pos.W
		ndcX := p.Pos.X * invW
		ndcY := p.Pos.Y * invW
		ndcZ := p.Pos.Z * invW
		sv := screenVertex{
			x:    (ndcX*0.5 + 0.5) * float32(r.W),
			y:    (0.5 - ndcY*0.5) * float32(r.H),
			z:    ndcZ*0.5 + 0.5,
			invW: invW,
		}
		sv.uvW = p.UV.Scale(invW)
		sv.colW = p.Color.Scale(invW)
		sv.nrmW = p.Normal.Scale(invW)
		st.sv[i] = sv
	}
	// Counter-clockwise (front-facing) world winding appears clockwise in
	// window coordinates because the viewport maps NDC +Y to screen -Y,
	// yielding negative signed area. Cull non-negative (back-facing or
	// degenerate) triangles, then swap two vertices so the scan loop can
	// assume positive edge functions.
	{
		a, b, c := st.sv[0], st.sv[1], st.sv[2]
		st.area2 = (b.x-a.x)*(c.y-a.y) - (b.y-a.y)*(c.x-a.x)
	}
	if st.area2 >= 0 {
		return st, false
	}
	st.sv[1], st.sv[2] = st.sv[2], st.sv[1]
	st.area2 = -st.area2
	a, b, c := st.sv[0], st.sv[1], st.sv[2]

	minX := int(math.Floor(float64(min3(a.x, b.x, c.x))))
	maxX := int(math.Ceil(float64(max3(a.x, b.x, c.x))))
	minY := int(math.Floor(float64(min3(a.y, b.y, c.y))))
	maxY := int(math.Ceil(float64(max3(a.y, b.y, c.y))))
	if minX < 0 {
		minX = 0
	}
	if minY < 0 {
		minY = 0
	}
	if maxX > r.W-1 {
		maxX = r.W - 1
	}
	if maxY > r.H-1 {
		maxY = r.H - 1
	}
	if minX > maxX || minY > maxY {
		return st, false
	}
	st.minX, st.maxX, st.minY, st.maxY = minX, maxX, minY, maxY

	// Screen-space gradients of the perspective-corrected attributes via
	// the plane equation: for attribute f with vertex values f0..f2,
	// df/dx = ((f1-f0)(y2-y0) - (f2-f0)(y1-y0)) / area2, etc.
	grad := func(f0, f1, f2 float32) (gx, gy float32) {
		gx = ((f1-f0)*(c.y-a.y) - (f2-f0)*(b.y-a.y)) / st.area2
		gy = ((f2-f0)*(b.x-a.x) - (f1-f0)*(c.x-a.x)) / st.area2
		return
	}
	st.duwDX, st.duwDY = grad(a.uvW.X, b.uvW.X, c.uvW.X)
	st.dvwDX, st.dvwDY = grad(a.uvW.Y, b.uvW.Y, c.uvW.Y)
	st.dwDX, st.dwDY = grad(a.invW, b.invW, c.invW)
	return st, true
}

func min3(a, b, c float32) float32 { return vmath.Min(a, vmath.Min(b, c)) }
func max3(a, b, c float32) float32 { return vmath.Max(a, vmath.Max(b, c)) }

// Tiles returns the screen tiles the triangle's bounding box touches, in
// row-major (scanning) order.
func (st *SetupTriangle) Tiles() []Tile { return st.AppendTiles(nil) }

// AppendTiles is Tiles appending to tiles.
func (st *SetupTriangle) AppendTiles(tiles []Tile) []Tile {
	for ty := st.minY / TileSize; ty <= st.maxY/TileSize; ty++ {
		for tx := st.minX / TileSize; tx <= st.maxX/TileSize; tx++ {
			tiles = append(tiles, Tile{X0: tx * TileSize, Y0: ty * TileSize})
		}
	}
	return tiles
}

// ScanTile rasterizes the triangle within one tile, invoking emit for every
// covered (and early-Z surviving) fragment. The fragment is reused for the
// next one, so emit must not keep the pointer. It returns the number of
// fragments emitted.
func (r *Rasterizer) ScanTile(st *SetupTriangle, tile Tile, emit func(*Fragment)) int {
	x0 := maxInt(tile.X0, st.minX)
	x1 := minInt(tile.X0+TileSize-1, st.maxX)
	y0 := maxInt(tile.Y0, st.minY)
	y1 := minInt(tile.Y0+TileSize-1, st.maxY)
	if x0 > x1 || y0 > y1 {
		return 0
	}
	r.stats.TilesTouched++

	// Hierarchical Z: reject the whole tile if the triangle's nearest
	// depth is behind the tile's farthest stored depth.
	if r.HiZ && r.Depth != nil {
		tIdx := (tile.Y0/TileSize)*r.tw + tile.X0/TileSize
		zMin := min3(st.sv[0].z, st.sv[1].z, st.sv[2].z)
		if zMin > r.hiZ[tIdx] {
			r.stats.HiZRejectedTiles++
			return 0
		}
	}

	a, b, c := st.sv[0], st.sv[1], st.sv[2]
	invArea := 1 / st.area2
	emitted := 0
	frag := &r.frag
	for y := y0; y <= y1; y++ {
		py := float32(y) + 0.5
		for x := x0; x <= x1; x++ {
			px := float32(x) + 0.5
			// Edge functions (barycentric numerators).
			w0 := (b.x-px)*(c.y-py) - (b.y-py)*(c.x-px)
			w1 := (c.x-px)*(a.y-py) - (c.y-py)*(a.x-px)
			w2 := (a.x-px)*(b.y-py) - (a.y-py)*(b.x-px)
			if w0 < 0 || w1 < 0 || w2 < 0 {
				continue
			}
			r.stats.FragmentsIn++
			l0 := w0 * invArea
			l1 := w1 * invArea
			l2 := w2 * invArea

			z := l0*a.z + l1*b.z + l2*c.z
			if r.EarlyZ && r.Depth != nil && z >= r.Depth[y*r.W+x] {
				r.stats.FragmentsEarlyZ++
				continue
			}

			invW := l0*a.invW + l1*b.invW + l2*c.invW
			w := 1 / invW
			uOverW := l0*a.uvW.X + l1*b.uvW.X + l2*c.uvW.X
			vOverW := l0*a.uvW.Y + l1*b.uvW.Y + l2*c.uvW.Y

			*frag = Fragment{
				X: x, Y: y,
				Depth: z,
				UV:    vmath.Vec2{X: uOverW * w, Y: vOverW * w},
				TexID: st.TexID,
			}
			// Analytic perspective-correct derivatives:
			// d(u)/dx = ( d(u/w)/dx - u * d(1/w)/dx ) * w
			frag.DUDX = (st.duwDX - frag.UV.X*st.dwDX) * w
			frag.DUDY = (st.duwDY - frag.UV.X*st.dwDY) * w
			frag.DVDX = (st.dvwDX - frag.UV.Y*st.dwDX) * w
			frag.DVDY = (st.dvwDY - frag.UV.Y*st.dwDY) * w

			col := st.sv[0].colW.Scale(l0).
				Add(st.sv[1].colW.Scale(l1)).
				Add(st.sv[2].colW.Scale(l2)).Scale(w)
			frag.Color = col
			nrm := st.sv[0].nrmW.Scale(l0).
				Add(st.sv[1].nrmW.Scale(l1)).
				Add(st.sv[2].nrmW.Scale(l2)).Scale(w)
			frag.Normal = nrm

			// Camera angle: angle between the view direction (along -Z in
			// eye space; the pipeline provides eye-space normals) and the
			// surface normal, folded into [0, pi/2].
			n := nrm.Normalize()
			cosA := vmath.Abs(n.Z)
			frag.ViewAngle = float32(math.Acos(float64(vmath.Clamp(cosA, 0, 1))))

			r.stats.FragmentsEmitted++
			emitted++
			emit(frag)
		}
	}
	return emitted
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
