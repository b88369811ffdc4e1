// Package trace implements a binary capture format for rendering
// workloads, playing the role ATTILA's game traces play in the paper:
// scenes (geometry, procedural texture specs, camera paths) are serialized
// once and replayed deterministically by the simulator. Textures are
// stored as their procedural recipes, not pixels, so traces stay small and
// bit-identical across machines.
package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"repro/internal/scene"
	"repro/internal/texture"
	"repro/internal/vmath"
)

// magic and version identify the file format.
const (
	magic   = 0x54464952 // "RIFT"
	version = 2
)

// maxTexels bounds the base-level texels one trace may ask Read to
// synthesize: twice the largest Table II scene (hl2, 14 textures of
// 1024x1024), so a hostile header cannot demand gigabytes of texture.
const maxTexels = 2 * 14 * 1024 * 1024

// Header describes a trace file.
type Header struct {
	// Name is the workload name the trace was captured from.
	Name string
	// Width, Height are the intended render resolution.
	Width, Height int
}

type writer struct {
	w   *bufio.Writer
	err error
}

func (w *writer) u32(v uint32) {
	if w.err != nil {
		return
	}
	w.err = binary.Write(w.w, binary.LittleEndian, v)
}

func (w *writer) u64(v uint64) {
	if w.err != nil {
		return
	}
	w.err = binary.Write(w.w, binary.LittleEndian, v)
}

func (w *writer) f32(v float32) { w.u32(math.Float32bits(v)) }

func (w *writer) str(s string) {
	w.u32(uint32(len(s)))
	if w.err != nil {
		return
	}
	_, w.err = w.w.WriteString(s)
}

func (w *writer) vec3(v vmath.Vec3) { w.f32(v.X); w.f32(v.Y); w.f32(v.Z) }
func (w *writer) vec4(v vmath.Vec4) { w.f32(v.X); w.f32(v.Y); w.f32(v.Z); w.f32(v.W) }

type reader struct {
	r   *bufio.Reader
	err error
}

func (r *reader) u32() uint32 {
	if r.err != nil {
		return 0
	}
	var v uint32
	r.err = binary.Read(r.r, binary.LittleEndian, &v)
	return v
}

func (r *reader) u64() uint64 {
	if r.err != nil {
		return 0
	}
	var v uint64
	r.err = binary.Read(r.r, binary.LittleEndian, &v)
	return v
}

func (r *reader) f32() float32 { return math.Float32frombits(r.u32()) }

func (r *reader) str() string {
	n := r.u32()
	if r.err != nil {
		return ""
	}
	if n > 1<<20 {
		r.err = fmt.Errorf("trace: string length %d too large", n)
		return ""
	}
	buf := make([]byte, n)
	_, r.err = io.ReadFull(r.r, buf)
	return string(buf)
}

func (r *reader) vec3() vmath.Vec3 { return vmath.Vec3{X: r.f32(), Y: r.f32(), Z: r.f32()} }
func (r *reader) vec4() vmath.Vec4 {
	return vmath.Vec4{X: r.f32(), Y: r.f32(), Z: r.f32(), W: r.f32()}
}

// Write serializes a scene (with its texture recipes reconstructed from
// texture metadata) to out.
func Write(out io.Writer, hdr Header, sc *scene.Scene, specs []texture.SynthSpec) error {
	if len(specs) != len(sc.Textures) {
		return fmt.Errorf("trace: %d texture specs for %d textures", len(specs), len(sc.Textures))
	}
	w := &writer{w: bufio.NewWriter(out)}
	w.u32(magic)
	w.u32(version)
	w.str(hdr.Name)
	w.u32(uint32(hdr.Width))
	w.u32(uint32(hdr.Height))

	// Texture recipes.
	w.u32(uint32(len(specs)))
	for _, s := range specs {
		w.u32(uint32(s.Kind))
		w.u64(s.Seed)
		w.u32(uint32(s.Size))
		w.f32(s.Primary.R)
		w.f32(s.Primary.G)
		w.f32(s.Primary.B)
		w.f32(s.Primary.A)
		w.f32(s.Secondary.R)
		w.f32(s.Secondary.G)
		w.f32(s.Secondary.B)
		w.f32(s.Secondary.A)
		w.f32(s.Scale)
	}

	// Geometry.
	w.u32(uint32(len(sc.Mesh.Vertices)))
	for _, v := range sc.Mesh.Vertices {
		w.vec3(v.Pos)
		w.f32(v.UV.X)
		w.f32(v.UV.Y)
		w.vec4(v.Color)
		w.vec3(v.Normal)
	}
	w.u32(uint32(len(sc.Mesh.Triangles)))
	for _, t := range sc.Mesh.Triangles {
		w.u32(uint32(t.V[0]))
		w.u32(uint32(t.V[1]))
		w.u32(uint32(t.V[2]))
		w.u32(uint32(t.TexID))
	}

	// Cameras.
	w.u32(uint32(len(sc.Cameras)))
	for _, c := range sc.Cameras {
		w.vec3(c.Eye)
		w.vec3(c.Center)
		w.vec3(c.Up)
		w.f32(c.FovY)
		w.f32(c.Near)
		w.f32(c.Far)
	}

	// Lighting.
	w.f32(sc.Ambient)
	w.vec3(sc.LightDir)
	if w.err != nil {
		return w.err
	}
	return w.w.Flush()
}

// Read deserializes a trace, re-synthesizing its textures. Every texture
// record is checked before any is synthesized: an unknown kind, a size
// that is not a power of two, or more than maxTexels in total is an error.
func Read(in io.Reader, layout texture.Layout) (Header, *scene.Scene, error) {
	r := &reader{r: bufio.NewReader(in)}
	if m := r.u32(); r.err == nil && m != magic {
		return Header{}, nil, fmt.Errorf("trace: bad magic %#x", m)
	}
	if v := r.u32(); r.err == nil && v != version {
		return Header{}, nil, fmt.Errorf("trace: unsupported version %d", v)
	}
	var hdr Header
	hdr.Name = r.str()
	hdr.Width = int(r.u32())
	hdr.Height = int(r.u32())

	sc := &scene.Scene{Name: hdr.Name}

	nTex := r.u32()
	if r.err == nil && nTex > 4096 {
		return hdr, nil, fmt.Errorf("trace: texture count %d too large", nTex)
	}
	var specs []texture.SynthSpec
	var texels uint64
	for i := uint32(0); i < nTex && r.err == nil; i++ {
		kind, seed, size := r.u32(), r.u64(), r.u32()
		spec := texture.SynthSpec{
			Kind: texture.SynthKind(kind),
			Seed: seed,
			Size: int(size),
			Primary: texture.Color{
				R: r.f32(), G: r.f32(), B: r.f32(), A: r.f32(),
			},
			Secondary: texture.Color{
				R: r.f32(), G: r.f32(), B: r.f32(), A: r.f32(),
			},
			Scale: r.f32(),
		}
		if r.err != nil {
			break
		}
		switch {
		case kind > 0xff || !spec.Kind.Valid():
			return hdr, nil, fmt.Errorf("trace: texture %d has unknown kind %d", i, kind)
		case size == 0 || size&(size-1) != 0:
			return hdr, nil, fmt.Errorf("trace: texture %d size %d is not a power of two", i, size)
		case uint64(size)*uint64(size) > maxTexels-texels:
			return hdr, nil, fmt.Errorf("trace: textures exceed %d texels at texture %d (size %d)", maxTexels, i, size)
		}
		texels += uint64(size) * uint64(size)
		specs = append(specs, spec)
	}
	if r.err != nil {
		return hdr, nil, fmt.Errorf("trace: %w", r.err)
	}
	for i, spec := range specs {
		sc.Textures = append(sc.Textures, texture.Synthesize(i, spec, layout))
	}

	nVerts := r.u32()
	if r.err == nil && nVerts > 1<<24 {
		return hdr, nil, fmt.Errorf("trace: vertex count %d too large", nVerts)
	}
	for i := uint32(0); i < nVerts && r.err == nil; i++ {
		v := scene.VertexIn{
			Pos:    r.vec3(),
			UV:     vmath.Vec2{X: r.f32(), Y: r.f32()},
			Color:  r.vec4(),
			Normal: r.vec3(),
		}
		sc.Mesh.Vertices = append(sc.Mesh.Vertices, v)
	}
	nTris := r.u32()
	if r.err == nil && nTris > 1<<24 {
		return hdr, nil, fmt.Errorf("trace: triangle count %d too large", nTris)
	}
	for i := uint32(0); i < nTris && r.err == nil; i++ {
		t := scene.Triangle{
			V:     [3]int{int(r.u32()), int(r.u32()), int(r.u32())},
			TexID: int(r.u32()),
		}
		if r.err == nil {
			for _, idx := range t.V {
				if idx < 0 || idx >= len(sc.Mesh.Vertices) {
					return hdr, nil, fmt.Errorf("trace: triangle %d references vertex %d of %d", i, idx, len(sc.Mesh.Vertices))
				}
			}
			if t.TexID < 0 || t.TexID >= len(sc.Textures) {
				return hdr, nil, fmt.Errorf("trace: triangle %d references texture %d of %d", i, t.TexID, len(sc.Textures))
			}
		}
		sc.Mesh.Triangles = append(sc.Mesh.Triangles, t)
	}

	nCams := r.u32()
	if r.err == nil && nCams > 1<<16 {
		return hdr, nil, fmt.Errorf("trace: camera count %d too large", nCams)
	}
	for i := uint32(0); i < nCams && r.err == nil; i++ {
		sc.Cameras = append(sc.Cameras, scene.Camera{
			Eye: r.vec3(), Center: r.vec3(), Up: r.vec3(),
			FovY: r.f32(), Near: r.f32(), Far: r.f32(),
		})
	}
	sc.Ambient = r.f32()
	sc.LightDir = r.vec3()
	if r.err != nil {
		return hdr, nil, fmt.Errorf("trace: %w", r.err)
	}
	return hdr, sc, nil
}
