package shader

// Built-in programs used by the workloads. They are deliberately in the
// style of early programmable-pipeline shaders: the vertex program performs
// the model-view-projection transform and passes attributes through; the
// fragment programs modulate a filtered texture sample with interpolated
// lighting.

// VertexTransformSrc is the standard vertex program: o0 = MVP * v0
// (rows of the MVP matrix live in c0..c3), o1 = texcoord, o2 = color,
// o3 = normal.
const VertexTransformSrc = `
# Standard MVP transform vertex program.
DP4 r0, c0, v0      # clip.x
DP4 r1, c1, v0      # clip.y
DP4 r2, c2, v0      # clip.z
DP4 r3, c3, v0      # clip.w
MUL r0, r0, c4      # lane-select masks pack xyzw into o0
MAD r0, r1, c5, r0
MAD r0, r2, c6, r0
MAD r0, r3, c7, r0
MOV o0, r0
MOV o1, v1          # texture coordinates
MOV o2, v2          # vertex color
MOV o3, v3          # normal
END
`

// FragmentTexturedSrc is the standard multi-layer fragment program in the
// style of the paper's games (Id Tech 4 / Source-era material systems):
// a base color map, a high-frequency detail map at 4x UV tiling, and a
// low-frequency baked-light map at 0.25x tiling, combined with diffuse
// lighting. Three TEX instructions per fragment is what makes texture
// fetching dominate memory bandwidth (Fig. 2 of the paper).
// Inputs: v0 = texcoord, v1 = color, v2 = normal. Constants: c8 = light
// direction, c9 = ambient, c10 = 0, c11 = 1, c12 = detail UV scale,
// c13 = lightmap UV scale, c14 = c15 = 0.5.
const FragmentTexturedSrc = `
# Layered textured fragment with diffuse lighting.
TEX r0, v0, t0      # base color map
MUL r3, v0, c12     # detail UV
TEX r1, r3, t1      # detail map
MUL r4, v0, c13     # light-map UV
TEX r2, r4, t2      # baked light map
MAD r1, r1, c14, c15  # detail modulation in [0.5, 1.0]
MUL r0, r0, r1
DP3 r5, v2, c8      # N . L
MAX r5, r5, c10     # clamp to zero
ADD r5, r5, c9      # + ambient
MIN r5, r5, c11     # clamp to one
MUL r0, r0, r5      # light the texel
MAD r2, r2, c14, c15  # light-map modulation in [0.5, 1.0]
MUL r0, r0, r2
MUL o0, r0, v1      # modulate by vertex color
END
`

// FragmentUnlitSrc is a cheap fragment program used by HUD/sky layers:
// a texture sample modulated by color only.
const FragmentUnlitSrc = `
TEX r0, v0, t0
MUL o0, r0, v1
END
`

// NewVertexProgram assembles the standard vertex program with lane-select
// constants pre-loaded.
func NewVertexProgram() *Program {
	p := MustAssemble("vs_transform", VertexTransformSrc)
	p.Consts[4] = Vec{1, 0, 0, 0}
	p.Consts[5] = Vec{0, 1, 0, 0}
	p.Consts[6] = Vec{0, 0, 1, 0}
	p.Consts[7] = Vec{0, 0, 0, 1}
	return p
}

// DetailUVScale and LightmapUVScale are the layer tilings baked into the
// standard fragment program's constants.
const (
	DetailUVScale   = 4.0
	LightmapUVScale = 0.25
)

// NewFragmentProgram assembles the standard lit multi-layer fragment
// program with its clamp constants and the given light direction/ambient.
func NewFragmentProgram(lightDir Vec, ambient float32) *Program {
	p := MustAssemble("fs_textured", FragmentTexturedSrc)
	SetLighting(p, lightDir, ambient)
	p.Consts[10] = Vec{0, 0, 0, 0}
	p.Consts[11] = Vec{1, 1, 1, 1}
	p.Consts[12] = Vec{DetailUVScale, DetailUVScale, DetailUVScale, DetailUVScale}
	p.Consts[13] = Vec{LightmapUVScale, LightmapUVScale, LightmapUVScale, LightmapUVScale}
	p.Consts[14] = Vec{0.5, 0.5, 0.5, 0.5}
	p.Consts[15] = Vec{0.5, 0.5, 0.5, 0.5}
	return p
}

// NewUnlitFragmentProgram assembles the unlit fragment program.
func NewUnlitFragmentProgram() *Program {
	return MustAssemble("fs_unlit", FragmentUnlitSrc)
}

// SetLighting loads the light direction and ambient term into c8 and c9
// of a fragment program from NewFragmentProgram.
func SetLighting(p *Program, lightDir Vec, ambient float32) {
	p.Consts[8] = lightDir
	p.Consts[9] = Vec{ambient, ambient, ambient, ambient}
}

// SetMVP loads the model-view-projection matrix rows into c0..c3 of a
// vertex program. rows are the four matrix rows.
func SetMVP(p *Program, rows [4]Vec) {
	for i := 0; i < 4; i++ {
		p.Consts[i] = rows[i]
	}
}
