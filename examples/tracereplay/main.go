// Tracereplay captures a workload into the binary trace format (the role
// ATTILA's game traces play in the paper), replays it through the
// simulator, and verifies the replayed run matches a direct run exactly.
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"

	"repro"
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/texture"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	wl, err := workload.Get("riddick", 640, 480)
	if err != nil {
		log.Fatal(err)
	}

	// Capture: serialize the scene (geometry + texture recipes + cameras).
	sc := wl.Scene()
	var buf bytes.Buffer
	hdr := trace.Header{Name: wl.Name(), Width: wl.Width, Height: wl.Height}
	if err := trace.Write(&buf, hdr, sc, sc.TextureSpecs); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("captured %s: %d bytes (%d triangles, %d textures as recipes)\n",
		wl.Name(), buf.Len(), sc.NumTriangles(), len(sc.Textures))

	// Replay: deserialize and simulate.
	rhdr, replayed, err := trace.Read(&buf, texture.LayoutMorton)
	if err != nil {
		log.Fatal(err)
	}
	replayed.AssignTextureAddresses(mem.RegionTexture)
	fmt.Printf("replaying %s at %dx%d\n", rhdr.Name, rhdr.Width, rhdr.Height)

	design := repro.WithDesign(repro.ATFIM)
	fromTrace, err := core.RunScene(replayed, wl, repro.NewOptions(design))
	if err != nil {
		log.Fatal(err)
	}
	direct, err := repro.SimulateContext(context.Background(), wl, design)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("direct run:  %d cycles\n", direct.Cycles())
	fmt.Printf("trace replay: %d cycles\n", fromTrace.Cycles())
	psnr, err := repro.PSNR(direct.Image, fromTrace.Image)
	if err != nil {
		log.Fatal(err)
	}
	if psnr >= 99 && direct.Cycles() == fromTrace.Cycles() {
		fmt.Println("replay is bit-identical to the direct run")
	} else {
		fmt.Printf("replay differs: PSNR %.1f dB\n", psnr)
	}
}
