// Quickstart: simulate one game frame under the baseline GPU and under
// A-TFIM, compare performance and image quality, and dump both frames.
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"repro"
)

func main() {
	ctx := context.Background()

	// Pick a Table II workload: Doom 3 at 640x480.
	wl, err := repro.Workload("doom3", 640, 480)
	if err != nil {
		log.Fatal(err)
	}

	// Render under the GDDR5 baseline.
	base, err := repro.SimulateContext(ctx, wl, repro.WithDesign(repro.Baseline))
	if err != nil {
		log.Fatal(err)
	}

	// Render under A-TFIM at the paper's default 0.01pi angle threshold.
	atfim, err := repro.SimulateContext(ctx, wl, repro.WithDesign(repro.ATFIM))
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("workload: %s\n", wl.Name())
	fmt.Printf("baseline: %10d cycles, %6.2f MB texture traffic\n",
		base.Cycles(), float64(base.TextureTraffic())/(1<<20))
	fmt.Printf("A-TFIM:   %10d cycles, %6.2f MB texture traffic\n",
		atfim.Cycles(), float64(atfim.TextureTraffic())/(1<<20))
	fmt.Printf("rendering speedup:        %.2fx\n",
		float64(base.Cycles())/float64(atfim.Cycles()))
	fmt.Printf("texture filtering speedup: %.2fx\n",
		base.Frame.Activity.Path.FilterTime()/atfim.Frame.Activity.Path.FilterTime())

	psnr, err := repro.PSNR(base.Image, atfim.Image)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("image quality (PSNR):      %.1f dB\n", psnr)

	for name, res := range map[string]*repro.Result{
		"baseline.png": base, "atfim.png": atfim,
	} {
		f, err := os.Create(name)
		if err != nil {
			log.Fatal(err)
		}
		if err := repro.WritePNG(f, res.Image, wl.Width, wl.Height); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s\n", name)
	}
}
