package repro_test

import (
	"context"
	"fmt"
	"log"
	"os"

	"repro"
)

// The basic workflow: pick a Table II workload, simulate it under two
// designs, and compare.
func Example() {
	wl, err := repro.Workload("doom3", 640, 480)
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()
	base, err := repro.SimulateContext(ctx, wl, repro.WithDesign(repro.Baseline))
	if err != nil {
		log.Fatal(err)
	}
	atfim, err := repro.SimulateContext(ctx, wl, repro.WithDesign(repro.ATFIM))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("A-TFIM speedup: %.2fx\n",
		float64(base.Cycles())/float64(atfim.Cycles()))
}

// Sweeping the Section VII-D camera-angle thresholds to choose an
// operating point on the performance-quality curve.
func ExampleSimulateContext_angleThreshold() {
	wl, _ := repro.Workload("hl2", 640, 480)
	ctx := context.Background()
	base, _ := repro.SimulateContext(ctx, wl, repro.WithDesign(repro.Baseline))
	for _, th := range []float32{repro.Angle001Pi, repro.Angle005Pi} {
		res, err := repro.SimulateContext(ctx, wl,
			repro.WithDesign(repro.ATFIM), repro.WithAngleThreshold(th))
		if err != nil {
			log.Fatal(err)
		}
		psnr, _ := repro.PSNR(base.Image, res.Image)
		fmt.Printf("threshold %.4f: %.2fx at %.1f dB\n",
			th, float64(base.Cycles())/float64(res.Cycles()), psnr)
	}
}

// Regenerating one of the paper's figures over a workload set.
func ExampleRegistry() {
	exp, err := repro.Registry().Run(context.Background(), "fig12", repro.MiniSet())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(exp.Table.String())
	fmt.Printf("S-TFIM average traffic: %.2fx baseline\n",
		exp.Summary["avg_traffic_stfim"])
}

// Writing a rendered frame to disk for inspection.
func ExampleWritePNG() {
	wl, _ := repro.Workload("riddick", 640, 480)
	res, err := repro.SimulateContext(context.Background(), wl, repro.WithDesign(repro.BPIM))
	if err != nil {
		log.Fatal(err)
	}
	f, err := os.Create("frame.png")
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	if err := repro.WritePNG(f, res.Image, wl.Width, wl.Height); err != nil {
		log.Fatal(err)
	}
}
