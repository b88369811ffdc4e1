// Qualitysweep explores the paper's Section VII-D performance-quality
// tradeoff: it renders one workload under A-TFIM at every camera-angle
// threshold and reports speedup vs. PSNR — the data behind Figs. 14-16.
package main

import (
	"context"
	"fmt"
	"log"

	"repro"
)

func main() {
	ctx := context.Background()
	wl, err := repro.Workload("hl2", 640, 480)
	if err != nil {
		log.Fatal(err)
	}

	base, err := repro.SimulateContext(ctx, wl, repro.WithDesign(repro.Baseline))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("workload %s, baseline %d cycles\n\n", wl.Name(), base.Cycles())
	fmt.Printf("%-16s %10s %10s %12s %10s\n", "threshold", "speedup", "PSNR(dB)", "recalcs", "offloads")

	thresholds := []struct {
		label string
		value float32
	}{
		{"0.005pi (0.9deg)", repro.Angle0005Pi},
		{"0.01pi  (1.8deg)", repro.Angle001Pi},
		{"0.05pi  (9deg)", repro.Angle005Pi},
		{"0.1pi   (18deg)", repro.Angle01Pi},
		{"no-recalc", repro.AngleNoRecalc},
	}
	for _, th := range thresholds {
		res, err := repro.SimulateContext(ctx, wl,
			repro.WithDesign(repro.ATFIM), repro.WithAngleThreshold(th.value))
		if err != nil {
			log.Fatal(err)
		}
		psnr, err := repro.PSNR(base.Image, res.Image)
		if err != nil {
			log.Fatal(err)
		}
		p := res.Frame.Activity.Path
		fmt.Printf("%-16s %9.2fx %10.1f %12d %10d\n",
			th.label,
			float64(base.Cycles())/float64(res.Cycles()),
			psnr, p.AngleRecalcs, p.OffloadPackets)
	}
	fmt.Println("\nLoosening the threshold trades image fidelity for speed;")
	fmt.Println("the paper picks 0.01pi as the default operating point.")
}
