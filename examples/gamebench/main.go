// Gamebench sweeps all five games across the four architectures — a
// condensed version of the paper's Figs. 10-13 — and prints a comparison
// matrix of rendering speedup, texture traffic and energy.
package main

import (
	"context"
	"fmt"
	"log"

	"repro"
)

func main() {
	ctx := context.Background()
	designs := []repro.Design{repro.Baseline, repro.BPIM, repro.STFIM, repro.ATFIM}

	fmt.Printf("%-18s", "workload")
	for _, d := range designs {
		fmt.Printf(" | %-24s", d)
	}
	fmt.Println()
	fmt.Printf("%-18s", "")
	for range designs {
		fmt.Printf(" | %7s %8s %7s", "render", "traffic", "energy")
	}
	fmt.Println()

	for _, game := range []string{"doom3", "fear", "hl2", "riddick", "wolf"} {
		wl, err := repro.Workload(game, 640, 480)
		if err != nil {
			log.Fatal(err)
		}
		var baseCycles int64
		var baseTraffic uint64
		var baseEnergy float64
		fmt.Printf("%-18s", wl.Name())
		for i, d := range designs {
			res, err := repro.SimulateContext(ctx, wl, repro.WithDesign(d))
			if err != nil {
				log.Fatal(err)
			}
			if i == 0 {
				baseCycles = res.Cycles()
				baseTraffic = res.TextureTraffic()
				baseEnergy = res.Energy.Total()
			}
			fmt.Printf(" | %6.2fx %7.2fx %6.2fx",
				float64(baseCycles)/float64(res.Cycles()),
				float64(res.TextureTraffic())/float64(baseTraffic),
				res.Energy.Total()/baseEnergy)
		}
		fmt.Println()
	}
	fmt.Println("\nrender: speedup over baseline (higher is better)")
	fmt.Println("traffic: texture bytes normalized to baseline (lower is better)")
	fmt.Println("energy: normalized to baseline (lower is better)")
}
