package main

// paperbench -suite: run a declarative pim-render/suite/v1 scenario file
// instead of the registry experiments. Cases fan out over the sweep workers
// (-parallel) and aggregate in declaration order, so the output is
// byte-identical to running each case's spec alone; -write-baseline and
// -check reuse the golden machinery with one baseline document per case.

import (
	"context"
	"fmt"
	"os"
	"strings"

	"repro"
	"repro/internal/golden"
)

// suiteFlags is the -suite mode parameterization (shared flags resolved in
// main: parallelism, shards and store ride on ctx's engine).
type suiteFlags struct {
	path       string
	tags       string
	tier       string
	difficulty string
	jsonOut    bool
	csvOut     bool
	writeBase  string
	checkDir   string
	relTol     float64
}

// runSuite executes the suite and reports whether the run failed.
func runSuite(ctx context.Context, f suiteFlags) bool {
	su, err := repro.LoadSuite(f.path)
	if err != nil {
		fatal(err)
	}
	filter := repro.SuiteFilter{Tier: f.tier, Difficulty: f.difficulty}
	for _, t := range strings.Split(f.tags, ",") {
		if t = strings.TrimSpace(t); t != "" {
			filter.Tags = append(filter.Tags, t)
		}
	}
	runner := repro.SuiteRunner{Filter: filter}
	results, err := runner.Run(ctx, su)
	if err != nil {
		fatal(err)
	}
	doc := results.ExperimentSet(su.Name)

	switch {
	case f.jsonOut:
		if err := doc.WriteJSON(os.Stdout); err != nil {
			fatal(err)
		}
	case f.csvOut:
		fmt.Println("case,cycles,fps,texture_mb,total_mb,energy_j")
		for i := range results {
			r := &results[i]
			fmt.Printf("%s,%d,%.3f,%.3f,%.3f,%.6f\n", r.Case.ID,
				r.Result.Cycles(), r.Result.Frame.FPS(1.0),
				float64(r.Result.TextureTraffic())/(1<<20),
				float64(r.Result.TotalTraffic())/(1<<20),
				r.Result.Energy.Total())
		}
	default:
		fmt.Printf("suite %s: %d/%d cases selected\n", su.Name, len(results), len(su.Cases))
		fmt.Printf("%-24s %-28s %12s %8s %10s %10s\n",
			"case", "spec", "cycles", "fps", "tex MB", "energy J")
		for i := range results {
			r := &results[i]
			fmt.Printf("%-24s %-28s %12d %8.2f %10.2f %10.4f\n",
				r.Case.ID, r.Case.Spec.Label(), r.Result.Cycles(),
				r.Result.Frame.FPS(1.0),
				float64(r.Result.TextureTraffic())/(1<<20),
				r.Result.Energy.Total())
		}
	}

	if f.writeBase != "" {
		n, err := golden.WriteBaselines(f.writeBase, doc)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "paperbench: wrote %d case baselines to %s\n", n, f.writeBase)
	}
	failed := false
	if f.checkDir != "" {
		rep, err := golden.Check(f.checkDir, doc, su.Tolerance(golden.Tolerance{Rel: f.relTol}))
		if err != nil {
			fatal(err)
		}
		rep.Write(os.Stderr)
		if rep.Failed() {
			failed = true
		}
	}
	return failed
}
