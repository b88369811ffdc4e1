// Command paperbench regenerates the paper's evaluation: every table and
// figure of Section VII, printed as aligned text tables (optionally CSV).
//
// Usage:
//
//	paperbench                          # all experiments on the quick workload set
//	paperbench -exp fig10               # one experiment
//	paperbench -set full                # the complete Table II sweep (slow)
//	paperbench -csv                     # machine-readable output
//	paperbench -store /var/pimstore     # persist results; reruns skip simulation
//	paperbench -write-baseline golden/  # record the current run as the golden set
//	paperbench -check golden/           # fail (exit 1) if results drift from golden
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/golden"
	"repro/internal/obs"
	"repro/internal/store"
)

func main() {
	var (
		exp       = flag.String("exp", "all", "experiment: all, or one of "+strings.Join(repro.ExperimentNames(), ", "))
		set       = flag.String("set", "quick", "workload set: mini, quick, full")
		csvOut    = flag.Bool("csv", false, "emit CSV instead of aligned tables")
		jsonOut   = flag.Bool("json", false, "emit the experiment set as JSON instead of text")
		parallel  = flag.Int("parallel", runtime.GOMAXPROCS(0), "cells each sweep simulates at once; must be at least 1 (1 = serial)")
		shards    = flag.Int("shards", 0, "frame tile-scan worker shards per simulation (0 = GOMAXPROCS, 1 = serial); results are identical at any value")
		storeDir  = flag.String("store", "", "durable result-store directory; reruns serve persisted results instead of re-simulating")
		writeBase = flag.String("write-baseline", "", "write each experiment's results as golden baselines into this directory")
		checkDir  = flag.String("check", "", "compare results against golden baselines in this directory; exit non-zero on drift")
		relTol    = flag.Float64("tolerance", golden.DefaultRelTol, "relative tolerance for -check summary-metric comparison")
		suitePath = flag.String("suite", "", "run a pim-render/suite/v1 scenario file instead of the registry experiments")
		tags      = flag.String("tags", "", "with -suite: comma list of tags a case must carry to run")
		tier      = flag.String("tier", "", "with -suite: only run cases of this tier (smoke, standard, extended)")
		difficult = flag.String("difficulty", "", "with -suite: only run cases of this difficulty")
		version   = flag.Bool("version", false, "print version and exit")
	)
	prof := obs.AddProfileFlags(flag.CommandLine)
	flag.Parse()
	if *version {
		fmt.Printf("paperbench %s (%s)\n", obs.Version(), obs.GoVersion())
		return
	}
	if err := prof.Start(); err != nil {
		fatal(err)
	}
	if *parallel < 1 {
		fatal(fmt.Errorf("-parallel must be at least 1, got %d", *parallel))
	}
	var st *store.Store
	if *storeDir != "" {
		var err error
		if st, err = store.Open(store.Config{Dir: *storeDir}); err != nil {
			fatal(err)
		}
	}
	engine := core.NewEngine(core.EngineConfig{Store: st, Shards: *shards, Parallelism: *parallel})
	defer func() {
		if err := prof.Stop(); err != nil {
			fmt.Fprintln(os.Stderr, "paperbench:", err)
		}
	}()

	// Ctrl-C cancels the in-flight sweep (through the registry's context)
	// instead of killing the process mid-simulation. The context carries
	// the engine into every sweep.
	ctx, stopSignals := signal.NotifyContext(core.WithEngine(context.Background(), engine), os.Interrupt)
	defer stopSignals()

	// -suite switches to the declarative scenario path: the suite file
	// supplies the specs, and -tags/-tier/-difficulty select cases.
	if *suitePath != "" {
		failed := runSuite(ctx, suiteFlags{
			path: *suitePath, tags: *tags, tier: *tier, difficulty: *difficult,
			jsonOut: *jsonOut, csvOut: *csvOut,
			writeBase: *writeBase, checkDir: *checkDir, relTol: *relTol,
		})
		reportSweep(engine)
		reportStore(st)
		if failed {
			// os.Exit skips the deferred profiler stop; flush it first.
			if err := prof.Stop(); err != nil {
				fmt.Fprintln(os.Stderr, "paperbench:", err)
			}
			os.Exit(1)
		}
		return
	}

	var wls []repro.WorkloadSpec
	switch strings.ToLower(*set) {
	case "mini":
		wls = repro.MiniSet()
	case "quick":
		wls = repro.QuickSet()
	case "full":
		wls = repro.FullSet()
	default:
		fatal(fmt.Errorf("unknown workload set %q (mini, quick, full)", *set))
	}

	reg := repro.Registry()
	names := reg.Names()
	if *exp != "all" {
		names = []string{*exp}
	}
	doc := obs.NewExperimentSet(strings.ToLower(*set))
	failed := false
	for _, name := range names {
		start := time.Now()
		e, err := reg.Run(ctx, name, wls)
		if err != nil {
			// Keep running the remaining experiments; report the failure
			// and exit non-zero at the end.
			fmt.Fprintf(os.Stderr, "paperbench: %s: %v\n", name, err)
			doc.Errors = append(doc.Errors, fmt.Sprintf("%s: %v", name, err))
			failed = true
			continue
		}
		doc.Experiments = append(doc.Experiments, e.JSONResult())
		if *jsonOut {
			continue
		}
		if *csvOut {
			fmt.Printf("# %s\n%s\n", e.Name, e.Table.CSV())
		} else {
			fmt.Println(e.Table.String())
		}
		if len(e.Summary) > 0 {
			fmt.Printf("summary:")
			for _, k := range sortedKeys(e.Summary) {
				fmt.Printf(" %s=%.3f", k, e.Summary[k])
			}
			fmt.Println()
		}
		// Timing goes to stderr so repeated runs (e.g. cold vs warm store)
		// produce byte-identical stdout.
		fmt.Fprintf(os.Stderr, "(%s in %v)\n", name, time.Since(start).Round(time.Millisecond))
		fmt.Println()
	}
	if *jsonOut {
		if err := doc.WriteJSON(os.Stdout); err != nil {
			fatal(err)
		}
	}
	if *writeBase != "" {
		n, err := golden.WriteBaselines(*writeBase, doc)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "paperbench: wrote %d baselines to %s\n", n, *writeBase)
	}
	if *checkDir != "" {
		rep, err := golden.Check(*checkDir, doc, golden.Tolerance{Rel: *relTol})
		if err != nil {
			fatal(err)
		}
		rep.Write(os.Stderr)
		if rep.Failed() {
			failed = true
		}
	}
	reportSweep(engine)
	reportStore(st)
	if failed {
		if err := prof.Stop(); err != nil {
			fmt.Fprintln(os.Stderr, "paperbench:", err)
		}
		os.Exit(1)
	}
}

// reportSweep prints the sweeps' parallel win: the summed cell time is
// what a serial run would have spent simulating, so cell time over the
// wall time the sweeps' fan-outs covered is the speedup the fan-out
// delivered. Static experiments, aggregation and the golden check fall
// outside that span. Goes to stderr so -csv/-json stdout stays
// machine-readable.
func reportSweep(e *core.Engine) {
	c := e.SweepCounters()
	if c.CellTime <= 0 || c.Span <= 0 {
		return
	}
	fmt.Fprintf(os.Stderr,
		"sweep: %d workers, %d cells, %v summed cell time over %v sweep wall — %.2fx vs serial\n",
		c.Workers, c.Cells, c.CellTime.Round(time.Millisecond), c.Span.Round(time.Millisecond),
		c.CellTime.Seconds()/c.Span.Seconds())
}

// reportStore summarizes durable-store traffic when -store was given: hits
// are simulations skipped entirely, misses were computed and written
// through. Stderr, like the sweep line.
func reportStore(st *store.Store) {
	if st == nil {
		return
	}
	c := st.Counters()
	fmt.Fprintf(os.Stderr,
		"store: %d hits, %d misses (%d corrupt), %d puts, %d entries / %d bytes on disk\n",
		c.Hits, c.Misses, c.Corrupt, c.Puts, c.Entries, c.Bytes)
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	return keys
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "paperbench:", err)
	os.Exit(1)
}
