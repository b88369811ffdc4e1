// Command perfbench is the repository benchmark. It renders Table II
// frames through repro.SimulateContext (frame-atfim, frame-baseline) and
// loads the README's distributed pimfarm deployment (serve-dist), checks
// every result against the committed reference, and prints one JSON
// result line. README.md in this directory documents the workloads and
// metrics; run.py builds and runs it.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
	"time"

	"repro"
)

// procStart approximates process start: set-up time is measured from here.
var procStart = time.Now()

// runLimit bounds one benchmark invocation; the run is abandoned, its
// children killed and its temporary files removed when it is reached.
const runLimit = 170 * time.Second

var workloadNames = []string{"frame-atfim", "frame-baseline", "serve-dist"}

// endToEnd and perLayer list every metric a run prints, so each run
// prints all of them; a layer a workload does not exercise reads 0.
var endToEnd = []string{
	"setup_s", "frames_per_s", "frame_ms_p50", "frame_ms_p90",
	"cpu_ms_per_frame", "alloc_mb_per_frame", "peak_rss_mb", "success_frac",
}

var perLayer = []metricDef{
	{"gpu.geometry_ms", "ms"}, {"gpu.setup_ms", "ms"}, {"gpu.fragment_ms", "ms"}, {"gpu.resolve_ms", "ms"},
	{"gpu.fragment_alloc_mb", "MB"},
	{"tfim.sample_calls", "count"}, {"tfim.sample_ms", "ms"},
	{"hmc.access_calls", "count"}, {"hmc.access_ms", "ms"},
	{"hmc.internal_calls", "count"}, {"hmc.internal_ms", "ms"},
	{"hmc.packet_calls", "count"}, {"hmc.packet_ms", "ms"},
	{"dram.access_calls", "count"}, {"dram.access_ms", "ms"},
	{"gpu.other_ms", "ms"},
	{"scene.generate_ms", "ms"}, {"runtime.gc_cpu_frac", "fraction"},
	{"sim.cycles", "cycles"}, {"texture.requests", "count"},
	{"cache.l1_hit_rate", "fraction"}, {"cache.l2_hit_rate", "fraction"},
	{"mem.offchip_mb", "MB"}, {"tfim.offload_packets", "count"},
	{"gpu.host_ns_per_tex_request", "ns"},
	{"admit.wait_ms_p50", "ms"}, {"farm.queue_ms_p50", "ms"}, {"farm.cache_hit_frac", "fraction"},
	{"farm.hit_ms_p50", "ms"}, {"dist.queue_ms_p50", "ms"}, {"dist.queue_ms_p90", "ms"},
	{"dist.lease_ms_p50", "ms"}, {"dist.wire_ms_p50", "ms"}, {"dist.requeues", "count"},
	{"suite.resolve_ms_p50", "ms"}, {"store.tiers_ms_p50", "ms"}, {"core.run_ms_p50", "ms"},
	{"core.encode_ms_p50", "ms"}, {"pimfarm.job_self_ms_p50", "ms"}, {"load.lag_ms_p90", "ms"},
	{"trace.overhead_frac", "fraction"},
}

type metricDef struct{ name, unit string }

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func newResult(attempted, failed int) *result {
	return &result{Correct: failed == 0 && attempted > 0, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
}

func (r *result) set(name string, v float64, unit string) { r.Metrics[name] = metric{v, unit} }

func median(v []float64) float64 { return summarize(v).p50 }

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) (code int) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name      = fs.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
		seed      = fs.Uint64("seed", 1, "seed for request order and arrival times")
		seconds   = fs.Int("seconds", 22, "measurement time per run")
		trace     = fs.Int("trace", 0, "1 = traced run reporting per-layer metrics, 0 = end-to-end metrics")
		refPath   = fs.String("reference", "perfbench/reference.json", "correctness reference")
		binDir    = fs.String("bin", ".bench_build/bin", "directory holding the pimfarm binary")
		workRoot  = fs.String("work", ".bench_build/run", "directory for serve-dist stores, journals and logs")
		setupOnly = fs.Bool("setup-only", false, "set up a frame workload, print its set-up seconds and exit")
		regen     = fs.Bool("regen-reference", false, "re-simulate every reference spec and rewrite -reference")
		hostFacts = fs.Bool("host-facts", false, "print nproc, GOMAXPROCS, Go version, load average and a CPU speed probe as JSON")
		rate      = fs.Float64("rate", serveRate, "serve-dist offered rate in requests/s; the requests stay those of the default rate")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeout(ctx, runLimit)
	defer cancel()

	// A panic unwinds through the deferred cluster Close calls first; it
	// is reported here as a failed run.
	defer func() {
		if p := recover(); p != nil {
			fmt.Fprintf(stderr, "perfbench: panic: %v\n%s", p, debug.Stack())
			code = 2
		}
	}()

	switch {
	case *hostFacts:
		return emit(stdout, stderr, hostInfo())
	case *regen:
		err := writeReference(ctx, *refPath, func(k string) { fmt.Fprintln(stderr, "reference:", k) })
		return report(stderr, err)
	}

	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "perfbench: -trace must be 0 or 1")
		return 2
	}
	if *seconds < 1 {
		fmt.Fprintln(stderr, "perfbench: -seconds must be at least 1")
		return 2
	}
	if *rate <= 0 {
		fmt.Fprintln(stderr, "perfbench: -rate must be positive")
		return 2
	}
	ref, err := loadReference(*refPath)
	if err != nil {
		return report(stderr, err)
	}

	var res *result
	switch *name {
	case "frame-atfim", "frame-baseline":
		fw := &frameWorkload{design: repro.ATFIM, ref: ref, log: stderr}
		if *name == "frame-baseline" {
			fw.design = repro.Baseline
		}
		switch {
		case *setupOnly:
			return report(stderr, fw.setupOnly(ctx, stdout))
		case *trace == 1:
			res, err = fw.runTraced(ctx, *seed, *seconds)
		default:
			res, err = fw.run(ctx, *name, *seed, *seconds)
		}
	case "serve-dist":
		bin, err2 := filepath.Abs(filepath.Join(*binDir, "pimfarm"))
		if err2 != nil {
			return report(stderr, err2)
		}
		if err := removeStale(*workRoot); err != nil {
			return report(stderr, err)
		}
		sw := &serveWorkload{bin: bin, workRoot: *workRoot, ref: ref, log: stderr, rate: *rate}
		if *trace == 1 {
			res, err = sw.runTraced(ctx, *seed, *seconds)
		} else {
			res, err = sw.run(ctx, *seed, *seconds)
		}
	default:
		err = fmt.Errorf("unknown workload %q (have %s)", *name, strings.Join(workloadNames, ", "))
	}
	if err != nil {
		return report(stderr, err)
	}
	if *trace == 1 {
		for _, m := range perLayer {
			if _, ok := res.Metrics[m.name]; !ok {
				res.set(m.name, 0, m.unit)
			}
		}
	} else {
		for _, m := range endToEnd {
			if _, ok := res.Metrics[m]; !ok {
				return report(stderr, fmt.Errorf("%s: metric %s not measured", *name, m))
			}
		}
	}
	return emit(stdout, stderr, res)
}

func report(stderr io.Writer, err error) int {
	if err == nil {
		return 0
	}
	if errors.Is(err, context.DeadlineExceeded) {
		err = fmt.Errorf("run exceeded %v: %w", runLimit, err)
	}
	fmt.Fprintln(stderr, "perfbench:", err)
	return 1
}

func emit(stdout, stderr io.Writer, v any) int {
	b, err := json.Marshal(v)
	if err != nil {
		return report(stderr, err)
	}
	fmt.Fprintln(stdout, string(b))
	return 0
}

// removeStale deletes serve-dist directories a killed earlier run could
// not remove.
func removeStale(workRoot string) error {
	old, err := filepath.Glob(filepath.Join(workRoot, "serve-*"))
	if err != nil {
		return err
	}
	for _, d := range old {
		if err := os.RemoveAll(d); err != nil {
			return err
		}
	}
	return nil
}

type host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	LoadAvg    string `json:"loadavg"`
	// SpinMS is the median time of a fixed single-threaded integer loop.
	// It depends on nothing but the host's CPU speed, so a change in it
	// between runs is host drift, not a change in the program.
	SpinMS float64 `json:"spin_ms"`
}

func hostInfo() host {
	h := host{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), SpinMS: spinMS()}
	if b, err := os.ReadFile("/proc/loadavg"); err == nil {
		f := strings.Fields(string(b))
		h.LoadAvg = strings.Join(f[:min(3, len(f))], " ")
	}
	return h
}

// spinSink keeps the probe loop's result live.
var spinSink uint64

// spinMS times five rounds of a fixed xorshift loop (about 0.1 s each)
// and returns the median in milliseconds.
func spinMS() float64 {
	var rounds []float64
	for i := 0; i < 5; i++ {
		start := time.Now()
		x := uint64(88172645463325252)
		for j := 0; j < 50_000_000; j++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		spinSink += x
		rounds = append(rounds, float64(time.Since(start))/1e6)
	}
	return median(rounds)
}
