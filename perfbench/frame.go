package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro"
	"repro/internal/config"
	"repro/internal/scene"
	"repro/internal/workload"
)

// setupRepeats is how many times a run sets up; setup_s is the median.
// All but the last set-up run in short-lived child processes, because the
// simulator memoizes scenes per process.
const setupRepeats = 3

// frameWorkload renders the five Table II games at 160x120 under one
// design, one uncached SimulateContext call per frame.
type frameWorkload struct {
	design repro.Design
	ref    *reference
	log    io.Writer
}

func (fw *frameWorkload) workloads() (map[string]workload.Workload, error) {
	wls := map[string]workload.Workload{}
	for _, g := range games {
		wl, err := repro.Workload(g, frameW, frameH)
		if err != nil {
			return nil, err
		}
		wls[g] = wl
	}
	return wls, nil
}

// simulate runs one untraced frame and checks it against the reference.
func (fw *frameWorkload) simulate(ctx context.Context, wl workload.Workload) (time.Duration, *repro.Result, error) {
	start := time.Now()
	res, err := repro.SimulateContext(ctx, wl, repro.WithDesign(fw.design))
	wall := time.Since(start)
	if err != nil {
		return wall, nil, err
	}
	return wall, res, fw.ref.check(specKey(wl.Game, wl.Width, wl.Height, fw.design, 0), res.Metrics(), res.Image, true)
}

// setup builds every game's scene and warms the process with one frame of
// each game (the first SimulateContext call per game generates its scene).
// Warm-up frames are checked but not counted.
func (fw *frameWorkload) setup(ctx context.Context, wls map[string]workload.Workload) error {
	for _, g := range games {
		if _, _, err := fw.simulate(ctx, wls[g]); err != nil {
			return fmt.Errorf("set-up frame %s: %w", g, err)
		}
	}
	return nil
}

// childSetups measures set-up in fresh processes of this binary.
func childSetups(ctx context.Context, workloadName string, n int) ([]float64, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var out []float64
	for i := 0; i < n; i++ {
		cmd := exec.CommandContext(ctx, self, "-setup-only", "-workload", workloadName)
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		cmd.Stderr = os.Stderr
		b, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("set-up child: %w", err)
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(string(b)), 64)
		if err != nil {
			return nil, fmt.Errorf("set-up child output %q: %w", b, err)
		}
		out = append(out, v)
	}
	return out, nil
}

// frameTally accumulates the untraced per-frame measurements of a run.
type frameTally struct {
	latMS     []float64
	attempted int
	failed    int
	allocB    uint64
	texReqs   uint64
	wallNS    int64 // sum of per-frame walls (for host ns per texture request)
}

func (t *frameTally) record(wall time.Duration, allocB uint64, res *repro.Result, err error, log io.Writer) {
	t.attempted++
	if err != nil {
		t.failed++
		fmt.Fprintln(log, "frame failed:", err)
		return
	}
	t.latMS = append(t.latMS, float64(wall)/1e6)
	t.allocB += allocB
	t.texReqs += res.Frame.Activity.Path.TexRequests
	t.wallNS += int64(wall)
}

// run measures complete rounds (each game once, seeded order) until the
// time budget is spent, and returns the end-to-end metrics.
func (fw *frameWorkload) run(ctx context.Context, name string, seed uint64, seconds int) (*result, error) {
	children, err := childSetups(ctx, name, setupRepeats-1)
	if err != nil {
		return nil, err
	}
	wls, err := fw.workloads()
	if err != nil {
		return nil, err
	}
	if err := fw.setup(ctx, wls); err != nil {
		return nil, err
	}
	setupS := append(children, time.Since(procStart).Seconds())

	order := newRoundOrder(seed)
	var tally frameTally
	cpu0 := cpuSelf()
	start := time.Now()
	deadline := start.Add(time.Duration(seconds) * time.Second)
	for time.Now().Before(deadline) {
		for _, g := range order.next() {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			a0 := heapAllocBytes()
			wall, res, err := fw.simulate(ctx, wls[g])
			tally.record(wall, heapAllocBytes()-a0, res, err, fw.log)
		}
	}
	elapsed := time.Since(start)
	cpu := cpuSelf() - cpu0

	ok := tally.attempted - tally.failed
	lat := summarize(tally.latMS)
	fmt.Fprintf(fw.log, "frames: %d attempted, %d failed, p90 has %d samples beyond it\n",
		tally.attempted, tally.failed, lat.n-int(float64(lat.n)*0.9))
	r := newResult(tally.attempted, tally.failed)
	r.set("setup_s", median(setupS), "s")
	r.set("frames_per_s", float64(ok)/elapsed.Seconds(), "1/s")
	r.set("frame_ms_p50", lat.p50, "ms")
	r.set("frame_ms_p90", lat.p90, "ms")
	r.set("cpu_ms_per_frame", cpu.Seconds()*1e3/float64(tally.attempted), "ms")
	r.set("alloc_mb_per_frame", float64(tally.allocB)/1e6/float64(max(ok, 1)), "MB")
	r.set("peak_rss_mb", peakRSSMB(os.Getpid()), "MB")
	r.set("success_frac", float64(ok)/float64(tally.attempted), "fraction")
	return r, nil
}

// runTraced interleaves, per frame, an untraced SimulateContext call and
// the same frame through the decorated pipeline, and returns the per-layer
// metrics. Half the budget goes to each kind, so the traced run takes as
// long as an untraced one.
func (fw *frameWorkload) runTraced(ctx context.Context, seed uint64, seconds int) (*result, error) {
	wls, err := fw.workloads()
	if err != nil {
		return nil, err
	}
	scenes := map[string]*scene.Scene{}
	genStart := time.Now()
	for _, g := range games {
		scenes[g] = buildScene(wls[g])
	}
	genMS := float64(time.Since(genStart)) / 1e6
	if err := fw.setup(ctx, wls); err != nil {
		return nil, err
	}

	order := newRoundOrder(seed)
	var tally frameTally
	var traced []float64
	var sumStages stageTimes
	var sumLayers, sumWorkers layerCounts
	var shardFragNS int64
	var sim struct {
		cycles, texReqs, offload, offchip uint64
		l1Hit, l1Acc, l2Hit, l2Acc        uint64
	}
	gc0, cpuAll0 := gcCPU()
	deadline := time.Now().Add(time.Duration(seconds) * time.Second)
	for time.Now().Before(deadline) {
		for _, g := range order.next() {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			a0 := heapAllocBytes()
			wall, res, err := fw.simulate(ctx, wls[g])
			tally.record(wall, heapAllocBytes()-a0, res, err, fw.log)

			tally.attempted++
			tf, err := renderTraced(ctx, scenes[g], wls[g], config.Design(fw.design))
			if err == nil {
				key := specKey(g, frameW, frameH, fw.design, 0)
				err = fw.ref.check(key, tf.result.Metrics(), tf.result.Image, false)
			}
			if err != nil {
				tally.failed++
				fmt.Fprintln(fw.log, "traced frame failed:", err)
				continue
			}
			traced = append(traced, float64(tf.wall)/1e6)
			sumStages.geometry += tf.stages.geometry
			sumStages.setup += tf.stages.setup
			sumStages.fragment += tf.stages.fragment
			sumStages.resolve += tf.stages.resolve
			sumStages.fragmentAlloc += tf.stages.fragmentAlloc
			sumLayers.add(&tf.total)
			sumWorkers.add(&tf.workers)
			shardFragNS += int64(tf.shards) * int64(tf.stages.fragment)

			s := tf.result.Metrics()
			sim.cycles += uint64(s.Cycles)
			sim.texReqs += s.Counters["texpath.requests"]
			sim.offload += s.Counters["texpath.offload_packets"]
			sim.offchip += s.Counters["traffic.total.bytes"]
			sim.l1Hit += s.Counters["cache.texL1.hits"]
			sim.l1Acc += s.Counters["cache.texL1.accesses"]
			sim.l2Hit += s.Counters["cache.texL2.hits"]
			sim.l2Acc += s.Counters["cache.texL2.accesses"]
		}
	}
	gc1, cpuAll1 := gcCPU()

	n := float64(max(len(traced), 1))
	ms := func(ns int64) float64 { return float64(ns) / 1e6 / n }
	untracedLat, tracedLat := summarize(tally.latMS), summarize(traced)
	r := newResult(tally.attempted, tally.failed)
	r.set("gpu.geometry_ms", ms(int64(sumStages.geometry)), "ms")
	r.set("gpu.setup_ms", ms(int64(sumStages.setup)), "ms")
	r.set("gpu.fragment_ms", ms(int64(sumStages.fragment)), "ms")
	r.set("gpu.resolve_ms", ms(int64(sumStages.resolve)), "ms")
	r.set("gpu.fragment_alloc_mb", float64(sumStages.fragmentAlloc)/1e6/n, "MB")
	r.set("tfim.sample_calls", float64(sumLayers.tfimCalls)/n, "count")
	r.set("tfim.sample_ms", ms(sumLayers.tfimSelfNS), "ms")
	r.set("hmc.access_calls", float64(sumLayers.hmcAccessCalls)/n, "count")
	r.set("hmc.access_ms", ms(sumLayers.hmcAccess), "ms")
	r.set("hmc.internal_calls", float64(sumLayers.hmcIntCalls)/n, "count")
	r.set("hmc.internal_ms", ms(sumLayers.hmcIntNS), "ms")
	r.set("hmc.packet_calls", float64(sumLayers.hmcPktCalls)/n, "count")
	r.set("hmc.packet_ms", ms(sumLayers.hmcPktNS), "ms")
	r.set("dram.access_calls", float64(sumLayers.dramCalls)/n, "count")
	r.set("dram.access_ms", ms(sumLayers.dramNS), "ms")
	r.set("gpu.other_ms", ms(shardFragNS-sumWorkers.tfimSelfNS-sumWorkers.memNS()), "ms")
	r.set("scene.generate_ms", genMS, "ms")
	r.set("runtime.gc_cpu_frac", (gc1-gc0)/(cpuAll1-cpuAll0), "fraction")
	r.set("sim.cycles", float64(sim.cycles)/n, "cycles")
	r.set("texture.requests", float64(sim.texReqs)/n, "count")
	r.set("cache.l1_hit_rate", ratio(sim.l1Hit, sim.l1Acc), "fraction")
	r.set("cache.l2_hit_rate", ratio(sim.l2Hit, sim.l2Acc), "fraction")
	r.set("mem.offchip_mb", float64(sim.offchip)/1e6/n, "MB")
	r.set("tfim.offload_packets", float64(sim.offload)/n, "count")
	r.set("gpu.host_ns_per_tex_request", float64(tally.wallNS)/float64(max(tally.texReqs, 1)), "ns")
	r.set("trace.overhead_frac", tracedLat.p50/untracedLat.p50-1, "fraction")
	return r, nil
}

// setupOnly is the child-process half of setup_s: set up, print seconds.
func (fw *frameWorkload) setupOnly(ctx context.Context, out io.Writer) error {
	wls, err := fw.workloads()
	if err != nil {
		return err
	}
	if err := fw.setup(ctx, wls); err != nil {
		return err
	}
	fmt.Fprintln(out, time.Since(procStart).Seconds())
	return nil
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// gcCPU returns the process's cumulative GC CPU and total CPU seconds as
// the Go runtime estimates them.
func gcCPU() (gc, total float64) {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64()
}

// cpuSelf returns this process's user plus system CPU time.
func cpuSelf() time.Duration {
	var ru syscall.Rusage
	// RUSAGE_SELF with a valid pointer cannot fail.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
