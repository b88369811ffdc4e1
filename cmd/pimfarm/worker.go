package main

// pimfarm worker: the pull side of the distributed farm. A worker process
// long-polls the coordinator for leases, simulates each granted job with the
// same execGrant local mode's in-process worker runs (shared store →
// compute → store write), and streams progress and the encoded result back
// over HTTP. Heartbeats renew the lease while the simulation runs; if the
// coordinator declares the lease gone (job canceled, or this worker was
// presumed dead), execution is aborted promptly.

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/farm/dist"
	"repro/internal/obs"
	"repro/internal/obs/dtrace"
	"repro/internal/obs/slogx"
	"repro/internal/store"
	"repro/internal/suite"
)

// workerMain is the `pimfarm worker` entry point.
func workerMain(args []string) {
	fs := flag.NewFlagSet("pimfarm worker", flag.ExitOnError)
	var (
		coordURL = fs.String("coordinator", "", "coordinator base URL (required), e.g. http://localhost:8080")
		id       = fs.String("id", "", "worker identity shown in GET /v1/workers (default host-pid)")
		storeDir = fs.String("store", "", "durable result-store directory; share it with the coordinator so results are warm hits everywhere")
		jobs     = fs.Int("jobs", 1, "leases executed concurrently")
		shards   = fs.Int("shards", 0, "frame tile-scan shards per simulation (0 = GOMAXPROCS)")
		logLevel = fs.String("log-level", "info", "log verbosity: debug, info, warn, or error")
		version  = fs.Bool("version", false, "print version and exit")
	)
	_ = fs.Parse(args)
	if *version {
		fmt.Printf("pimfarm worker %s (%s)\n", obs.Version(), obs.GoVersion())
		return
	}
	if *coordURL == "" {
		fatal(fmt.Errorf("worker: -coordinator URL is required"))
	}
	level, err := slogx.ParseLevel(*logLevel)
	if err != nil {
		fatal(err)
	}
	log := slogx.New(os.Stderr, slogx.Options{Level: level, Timestamps: true})
	slog.SetDefault(log)
	if *id == "" {
		host, _ := os.Hostname()
		if host == "" {
			host = "worker"
		}
		*id = fmt.Sprintf("%s-%d", host, os.Getpid())
	}

	st := openStore(log, store.Config{Dir: *storeDir})
	engine := core.NewEngine(core.EngineConfig{Store: st, Shards: *shards})
	ctx, stop := signal.NotifyContext(core.WithEngine(context.Background(), engine), os.Interrupt, syscall.SIGTERM)
	defer stop()

	w := &dist.Worker{
		Client: &dist.Client{Base: *coordURL, Worker: *id},
		Slots:  *jobs,
		Log:    log,
		Exec:   execGrant,
	}
	log.Info("worker starting", "id", *id, "coordinator", *coordURL,
		"jobs", *jobs, "version", obs.Version())
	if err := w.Run(ctx); err != nil && ctx.Err() == nil {
		fatal(err)
	}
	log.Info("worker stopped", "id", *id)
}

// openStore opens the durable result store and logs its size; without a
// directory (no -store) there is none. Every pimfarm process builds its
// core engine over it, so whichever worker simulates a job — a remote one
// or local mode's in-process one — writes its result once through
// execGrant's store → compute → write chain, and a job another node
// already computed is a disk hit there. A coordinator's farm only reads
// the store (core.StoreTier).
func openStore(log *slog.Logger, cfg store.Config) *store.Store {
	if cfg.Dir == "" {
		return nil
	}
	st, err := store.Open(cfg)
	if err != nil {
		fatal(err)
	}
	log.Info("store open", "dir", st.Dir(), "entries", st.Len(), "bytes", st.Size())
	return st
}

// startWorker runs w on engine e (nil for core's default) until the
// returned stop function is called; stop returns once every lease loop
// has exited.
func startWorker(e *core.Engine, w *dist.Worker) (stop func()) {
	ctx, cancel := context.WithCancel(core.WithEngine(context.Background(), e))
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = w.Run(ctx)
	}()
	return func() {
		cancel()
		<-done
	}
}

// execGrant simulates one leased job — the one place a spec becomes a
// core.RunPayload call, for remote workers and for local mode's in-process
// worker alike. It ships the exact bytes the store chain read or wrote: a
// disk hit is never re-encoded and a computed result is encoded once. The
// worker keeps no results in memory; the coordinator's farm LRU is the
// serving path's memory tier. The grant spec is the canonical
// pim-render/spec/v1 document (suite.Spec) the coordinator accepted, the
// result payload the pim-render/result/v1 document the coordinator
// decodes. Decoding is lenient (unknown fields ignored) so a slightly
// newer coordinator can still feed an older worker; the spec then
// re-resolves through the same Spec → Options/CacheKey mapping the
// coordinator used, and the worker refuses a grant whose spec keys
// differently (simulator version skew). Simulation progress flows through
// the progress callback, which the coordinator republishes onto the job's
// SSE stream. A spec with "profile": true also returns its
// pim-render/frameprofile/v1 document — when the job really simulated;
// a store hit has no frame anatomy to report.
//
// When the grant carried a sampled trace context, dist.Worker put a span
// recorder on ctx: the resolve/tiers/run/simulate-stage spans recorded
// here, and the encode span core records inside "run" when it encodes,
// ship back to the coordinator inside the completion request and become
// the worker half of GET /v1/jobs/{id}/trace. The "tiers" span is the
// store lookup — everything before the first progress callback, or the
// whole run on a warm hit. Recording is
// observational-only — it never touches the cache key or the result.
func execGrant(ctx context.Context, g *dist.Grant, progress func(any)) (payload, profile []byte, err error) {
	rec := dtrace.RecorderFrom(ctx)
	resolveStart := time.Now()
	var req suite.Spec
	if err := json.Unmarshal(g.Spec, &req); err != nil {
		return nil, nil, fmt.Errorf("decode spec: %w", err)
	}
	rv, err := req.Resolve()
	if err != nil {
		return nil, nil, err
	}
	rec.Span("worker", "resolve", resolveStart, time.Now(), nil)
	if rv.Key != g.Key {
		return nil, nil, fmt.Errorf("spec keys to %q but lease granted %q (simulator version skew?)", rv.Key, g.Key)
	}
	opts := rv.Options
	var stages *dtrace.StageTracker
	if rec != nil {
		stages = &dtrace.StageTracker{}
	}
	opts.Progress = func(p core.Progress) {
		stages.Observe(p.Frame, string(p.Stage), time.Now())
		progress(p)
	}
	var fp *obs.FrameProfile
	if req.Profile {
		fp = &obs.FrameProfile{}
		opts.Profile = fp
	}
	start := time.Now()
	_, payload, err = core.RunPayload(ctx, rv.Workload, opts)
	if rec != nil {
		end := time.Now()
		var attrs map[string]string
		if err != nil {
			attrs = map[string]string{"error": err.Error()}
		}
		rec.Span("worker", "run", start, end, attrs)
		if first, ok := stages.FirstSeen(); ok {
			rec.Span("worker", "tiers", start, first, nil)
		} else if err == nil {
			rec.Span("worker", "tiers", start, end, map[string]string{"hit": "true"})
		}
		stages.Flush(rec, "simulate")
	}
	if err != nil {
		return nil, nil, err
	}
	slogx.From(ctx).Debug("job simulated", "job", g.Job, "key", g.Key,
		"dur", time.Since(start).Round(time.Millisecond).String())
	if fp != nil && len(fp.Frames) > 0 {
		if profile, err = json.Marshal(fp); err != nil {
			return nil, nil, fmt.Errorf("encode profile: %w", err)
		}
	}
	return payload, profile, nil
}
