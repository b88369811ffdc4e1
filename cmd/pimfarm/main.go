// Command pimfarm serves render-farm jobs over HTTP: submit a simulation
// as JSON options, poll its status, and read the pim-render/metrics/v1
// snapshot back when it finishes. Identical in-flight submissions collapse
// into one simulation and completed results are served from an LRU cache
// (farm.DefaultCacheCap entries).
//
// Usage:
//
//	pimfarm -addr :8080 -workers 8 -queue 256
//
//	curl -s localhost:8080/v1/jobs -d '{"game":"doom3","width":320,"height":240,"design":"atfim"}'
//	curl -s localhost:8080/v1/jobs/job-000001
//	curl -s localhost:8080/varz
//
// SIGINT/SIGTERM drain the server (see server.drain): admission closes,
// accepted jobs finish while workers can still report, the coordinator
// closes, the listener closes, then the process exits.
//
// -workers sizes the in-process worker and is the default number of
// admission slots (jobs inside the farm at once); -queue bounds each
// priority class's admission queue, where submissions beyond the slots
// wait.
//
// Every job runs one way: the farm hands it to a lease coordinator, and a
// worker leases it, simulates it and reports the result. By default the
// server runs that worker in-process. `pimfarm -dist` starts none and
// leases jobs to `pimfarm worker -coordinator URL` processes over HTTP
// instead. A durable journal (-journal, in either mode) replays in-flight
// jobs across server restarts:
//
//	pimfarm -dist -journal /tmp/farm -store /tmp/results &
//	pimfarm worker -coordinator http://localhost:8080 -store /tmp/results &
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/farm"
	"repro/internal/farm/admit"
	"repro/internal/farm/dist"
	"repro/internal/obs"
	"repro/internal/obs/slogx"
	"repro/internal/obs/telem"
	"repro/internal/store"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "worker" {
		workerMain(os.Args[2:])
		return
	}
	var (
		addr      = flag.String("addr", ":8080", "listen address")
		workers   = flag.Int("workers", 0, "in-process worker slots, and the -admit-slots default (0 = GOMAXPROCS, or 64 under -dist)")
		queue     = flag.Int("queue", admit.DefaultQueueDepth, "per-class admission queue depth")
		drainSecs = flag.Int("drain", 60, "max seconds to drain on shutdown before forcing")
		storeDir  = flag.String("store", "", "durable result-store directory; the in-process worker writes each computed result there and completed jobs survive restarts")
		shards    = flag.Int("shards", 0, "default frame tile-scan shards for jobs that do not set one (0 = GOMAXPROCS, 1 = serial)")
		pprofOn   = flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/ (off by default)")
		logLevel  = flag.String("log-level", "info", "log verbosity: debug, info, warn, or error")
		version   = flag.Bool("version", false, "print version and exit")
		distMode  = flag.Bool("dist", false, "coordinator mode: lease jobs to `pimfarm worker` processes instead of simulating in-process")
		leaseTTL  = flag.Duration("lease-ttl", dist.DefaultTTL, "lease duration; a worker silent this long loses its job back to the queue")
		journal   = flag.String("journal", "", "durable job-journal directory; queued and in-flight jobs replay after a server restart")

		tenants      = flag.String("tenants", "", "tenant config file (pim-render/tenants/v1 JSON: API keys, rate limits, quotas); empty admits any tenant unlimited")
		admitSlots   = flag.Int("admit-slots", 0, "admission slots: jobs concurrently inside the farm (0 = -workers)")
		admitTimeout = flag.Duration("admit-timeout", 30*time.Second, "max wait in the admission queue before a submission is shed with 429")
		traceSample  = flag.Float64("trace-sample", 1.0, "fraction of jobs given a distributed-trace timeline (GET /v1/jobs/{id}/trace); 0 disables tracing")
	)
	prof := obs.AddProfileFlags(flag.CommandLine)
	flag.Parse()
	if *version {
		fmt.Printf("pimfarm %s (%s)\n", obs.Version(), obs.GoVersion())
		return
	}
	level, err := slogx.ParseLevel(*logLevel)
	if err != nil {
		fatal(err)
	}
	log := slogx.New(os.Stderr, slogx.Options{Level: level, Timestamps: true})
	slog.SetDefault(log)
	if err := prof.Start(); err != nil {
		fatal(err)
	}
	defer func() {
		if err := prof.Stop(); err != nil {
			log.Error("profile stop", "err", err.Error())
		}
	}()

	// build_info makes every scrape self-identifying: the value is constant
	// 1 and the interesting bits ride in the labels.
	telem.Default().Gauge("pimfarm_build_info",
		"Build metadata; constant 1, with the version in labels.",
		telem.Labels{
			"version":    obs.Version(),
			"go_version": obs.GoVersion(),
			"revision":   obs.BuildRevision(),
		}).Set(1)

	st := openStore(log, store.Config{Dir: *storeDir})
	slots := *workers
	if slots <= 0 {
		slots = runtime.GOMAXPROCS(0)
		if *distMode {
			// Under -dist the slots bound jobs out on remote workers, not
			// local CPU use, so size them generously.
			slots = 64
		}
	}
	f := farm.New(farm.Config{Tier: core.StoreTier(st)})

	coord := dist.NewCoordinator(dist.Config{TTL: *leaseTTL})
	api := newServer(f, st, coord)
	api.log = log
	api.pprofOn = *pprofOn
	api.traceSample = *traceSample

	// Admission control always fronts submissions; without -tenants it
	// runs with an open tenant set (any name, no rate or quota limits). An
	// admitted job goes straight to the coordinator's class queues, which
	// are the only place it waits to run.
	ts := admit.OpenTenants()
	if *tenants != "" {
		var err error
		ts, err = admit.LoadTenants(*tenants)
		if err != nil {
			fatal(err)
		}
		log.Info("tenants loaded", "path", *tenants, "tenants", ts.Len())
	}
	admitted := *admitSlots
	if admitted <= 0 {
		admitted = slots
	}
	adm := admit.New(admit.Config{Slots: admitted, QueueDepth: *queue, Tenants: ts})
	api.enableAdmit(adm, *admitTimeout)
	log.Info("admission control", "slots", admitted, "queue_depth", *queue,
		"timeout", admitTimeout.String(), "tenants", *tenants != "")
	stopLocal := func() {}
	if *distMode {
		log.Info("distributed mode", "lease_ttl", leaseTTL.String())
	} else {
		engine := core.NewEngine(core.EngineConfig{Store: st, Shards: *shards})
		stopLocal = startWorker(engine, api.localWorker(slots))
	}
	if *journal != "" {
		jn, err := dist.OpenJournal(*journal)
		if err != nil {
			fatal(err)
		}
		api.journal = jn
		log.Info("journal open", "dir", *journal, "pending", jn.Len())
		api.replayJournal()
	}
	srv := &http.Server{Addr: *addr, Handler: api}
	errCh := make(chan error, 1)
	go func() {
		log.Info("listening", "addr", *addr, "workers", slots, "queue", *queue,
			"pprof", *pprofOn, "version", obs.Version())
		errCh <- srv.ListenAndServe()
	}()

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigCh:
		log.Info("draining", "signal", sig.String())
	case err := <-errCh:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fatal(err)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), time.Duration(*drainSecs)*time.Second)
	defer cancel()
	api.drain(ctx, srv, stopLocal)
	c := f.Counters()
	log.Info("drained", "done", c.Done, "failed", c.Failed, "canceled", c.Canceled,
		"deduped", c.Deduped, "cache_hits", c.CacheHits, "tier_hits", c.TierHits)
	if st != nil {
		sc := st.Counters()
		log.Info("store closed", "hits", sc.Hits, "misses", sc.Misses, "corrupt", sc.Corrupt,
			"puts", sc.Puts, "entries", sc.Entries, "bytes", sc.Bytes)
	}
}

// drain shuts the server down so that work a worker is finishing still
// lands. Admission closes and the farm drains while the lease endpoints
// are still served, so a remote worker mid-job can report its result.
// The in-process worker stops, then the coordinator closes, releasing
// every parked lease request, and only then does the HTTP server shut
// down — parked requests would otherwise hold it open. The journal closes
// once every job's record has settled. ctx bounds the farm drain; past it
// the shutdown is forced.
func (s *server) drain(ctx context.Context, srv *http.Server, stopLocal func()) {
	if s.admit != nil {
		s.admit.Close()
	}
	if err := s.farm.Close(ctx); err != nil {
		s.log.Error("forced farm shutdown", "err", err.Error())
	}
	stopLocal()
	cs := s.coord.Stats()
	s.coord.Close()
	s.log.Info("coordinator closed", "grants", cs.LeaseOps.Grants,
		"expires", cs.LeaseOps.Expires, "requeues", cs.LeaseOps.Requeues)
	if err := srv.Shutdown(ctx); err != nil {
		s.log.Error("http shutdown", "err", err.Error())
	}
	if s.journal != nil {
		s.settling.Wait()
		if err := s.journal.Close(); err != nil {
			s.log.Error("journal close", "err", err.Error())
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pimfarm:", err)
	os.Exit(1)
}
