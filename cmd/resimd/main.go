// Resimd runs one node of the sharded sweep service: the coordinator that
// accepts sweep jobs and shards their design points across workers by
// trace key, or a worker that simulates assigned key-groups and streams
// per-point results back.
//
// A minimal two-worker cluster on one machine:
//
//	resimd -role coordinator -listen :9090
//	resimd -role worker -coordinator localhost:9090 -name w1
//	resimd -role worker -coordinator localhost:9090 -name w2
//
// Clients submit sweeps with resim.Session.SweepRemote (or a session built
// with resim.WithCoordinator); see the README's "Distributed sweeps"
// section and examples/distsweep.
//
// With -http the coordinator additionally runs the multi-tenant job
// platform (internal/jobd): a persistent job queue with an HTTP/JSON front
// door, per-tenant fair scheduling over the registered workers, and
// admission control. -journal makes submissions durable across restarts,
// -tenants configures bearer-token authentication:
//
//	resimd -role coordinator -listen :9090 -http :8080 \
//	    -journal /var/lib/resimd/jobs -tenants tenants.json
//
// Clients then use `resim jobs` or resim.Session.SubmitRemote; see the
// README's "Job service" section.
//
// Both roles maintain a trace cache. A coordinator whose -spill directory
// already holds delta-compressed trace containers (for example written by
// earlier local sweeps with the same spill directory) ships them to
// workers with the assignment, so a warm coordinator saves every worker
// the generation cost.
//
// Observability (docs/OBSERVABILITY.md): service logs go to stderr via
// log/slog (-log-format text|json), a coordinator's /metrics exposes the
// coordinator, trace-cache and job-platform families from one shared
// registry, and -pprof mounts net/http/pprof under /debug/pprof/ on the
// job API server.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/jobd"
	"repro/internal/obs"
	"repro/internal/sweepd"
	"repro/internal/tracecache"
)

func main() {
	var (
		role        = flag.String("role", "", "node role: coordinator or worker (required)")
		listen      = flag.String("listen", ":9090", "coordinator: address to listen on")
		coordinator = flag.String("coordinator", "", "worker: coordinator address to register with (required for workers)")
		name        = flag.String("name", "", "worker: name shown in coordinator logs (default: hostname)")
		parallelism = flag.Int("parallelism", 0, "worker: concurrent engines per assigned key-group (0 = GOMAXPROCS)")
		spill       = flag.String("spill", "", "trace-cache spill directory (evicted traces persist as containers)")
		cacheMB     = flag.Int64("cache-mb", 0, "trace-cache resident budget in MiB (0 = default 1 GiB)")
		retry       = flag.Duration("retry", 5*time.Second, "worker: reconnect delay after losing the coordinator (0 = exit instead)")
		ckptEvery   = flag.Uint64("checkpoint-every", 0, "worker: cycles between engine checkpoints shipped to the coordinator (0 = 65536); requeued groups resume from them")
		ckptBudget  = flag.Int64("checkpoint-budget-mb", 0, "coordinator: cap on retained resume-checkpoint MiB per job (0 = 64 MiB, -1 = unlimited); excess drops least-recently-updated points' resume state")
		verbose     = flag.Bool("v", false, "log per-point worker progress")
		logFormat   = flag.String("log-format", "text", "service log format: text or json")
		pprofOn     = flag.Bool("pprof", false, "coordinator: mount net/http/pprof under /debug/pprof/ on the job API server (requires -http)")

		httpAddr    = flag.String("http", "", "coordinator: also serve the multi-tenant job platform's HTTP API on this address (e.g. :8080)")
		journalDir  = flag.String("journal", "", "coordinator: job-platform journal directory; submissions, results and checkpoints persist here and are recovered on restart")
		journalSync = flag.Bool("journal-sync", false, "coordinator: fsync every journal write (specs, results, checkpoints) so acknowledged state survives power loss, not just process crashes; costs one fsync per result")
		tenantsFile = flag.String("tenants", "", "coordinator: JSON tenants file ({\"tenants\":[{\"name\":...,\"token\":...,\"weight\":...,\"max_in_flight\":...}]}); empty disables authentication")
		maxQueue    = flag.Int("max-queue", 0, "coordinator: max queued jobs before submissions get 429 (0 = 64)")
		tenantInFl  = flag.Int("tenant-inflight", 0, "coordinator: default per-tenant queued+running job cap (0 = 8)")
		slotsPerWkr = flag.Int("worker-slots", 0, "coordinator: concurrent groups per worker for the job platform (0 = 1)")
		telEvery    = flag.Uint64("telemetry-every", 0, "coordinator: cycles between live interval snapshots jobs stream to telemetry watchers (0 = 65536)")
		telRing     = flag.Int("telemetry-ring", 0, "coordinator: per-job telemetry snapshot ring capacity for late/slow watchers (0 = 256)")
	)
	flag.Parse()

	lg, err := obs.NewLogger(os.Stderr, *logFormat)
	if err != nil {
		log.Fatalf("resimd: %v", err)
	}

	cacheCfg := tracecache.Config{SpillDir: *spill}
	if *cacheMB > 0 {
		cacheCfg.MaxResidentBytes = *cacheMB << 20
	}
	traces := tracecache.New(cacheCfg)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	budget := *ckptBudget
	if budget > 0 {
		budget <<= 20
	}
	switch *role {
	case "coordinator":
		runCoordinator(ctx, *listen, traces, budget, lg, jobPlatformConfig{
			httpAddr:       *httpAddr,
			journalDir:     *journalDir,
			journalSync:    *journalSync,
			tenantsFile:    *tenantsFile,
			maxQueue:       *maxQueue,
			tenantInFl:     *tenantInFl,
			slotsPerWorker: *slotsPerWkr,
			telemetryEvery: *telEvery,
			telemetryRing:  *telRing,
			pprof:          *pprofOn,
		})
	case "worker":
		if *coordinator == "" {
			log.Fatal("resimd: -role worker requires -coordinator host:port")
		}
		runWorker(ctx, *coordinator, sweepd.WorkerOptions{
			Name:            workerName(*name),
			Parallelism:     *parallelism,
			Traces:          traces,
			Observer:        progressLogger(*verbose, lg),
			CheckpointEvery: *ckptEvery,
			Log:             lg.Component("worker"),
		}, *retry, lg.Component("resimd"))
	default:
		fmt.Fprintln(os.Stderr, "resimd: -role must be coordinator or worker")
		flag.Usage()
		os.Exit(2)
	}
}

// jobPlatformConfig carries the coordinator's optional job-platform flags.
type jobPlatformConfig struct {
	httpAddr       string
	journalDir     string
	journalSync    bool
	tenantsFile    string
	maxQueue       int
	tenantInFl     int
	slotsPerWorker int
	telemetryEvery uint64
	telemetryRing  int
	pprof          bool
}

// jobAPIHandler assembles the job API server's handler: the platform's
// routes, plus net/http/pprof under /debug/pprof/ when enabled.
func jobAPIHandler(platform *jobd.Platform, pprofOn bool) http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/", platform.Handler())
	if pprofOn {
		obs.RegisterPprof(mux)
	}
	return mux
}

// loopbackAddr reports whether a listen address can only be reached from
// this host: an explicit loopback IP or "localhost". The common ":8080"
// and "0.0.0.0:8080" forms bind every interface and return false.
func loopbackAddr(addr string) bool {
	host, _, err := net.SplitHostPort(addr)
	if err != nil || host == "" {
		return false
	}
	if host == "localhost" {
		return true
	}
	ip := net.ParseIP(host)
	return ip != nil && ip.IsLoopback()
}

func runCoordinator(ctx context.Context, listen string, traces *tracecache.Cache, ckptBudget int64, lg *obs.Logger, jp jobPlatformConfig) {
	rlg := lg.Component("resimd")
	// One registry for the whole node: coordinator fabric, trace cache and
	// job platform all register their families here, and the platform's
	// /metrics renders them in one scrape.
	registry := obs.NewRegistry()
	coord := sweepd.NewCoordinator()
	coord.Traces = traces
	coord.Log = lg.Component("sweepd")
	coord.CheckpointBudget = ckptBudget
	coord.Metrics = sweepd.RegisterCoordinatorMetrics(registry)
	tracecache.RegisterMetrics(registry, traces)

	// The job platform, when enabled, schedules over the coordinator's
	// registered worker pool; the hook re-dispatches queued groups the
	// moment capacity appears, and must be set before Serve.
	var platform *jobd.Platform
	var httpSrv *http.Server
	if jp.httpAddr != "" {
		var tenants []jobd.Tenant
		if jp.tenantsFile != "" {
			var err error
			tenants, err = jobd.LoadTenants(jp.tenantsFile)
			if err != nil {
				log.Fatalf("resimd: %v", err)
			}
		} else {
			rlg.Warn("resimd.auth_disabled", "detail",
				"no -tenants file; all job API requests map to tenant \"default\"")
		}
		var err error
		platform, err = jobd.New(jobd.Options{
			Pool:              coord,
			JournalDir:        jp.journalDir,
			JournalSync:       jp.journalSync,
			Tenants:           tenants,
			MaxQueue:          jp.maxQueue,
			TenantMaxInFlight: jp.tenantInFl,
			SlotsPerWorker:    jp.slotsPerWorker,
			CheckpointBudget:  ckptBudget,
			TelemetryEvery:    jp.telemetryEvery,
			TelemetryRing:     jp.telemetryRing,
			Log:               lg.Component("jobd"),
			Metrics:           registry,
		})
		if err != nil {
			log.Fatalf("resimd: %v", err)
		}
		coord.OnWorkersChanged = platform.Kick
		if jp.pprof && !loopbackAddr(jp.httpAddr) {
			rlg.Warn("resimd.pprof_exposed", "addr", jp.httpAddr, "detail",
				"profiling endpoints reachable beyond loopback; bind -http to 127.0.0.1 or front with auth")
		}
		httpSrv = &http.Server{Addr: jp.httpAddr, Handler: jobAPIHandler(platform, jp.pprof)}
		go func() {
			rlg.Event("resimd.job_api_listening", "addr", jp.httpAddr, "pprof", jp.pprof)
			if err := httpSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				log.Fatalf("resimd: job API: %v", err)
			}
		}()
	} else if jp.pprof {
		rlg.Warn("resimd.pprof_ignored", "detail", "-pprof requires -http")
	}

	go func() {
		<-ctx.Done()
		coord.Close()
	}()
	addr, err := coord.Start(listen)
	if err != nil {
		log.Fatalf("resimd: %v", err)
	}
	rlg.Event("resimd.coordinator_listening", "addr", addr)
	<-ctx.Done()
	// Shutdown order: stop accepting HTTP work, then the platform (journals
	// keep in-flight jobs recoverable), then the coordinator fabric.
	if httpSrv != nil {
		shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		httpSrv.Shutdown(shutCtx) //nolint:errcheck
		cancel()
	}
	if platform != nil {
		platform.Close()
	}
	coord.Close()
	rlg.Event("resimd.coordinator_stopped")
}

func runWorker(ctx context.Context, addr string, opts sweepd.WorkerOptions, retry time.Duration, rlg *obs.Logger) {
	// -retry sets the backoff floor; reconnect attempts then double with
	// ±25% jitter up to 16× so a fleet of workers orphaned by the same
	// coordinator crash doesn't hammer it in lockstep when it returns. A
	// connection that lived long enough to finish the handshake resets the
	// backoff — the outage is over, the next loss starts fresh.
	bo := faults.NewBackoff(retry, 16*retry, int64(os.Getpid()))
	for {
		start := time.Now()
		err := sweepd.Work(ctx, addr, opts)
		if ctx.Err() != nil {
			rlg.Event("resimd.worker_stopped")
			return
		}
		if retry <= 0 {
			log.Fatalf("resimd: worker: %v", err)
		}
		if time.Since(start) > 16*retry {
			bo.Reset()
		}
		delay := bo.Next()
		rlg.Warn("resimd.worker_lost_coordinator", "err", err,
			"attempt", bo.Attempt(), "retry_in", delay)
		select {
		case <-time.After(delay):
		case <-ctx.Done():
			rlg.Event("resimd.worker_stopped")
			return
		}
	}
}

func workerName(flagName string) string {
	if flagName != "" {
		return flagName
	}
	host, err := os.Hostname()
	if err != nil {
		return fmt.Sprintf("pid%d", os.Getpid())
	}
	return fmt.Sprintf("%s-%d", host, os.Getpid())
}

// progressLogger reports the worker's own per-point progress through the
// standard Observer hook.
func progressLogger(verbose bool, lg *obs.Logger) core.Observer {
	if !verbose {
		return nil
	}
	wlg := lg.Component("worker")
	return core.ObserverFunc(func(p core.Progress) {
		wlg.Event("resimd.point_done", "core", p.Core, "cycles", p.Cycles,
			"committed", p.Committed, "ipc", fmt.Sprintf("%.3f", p.IPC),
			"done", p.Done, "total", p.Total)
	})
}
