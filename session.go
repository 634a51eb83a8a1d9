package resim

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/multicore"
	"repro/internal/sweep"
	"repro/internal/trace"
	"repro/internal/tracecache"
	"repro/internal/workload"
)

// Session is the single entry point to every ReSim run mode: it holds one
// validated processor configuration and the run hooks (tracer, observer,
// telemetry and checkpoint sinks) its runs report through, and exposes
// workload simulation, trace file simulation, trace writing, parallel
// design-space sweeps and lockstep multicore clusters, all context-aware.
// Build one with New; a Session is immutable and safe for concurrent use —
// each run owns its engine, and every engine builds its own caches from the
// configuration's memory-system geometry. The hooks are shared across runs
// and stay the caller's to synchronize.
type Session struct {
	cfg Config
	// hooks are every run's callbacks (WithPipeTracer, WithObserver,
	// WithTelemetry, WithCheckpointEvery); each run mode takes the ones
	// it supports.
	hooks core.Hooks
	// traces memoizes generated workload traces across runs, sweeps and
	// clusters; nil disables caching (streaming regeneration per run).
	traces *tracecache.Cache
	// coordURL, when non-empty, routes Sweep through the job service at
	// that base URL instead of a local sweep.Runner (WithCoordinator).
	coordURL string
	// resume, when non-nil, starts single-engine runs from a restored
	// checkpoint instead of cycle 0 (ResumeFrom).
	resume *core.Checkpoint
}

// settings is the mutable state the functional options operate on before
// New validates it once.
type settings struct {
	cfg   Config
	hooks core.Hooks
	// portsSet records an explicit memory-port choice (WithMemoryPorts or
	// WithConfig); without one, New clamps the default read-port count to
	// the organization's limit so e.g. New(WithWidth(2)) stays valid under
	// the Optimized organization.
	portsSet bool
	traces   *tracecache.Cache
	// tracesSet distinguishes WithTraceCache(nil) — caching explicitly off —
	// from the default of the process-wide shared cache.
	tracesSet bool
	coordURL  string
	resume    *core.Checkpoint
}

// Option configures a Session under construction. Options are applied in
// order; later options override earlier ones.
type Option func(*settings) error

// New builds a Session from the paper's default 4-wide configuration plus
// the given options, validating the composed configuration exactly once.
func New(opts ...Option) (*Session, error) {
	s := settings{cfg: core.DefaultConfig()}
	for _, opt := range opts {
		if opt == nil {
			continue
		}
		if err := opt(&s); err != nil {
			return nil, err
		}
	}
	if !s.portsSet {
		if max := s.cfg.Organization.MaxMemPorts(s.cfg.Width); max >= 1 && s.cfg.MemReadPorts > max {
			s.cfg.MemReadPorts = max
		}
	}
	if err := s.cfg.Validate(); err != nil {
		return nil, err
	}
	if !s.tracesSet {
		s.traces = tracecache.Shared()
	}
	return &Session{cfg: s.cfg, hooks: s.hooks, traces: s.traces,
		coordURL: s.coordURL, resume: s.resume}, nil
}

// WithConfig replaces the whole simulated-machine configuration; apply it
// before field-level options such as WithWidth, which it would otherwise
// overwrite. Hook options (WithPipeTracer, WithObserver, WithTelemetry,
// WithCheckpointEvery) hold no configuration and survive it in either
// order. The configuration is taken as-is (no automatic memory-port
// clamping).
func WithConfig(cfg Config) Option {
	return func(s *settings) error {
		s.cfg = cfg
		s.portsSet = true
		return nil
	}
}

// WithWidth sets N: fetch, dispatch, issue, writeback and commit bandwidth.
func WithWidth(n int) Option {
	return func(s *settings) error { s.cfg.Width = n; return nil }
}

// WithIFQSize sets the instruction fetch queue depth.
func WithIFQSize(n int) Option {
	return func(s *settings) error { s.cfg.IFQSize = n; return nil }
}

// WithRBSize sets the reorder buffer depth.
func WithRBSize(n int) Option {
	return func(s *settings) error { s.cfg.RBSize = n; return nil }
}

// WithLSQSize sets the load/store queue depth.
func WithLSQSize(n int) Option {
	return func(s *settings) error { s.cfg.LSQSize = n; return nil }
}

// WithOrganization selects the internal minor-cycle pipeline (§IV).
func WithOrganization(org Organization) Option {
	return func(s *settings) error { s.cfg.Organization = org; return nil }
}

// WithPredictor configures the simulated branch predictor (and turns
// perfect branch prediction off).
func WithPredictor(pc PredictorConfig) Option {
	return func(s *settings) error {
		s.cfg.Predictor = pc
		s.cfg.PerfectBP = false
		return nil
	}
}

// WithPerfectBP selects perfect branch prediction (Table 1, right portion).
func WithPerfectBP() Option {
	return func(s *settings) error { s.cfg.PerfectBP = true; return nil }
}

// WithL1Caches attaches timing-only L1 instruction and data caches sharing
// the given geometry (they are named "il1" and "dl1" in reports) and no L2.
// Every engine the session builds gets its own cold caches, so concurrent
// or repeated runs never share tag state and stay deterministic. Set
// Config.ICache and Config.DCache through WithConfig for anything else: an
// L2, different sides, or a perfect-memory latency.
func WithL1Caches(cc CacheConfig) Option {
	return func(s *settings) error {
		icc, dcc := cc, cc
		icc.Name, dcc.Name = "il1", "dl1"
		if err := icc.Validate(); err != nil {
			return err
		}
		s.cfg.ICache, s.cfg.DCache = cache.Side{L1: icc}, cache.Side{L1: dcc}
		return nil
	}
}

// WithMemoryPorts sets the per-cycle load-issue and store-commit port
// counts explicitly, disabling New's automatic read-port clamping.
func WithMemoryPorts(read, write int) Option {
	return func(s *settings) error {
		s.cfg.MemReadPorts = read
		s.cfg.MemWritePorts = write
		s.portsSet = true
		return nil
	}
}

// WithPenalties sets the misfetch and mis-speculation fetch bubbles.
func WithPenalties(misfetch, mispred int) Option {
	return func(s *settings) error {
		s.cfg.MisfetchPenalty = misfetch
		s.cfg.MispredPenalty = mispred
		return nil
	}
}

// WithFUs configures the functional-unit pools.
func WithFUs(fu FUConfig) Option {
	return func(s *settings) error { s.cfg.FUs = fu; return nil }
}

// WithMaxCycles bounds a run's simulated major cycles (0 = no limit).
func WithMaxCycles(n uint64) Option {
	return func(s *settings) error { s.cfg.MaxCycles = n; return nil }
}

// WithPipeTracer installs a per-instruction pipeline event hook (the
// sim-outorder "ptrace" facility; see internal/ptrace) on single-engine runs
// (RunWorkload, RunTrace, RunSource). Sweeps and multicore clusters do not
// pipe-trace: their engines each number instructions from 0, so one
// tracer could not tell them apart.
func WithPipeTracer(pt PipeTracer) Option {
	return func(s *settings) error { s.hooks.PipeTracer = pt; return nil }
}

// WithObserver installs a progress observer invoked every everyCycles major
// cycles of a run (0 = a default interval). Sweeps report one callback per
// completed point; multicore clusters report the lockstep aggregate.
func WithObserver(obs Observer, everyCycles uint64) Option {
	return func(s *settings) error {
		s.hooks.Observer = obs
		s.hooks.ObserverEvery = everyCycles
		return nil
	}
}

// WithTelemetry streams per-interval engine telemetry: sink receives an
// IntervalSnapshot — the window delta of every counter, cache statistic and
// occupancy, plus window IPC and miss rates — at every everyCycles boundary
// of a run (0 = a default interval; boundaries are absolute cycle
// multiples, like observer callbacks). Single-engine runs deliver snapshots
// with Core 0 and a sink error aborts the run. Sweeps through this session
// (local and remote) stream every in-flight point's snapshots tagged with
// the point's job-wide index in Snapshot.Core; delivery there is
// fire-and-forget and may be concurrent across points, so the sink must be
// safe for concurrent use and its error is ignored. A remote sweep streams
// at the job service's cadence (`resimd -telemetry-every`), not
// everyCycles, and a snapshot the service's bounded buffer dropped never
// arrives. Multicore clusters do not stream telemetry.
func WithTelemetry(sink func(IntervalSnapshot) error, everyCycles uint64) Option {
	return func(s *settings) error {
		if sink == nil {
			return fmt.Errorf("resim: WithTelemetry needs a sink")
		}
		s.hooks.Telemetry = sink
		s.hooks.TelemetryEvery = everyCycles
		return nil
	}
}

// WithTraceCache selects the trace cache the session's runs, sweeps and
// clusters share. Sessions default to the process-wide shared cache
// (resim.SharedTraceCache), so every session reuses one set of generated
// traces. Pass a private cache to isolate a session (its own memory budget
// or spill directory), or nil to disable caching entirely and regenerate
// the trace on every run (streaming, nothing materialized).
func WithTraceCache(tc *TraceCache) Option {
	return func(s *settings) error {
		s.traces = tc
		s.tracesSet = true
		return nil
	}
}

// WithCheckpointEvery makes single-engine runs (RunWorkload, RunTrace,
// RunSource) serialize their complete engine state at every everyCycles
// boundary (0 = a default interval) and hand each Checkpoint to sink — save
// it with SaveCheckpoint and a killed run resumes bit-exactly via
// ResumeFrom. Boundaries are absolute cycle multiples, so checkpoint cycles
// are deterministic across runs. A sink error aborts the run.
func WithCheckpointEvery(everyCycles uint64, sink func(*Checkpoint) error) Option {
	return func(s *settings) error {
		if sink == nil {
			return fmt.Errorf("resim: WithCheckpointEvery needs a sink")
		}
		s.hooks.CheckpointEvery = everyCycles
		s.hooks.Checkpoint = sink
		return nil
	}
}

// ResumeFrom makes the session's single-engine runs (RunWorkload, RunTrace,
// RunSource) restore cp and continue from its cycle instead of starting at
// cycle 0. The run must be given the same input (workload name and
// instruction budget, or trace file) and the session the same
// simulated-machine configuration the checkpoint was captured under;
// mismatches fail at run start. Combined with WithCheckpointEvery the
// resumed run re-checkpoints on the same absolute boundaries, so its final
// statistics are byte-identical to an uninterrupted run's.
func ResumeFrom(cp *Checkpoint) Option {
	return func(s *settings) error {
		if cp == nil {
			return fmt.Errorf("resim: ResumeFrom needs a checkpoint")
		}
		s.resume = cp
		return nil
	}
}

// WithCoordinator routes the session's Sweep calls through the job service
// at server, its base URL (e.g. "http://coordinator:8080", as served by
// `resimd -role coordinator`), exactly as SweepRemote: points are sharded
// by trace key across the coordinator's registered workers and results
// return in point order. The empty URL restores the default local sweep.
// Other run modes are unaffected.
func WithCoordinator(server string) Option {
	return func(s *settings) error {
		s.coordURL = server
		return nil
	}
}

// Config returns the session's validated configuration.
func (s *Session) Config() Config { return s.cfg }

// RunWorkload simulates up to limit correct-path instructions of the named
// synthetic workload through the engine. The trace comes from the session's
// trace cache when the budget is cacheable — repeated runs (and concurrent
// sessions sharing the cache) replay one generated trace — and is otherwise
// generated on the fly (the functional-simulator coupling of the paper's
// future work).
func (s *Session) RunWorkload(ctx context.Context, name string, limit uint64) (Result, error) {
	p, err := workload.ByName(name)
	if err != nil {
		return Result{}, err
	}
	src, startPC, err := tracecache.SourceFor(ctx, s.traces, p, s.cfg.TraceConfig(), limit)
	if err != nil {
		return Result{}, err
	}
	return s.runSource(ctx, src, startPC, fmt.Sprintf("workload:%s/n=%d", name, limit))
}

// RunSource simulates an arbitrary record source starting at startPC. A
// session built with ResumeFrom instead restores the checkpoint and
// continues from its cycle — src must then yield the identical record
// stream the checkpointed run consumed (startPC is taken from the
// checkpoint). Unlike RunWorkload and RunTrace, an arbitrary source has no
// identity the session could stamp into checkpoints or validate on resume;
// matching checkpoint and source is the caller's responsibility here.
func (s *Session) RunSource(ctx context.Context, src Source, startPC uint32) (Result, error) {
	return s.runSource(ctx, src, startPC, "")
}

// runSource is the shared single-engine run path. inputTag identifies the
// record stream when the caller knows it: captured checkpoints carry it,
// and a ResumeFrom checkpoint carrying a different tag is rejected before
// any simulation — resuming against the wrong input must fail loudly, not
// produce plausible wrong statistics. Empty tags (RunSource, or checkpoints
// captured below the session layer) skip the check.
func (s *Session) runSource(ctx context.Context, src Source, startPC uint32, inputTag string) (Result, error) {
	cfg := s.cfg
	h := s.hooks
	if sink := h.Checkpoint; sink != nil {
		h.Checkpoint = func(cp *core.Checkpoint) error {
			cp.Input = inputTag
			return sink(cp)
		}
	}
	var eng *core.Engine
	var err error
	if s.resume != nil {
		if s.resume.Input != "" && inputTag != "" && s.resume.Input != inputTag {
			return Result{}, fmt.Errorf("resim: checkpoint was captured from %q, this run simulates %q", s.resume.Input, inputTag)
		}
		eng, err = core.Restore(cfg, src, s.resume)
	} else {
		eng, err = core.New(cfg, src, startPC)
	}
	if err != nil {
		return Result{}, err
	}
	return eng.RunHooks(ctx, h)
}

// RunTrace opens a trace container previously produced by WriteTrace or
// cmd/tracegen — the format is auto-detected — and simulates it.
func (s *Session) RunTrace(ctx context.Context, path string) (Result, error) {
	f, err := os.Open(path)
	if err != nil {
		return Result{}, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return Result{}, err
	}
	tr, err := trace.ReadTrailer(f, fi.Size())
	if err != nil {
		return Result{}, err
	}
	src, err := trace.Open(f)
	if err != nil {
		return Result{}, err
	}
	// The tag combines the file's base name (stable across directories)
	// with its start PC and trailer (record count and payload CRC), so
	// both a renamed trace and a same-named file with different records
	// fail resume loudly rather than risking a silent wrong-stream attach.
	pc := src.Header().StartPC
	tag := fmt.Sprintf("trace:%s@pc=%#x/records=%d/crc=%08x", filepath.Base(path), pc, tr.Records, tr.CRC)
	return s.runSource(ctx, src, pc, tag)
}

// WriteTrace generates a ReSim trace for the named workload into w
// (container format: header + bit-packed B/M/O records; compress selects
// the delta-coded container, typically ~1.4x smaller). The session's
// predictor configuration drives wrong-path block generation, mirroring
// sim-bpred. A cacheable write goes through the session's trace cache —
// writing the same workload twice (raw then compressed, say) generates
// once — and uncacheable budgets stream straight from the functional
// simulator. The context is polled periodically; a cancelled write returns
// ctx.Err().
func (s *Session) WriteTrace(ctx context.Context, w io.Writer, name string, limit uint64, compress bool) (TraceStats, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	p, err := workload.ByName(name)
	if err != nil {
		return TraceStats{}, err
	}
	src, startPC, err := tracecache.SourceFor(ctx, s.traces, p, s.cfg.TraceConfig(), limit)
	if err != nil {
		return TraceStats{}, err
	}
	sink, err := trace.NewWriter(w, trace.Header{StartPC: startPC}, compress)
	if err != nil {
		return TraceStats{}, err
	}
	var wrongPath uint64
	for n := 1; ; n++ {
		if n%core.CtxCheckInterval == 0 {
			if err := ctx.Err(); err != nil {
				return TraceStats{}, err
			}
		}
		r, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return TraceStats{}, err
		}
		if r.Tag {
			wrongPath++
		}
		if err := sink.Write(r); err != nil {
			return TraceStats{}, err
		}
	}
	if err := sink.Close(); err != nil {
		return TraceStats{}, err
	}
	return TraceStats{
		Records:      sink.Records(),
		WrongPath:    wrongPath,
		Bits:         sink.BitsWritten(),
		BitsPerInstr: sink.BitsPerRecord(),
	}, nil
}

// Sweep simulates every design point over the named workload in parallel
// (the paper's bulk design-space exploration use case); results come back
// in point order, deterministic regardless of parallelism. Each point
// carries its own full configuration — derive them with SweepGrid. The
// session's observer, when set, receives one callback per completed point
// (Progress.Done / Progress.Total carry sweep completion); cancelling the
// context aborts in-flight engines and returns ctx.Err() once every engine
// has drained.
//
// A local sweep runs one sweep.Runner over every point, up to GOMAXPROCS
// engines at once; points sharing a trace key share one generation
// through the session's trace cache. A session built WithCoordinator
// instead submits the points to that job service (SweepRemote). Both
// paths return results in point order and give the observer the same
// contract; requeueing a dead worker's points and shipping checkpoints
// exist only for remote workers.
func (s *Session) Sweep(ctx context.Context, workloadName string, instructions uint64, points []SweepPoint) ([]SweepResult, error) {
	if s.coordURL != "" {
		return s.SweepRemote(ctx, s.coordURL, workloadName, instructions, points)
	}
	p, err := workload.ByName(workloadName)
	if err != nil {
		return nil, err
	}
	r := sweep.Runner{
		Workload:     p,
		Instructions: instructions,
		Observer:     s.hooks.Observer,
		Traces:       s.traces,
	}
	if sink := s.hooks.Telemetry; sink != nil {
		// The same zero-means-default cadence rule single runs use.
		r.TelemetryEvery = s.hooks.TelemetryEvery
		if r.TelemetryEvery == 0 {
			r.TelemetryEvery = core.DefaultObserverInterval
		}
		// The runner stamps the point index into snap.Core.
		r.OnTelemetry = func(_ int, snap core.IntervalSnapshot) {
			sink(snap) //nolint:errcheck // sweep telemetry is fire-and-forget
		}
	}
	return r.Run(ctx, points)
}

// SweepRemote runs the sweep on the job service at server, its base URL
// (e.g. "http://coordinator:8080", as served by `resimd -role
// coordinator`), and blocks until it finishes: SubmitRemote with no token
// at priority 0, then JobHandle.Results. The job is admitted and
// fair-scheduled like any other, so a service with tenants configured
// refuses it; use SubmitRemote with a token there. Result ordering and
// the observer contract match Sweep: the session's observer receives one
// callback per point as its result streams in, with Done counting the
// points received so far against Total, and Final on the last. With
// WithTelemetry the session sink follows the job's telemetry stream at
// the service's cadence. Cancelling ctx cancels the job on the service.
func (s *Session) SweepRemote(ctx context.Context, server, workloadName string, instructions uint64, points []SweepPoint) ([]SweepResult, error) {
	h, err := s.SubmitRemote(ctx, server, workloadName, instructions, points, nil)
	if err != nil {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		return nil, err
	}
	tctx, stopTelemetry := context.WithCancel(ctx)
	defer stopTelemetry()
	var telemetry sync.WaitGroup
	if sink := s.hooks.Telemetry; sink != nil {
		telemetry.Add(1)
		go func() {
			defer telemetry.Done()
			h.Telemetry(tctx, func(snap IntervalSnapshot) error { //nolint:errcheck // ends with the job
				sink(snap) //nolint:errcheck // sweep telemetry is fire-and-forget
				return nil
			})
		}()
	}
	res, err := h.results(ctx, s.hooks.Observer)
	if err != nil {
		stopTelemetry()
	}
	telemetry.Wait()
	if ctx.Err() != nil {
		// The job outlives a dropped stream, so cancel it explicitly.
		cctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		h.Cancel(cctx) //nolint:errcheck // best effort; the caller's error is ctx's
		cancel()
		return nil, ctx.Err()
	}
	return res, err
}

// Multicore runs one ReSim instance per workload in lockstep major cycles —
// the paper's future-work mode of fitting multiple instances in one FPGA
// (§VI). Every core uses the session's configuration (width, predictor,
// organization). The session's observer, when set, receives cluster
// aggregates (Progress.Core = -1). Clusters step their engines cycle by
// cycle, so they neither pipe-trace nor stream telemetry: a WithPipeTracer
// tracer sees nothing of them.
func (s *Session) Multicore(ctx context.Context, opts MulticoreOptions) (MulticoreResult, error) {
	if len(opts.Workloads) == 0 {
		return MulticoreResult{}, fmt.Errorf("resim: no workloads given")
	}
	coreCfg := s.cfg
	if opts.SharedL2 != nil || opts.L1 != nil {
		if opts.SharedL2 == nil || opts.L1 == nil {
			return MulticoreResult{}, fmt.Errorf("resim: L1 and SharedL2 go together; set both or neither")
		}
		coreCfg.DCache = cache.Side{L1: *opts.L1, L2: *opts.SharedL2}
	}
	profiles := make([]workload.Profile, len(opts.Workloads))
	for i, name := range opts.Workloads {
		p, err := workload.ByName(name)
		if err != nil {
			return MulticoreResult{}, err
		}
		profiles[i] = p
	}
	specs, err := clusterSpecs(ctx, s.traces, profiles, coreCfg, opts.Limit)
	if err != nil {
		return MulticoreResult{}, err
	}
	cl, err := multicore.New(specs)
	if err != nil {
		return MulticoreResult{}, err
	}
	if s.hooks.Observer != nil {
		cl.Observe(s.hooks.Observer, s.hooks.ObserverEvery)
	}
	// WithMaxCycles bounds the lockstep cycle count, same as single runs.
	return cl.Run(ctx, s.cfg.MaxCycles)
}

// clusterSpecs builds one core per profile, in order, fetching the
// cores' traces concurrently on at most GOMAXPROCS goroutines: a cold
// cluster generates its traces side by side instead of one after another.
// Homogeneous clusters (the same workload on several cores, all under one
// configuration) share a single generated trace, as the cache collapses
// concurrent requests for one key and every core replays its own
// snapshot. It returns the error of the lowest-indexed core that failed.
func clusterSpecs(ctx context.Context, traces *tracecache.Cache, profiles []workload.Profile, cfg Config, limit uint64) ([]multicore.CoreSpec, error) {
	specs := make([]multicore.CoreSpec, len(profiles))
	errs := make([]error, len(profiles))
	var next atomic.Int64
	var wg sync.WaitGroup
	for range min(len(profiles), runtime.GOMAXPROCS(0)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(profiles); i = int(next.Add(1) - 1) {
				src, startPC, err := tracecache.SourceFor(ctx, traces, profiles[i], cfg.TraceConfig(), limit)
				specs[i] = multicore.CoreSpec{Name: profiles[i].Name, Config: cfg, Source: src, StartPC: startPC}
				errs[i] = err
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return specs, nil
}
