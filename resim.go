// Package resim is a Go reproduction of "ReSim, a Trace-Driven,
// Reconfigurable ILP Processor Simulator" (Fytraki & Pnevmatikatos,
// DATE 2009): a cycle-accurate, trace-driven timing simulator for an
// out-of-order, superscalar, speculative processor, together with the
// substrates the paper's evaluation depends on — a SimpleScalar-style
// functional simulator and trace generator, a parameterizable branch
// predictor, timing-only caches, synthetic SPECINT-like workloads, the
// minor-cycle internal pipeline organizations of §IV, and an FPGA
// throughput/area model calibrated against the published results.
//
// The public API is the Session: one validated configuration, built with
// functional options, behind every run mode (workload simulation, trace
// file simulation, trace writing, parallel sweeps, lockstep multicore).
// Runs take a context.Context for cancellation and can report progress
// through an Observer.
//
// Quick start:
//
//	ses, err := resim.New()                          // the paper's 4-wide machine
//	if err != nil { ... }
//	res, err := ses.RunWorkload(ctx, "gzip", 200_000)
//	if err != nil { ... }
//	fmt.Printf("IPC %.2f -> %.1f simulation MIPS on Virtex-5\n",
//		res.IPC(), resim.SimulationMIPS(resim.Virtex5, ses.Config(), res))
//
// Design-space sweeps also run distributed: cmd/resimd runs a coordinator
// whose workers register over TCP, and one front door, the job service's
// HTTP API. (*Session).SweepRemote (or a session built WithCoordinator)
// submits a sweep there as a job and blocks for its results;
// (*Session).SubmitRemote submits and returns a JobHandle. Points are
// sharded across worker hosts by trace key so every distinct trace is
// generated — or shipped as a delta-compressed container — exactly once
// per host. A local Sweep call runs one in-process sweep.Runner over
// every point; local and remote sweeps share result ordering and the
// observer contract, and only remote workers requeue points or ship
// checkpoints.
//
// The cmd/resim, cmd/tracegen, cmd/resim-bench and cmd/resimd tools and
// the examples/ directory exercise this API; internal packages carry the
// implementation.
package resim

import (
	"repro/internal/bpred"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/fpga"
	"repro/internal/multicore"
	"repro/internal/sched"
	"repro/internal/sweep"
	"repro/internal/trace"
	"repro/internal/tracecache"
	"repro/internal/uarch"
	"repro/internal/workload"
)

// Core configuration and results.
type (
	// Config parameterizes the simulated processor and engine organization.
	Config = core.Config
	// Result is the outcome of a simulation run.
	Result = core.Result
	// PredictorConfig parameterizes the branch predictor block.
	PredictorConfig = bpred.Config
	// CacheConfig describes one timing-only cache.
	CacheConfig = cache.Config
	// CacheSide is one side of the memory system — an optional L1, an
	// optional L2 behind it, or perfect memory — as Config.ICache and
	// Config.DCache hold it. Every engine builds its own caches from it.
	CacheSide = cache.Side
	// FUConfig configures the functional-unit pools.
	FUConfig = uarch.FUConfig
	// Organization selects the internal minor-cycle pipeline (§IV).
	Organization = sched.Organization
	// Workload is a synthetic SPECINT-like benchmark profile.
	Workload = workload.Profile
	// Device is an FPGA device model.
	Device = fpga.Device
	// AreaBreakdown is a per-stage FPGA resource estimate (Table 4).
	AreaBreakdown = fpga.Breakdown
	// Record is one pre-decoded trace record (formats B, M and O).
	Record = trace.Record
	// Source yields trace records to the engine.
	Source = trace.Source
	// PipeTracer observes per-instruction pipeline events (see
	// internal/ptrace for a ready-made collector).
	PipeTracer = core.PipeTracer
	// Observer receives periodic Progress callbacks from long runs.
	Observer = core.Observer
	// ObserverFunc adapts a plain function to the Observer interface.
	ObserverFunc = core.ObserverFunc
	// Progress is one periodic snapshot delivered to an Observer.
	Progress = core.Progress
	// IntervalSnapshot is one window of per-interval engine telemetry —
	// counter, cache and occupancy deltas plus window IPC and miss rates —
	// delivered to a WithTelemetry sink; see WithTelemetry and
	// docs/TELEMETRY.md.
	IntervalSnapshot = core.IntervalSnapshot
	// TraceCache memoizes generated workload traces: every consumer of the
	// same (workload, trace configuration, instruction budget) — sweep
	// points, repeated runs, homogeneous multicore clusters, table
	// regeneration — pays the generation cost once and replays private
	// snapshots. Sessions default to SharedTraceCache(); see WithTraceCache.
	TraceCache = tracecache.Cache
	// TraceCacheConfig bounds a TraceCache: in-memory budget, per-trace
	// instruction cap and an optional on-disk spill directory (evicted
	// traces are written as delta-compressed containers and reloaded on
	// demand).
	TraceCacheConfig = tracecache.Config
	// TraceCacheStats is a point-in-time snapshot of cache activity.
	TraceCacheStats = tracecache.Stats
)

// The three internal pipeline organizations (paper Figures 2-4).
const (
	OrgSimple    = sched.OrgSimple    // 2N+3 minor cycles per major cycle
	OrgImproved  = sched.OrgImproved  // N+4
	OrgOptimized = sched.OrgOptimized // N+3, needs <= N-1 memory ports
)

// The evaluation's FPGA devices.
var (
	Virtex4 = fpga.Virtex4 // xc4vlx40, 84 MHz minor clock
	Virtex5 = fpga.Virtex5 // xc5vlx50t, 105 MHz minor clock
)

// OrganizationByName parses an organization name ("simple", "improved",
// "optimized") — the parser the CLI flags and the JSON configuration file
// share.
func OrganizationByName(name string) (Organization, error) { return sched.OrgByName(name) }

// DefaultConfig returns the paper's evaluated 4-way configuration: RB 16,
// LSQ 8, 4 ALU + 1 MUL + 1 DIV, two-level branch predictor, perfect memory,
// Optimized (N+3) organization. New() starts from this configuration.
func DefaultConfig() Config { return core.DefaultConfig() }

// FASTComparisonConfig returns the 2-issue configuration of Table 1's right
// portion: perfect branch prediction and 32 KB 8-way L1 caches.
func FASTComparisonConfig() Config { return core.FASTComparisonConfig() }

// NewTraceCache builds a private trace cache bounded by cfg. Pass it to
// sessions via WithTraceCache when the process-wide default (shared memory
// budget, no spill) is not what you want.
func NewTraceCache(cfg TraceCacheConfig) *TraceCache { return tracecache.New(cfg) }

// SharedTraceCache returns the process-wide trace cache every Session uses
// by default, so all sessions in one process share one set of generated
// traces.
func SharedTraceCache() *TraceCache { return tracecache.Shared() }

// Workloads returns the five SPECINT CPU2000 stand-in profiles in Table 1
// row order (gzip, bzip2, parser, vortex, vpr).
func Workloads() []Workload { return workload.Profiles() }

// WorkloadByName returns the named profile.
func WorkloadByName(name string) (Workload, error) { return workload.ByName(name) }

// TraceStats summarizes a generated trace file.
type TraceStats struct {
	Records      uint64
	WrongPath    uint64
	Bits         uint64
	BitsPerInstr float64
}

// SimulationMIPS converts a result's IPC into modeled wall-clock simulation
// throughput on dev: MinorClockMHz / K(width) x IPC (Table 1's model).
func SimulationMIPS(dev Device, cfg Config, res Result) float64 {
	return fpga.SimulationMIPS(dev, cfg.MinorCyclesPerMajor(), res.IPC())
}

// EstimateArea produces the Table 4 per-stage FPGA resource estimate.
func EstimateArea(cfg Config) (AreaBreakdown, error) { return fpga.EstimateArea(cfg) }

// RenderPipeline renders the minor-cycle schedule of the given organization
// for an n-wide processor (the ASCII equivalent of Figures 2-4).
func RenderPipeline(org Organization, n int) (string, error) {
	s, err := sched.Build(org, n)
	if err != nil {
		return "", err
	}
	if err := s.Validate(); err != nil {
		return "", err
	}
	return s.Render(), nil
}

// SweepPoint is one named design point of a bulk sweep.
type SweepPoint = sweep.Point

// SweepResult pairs a design point with its simulation outcome.
type SweepResult = sweep.Result

// SweepGrid derives one design point per value from base; names are
// "prefix=value".
func SweepGrid(prefix string, base Config, values []int, apply func(*Config, int)) []SweepPoint {
	return sweep.Grid(prefix, base, values, apply)
}

// MulticoreResult is the outcome of a lockstep multi-instance simulation.
type MulticoreResult = multicore.Result

// MulticoreOptions configures (*Session).Multicore.
type MulticoreOptions struct {
	// Workloads names one profile per simulated core.
	Workloads []string
	// Limit bounds correct-path instructions per core (0 = run to HALT).
	Limit uint64
	// SharedL2, when non-nil, backs every core's private L1 data cache
	// with one shared L2, modeling inter-core cache interference. L1 must
	// then be set too.
	SharedL2 *CacheConfig
	// L1 is the private data-cache geometry in front of SharedL2; it
	// replaces the session's D side. Set both or neither.
	L1 *CacheConfig
}

// AggregateMIPS models a lockstep cluster's simulation throughput on dev
// for cores configured as cfg.
func AggregateMIPS(dev Device, cfg Config, res MulticoreResult) float64 {
	return res.AggregateMIPS(dev, cfg.MinorCyclesPerMajor())
}

// Version identifies this reproduction.
const Version = "1.3.0"
