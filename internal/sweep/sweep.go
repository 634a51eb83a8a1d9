// Package sweep runs bulk design-space explorations — the paper's stated
// off-line use case ("bulk simulations with varying design parameters") —
// in parallel across host cores. Each point owns an independent engine, so
// points never share mutable state and the sweep's output is identical to a
// serial run.
//
// Trace generation is amortized through a tracecache.Cache: points sharing
// a trace key (workload + derived trace configuration + instruction budget)
// share one single-flight generation, and every point replays an
// independent snapshot. Most design-space sweeps vary only engine
// parameters (width, queue depths, cache geometry), so a whole sweep
// typically costs a single generation. An RB or IFQ grid varies the
// wrong-path length, which is part of the key; the sweep asks for each
// family's longest wrong path first and the cache derives the shorter
// ones from it, so such a grid also costs one generation per family.
package sweep

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"repro/internal/core"
	"repro/internal/tracecache"
	"repro/internal/workload"
)

// Point is one named design point.
type Point struct {
	Name   string
	Config core.Config
}

// Result pairs a point with its simulation outcome.
type Result struct {
	Point
	Res core.Result
	Err error
}

// Grid appends one point per value, derived from base by apply; names are
// "prefix=value".
func Grid(prefix string, base core.Config, values []int, apply func(*core.Config, int)) []Point {
	var pts []Point
	for _, v := range values {
		cfg := base
		apply(&cfg, v)
		pts = append(pts, Point{Name: fmt.Sprintf("%s=%d", prefix, v), Config: cfg})
	}
	return pts
}

// Runner executes design points over one workload.
type Runner struct {
	Workload     workload.Profile
	Instructions uint64
	// Parallelism bounds concurrent simulations; 0 uses GOMAXPROCS.
	Parallelism int
	// Observer, when non-nil, receives one Progress callback per completed
	// point: Core is the point's index, the counters are that point's,
	// Done/Total carry sweep completion, and Final marks the last point to
	// finish. Callbacks are serialized and stop once the sweep's context is
	// cancelled. It is the sweep's single reporting channel.
	Observer core.Observer
	// OnResult, when non-nil, receives each point's full result as it
	// completes — the streaming hook the sharded sweep service builds on:
	// a worker forwards every finished point over the wire without waiting
	// for the whole sweep to drain. Callbacks are serialized with Observer
	// callbacks (OnResult first) and arrive in completion order, which is
	// not point order; the returned slice is still point-ordered.
	OnResult func(index int, res Result)
	// Traces memoizes generated traces across points (and across runs, when
	// the caller shares one cache between sweeps). nil streams every
	// point's trace from the functional simulator, nothing materialized;
	// results are identical either way because cached replays are
	// record-for-record equal to regeneration.
	Traces *tracecache.Cache
	// CheckpointEvery, with OnCheckpoint, enables periodic engine-state
	// capture: each point's engine serializes a complete core.Checkpoint at
	// every CheckpointEvery-cycle boundary and hands it to OnCheckpoint with
	// the point's index. Callbacks arrive from concurrent point engines (one
	// goroutine per in-flight point, in cycle order within a point);
	// OnCheckpoint must be safe for concurrent use.
	CheckpointEvery uint64
	OnCheckpoint    func(index int, cp *core.Checkpoint)
	// TelemetryEvery, with OnTelemetry, streams per-interval engine
	// telemetry: each point's engine emits a core.IntervalSnapshot window
	// delta at every TelemetryEvery-cycle boundary (absolute multiples) and
	// hands it to OnTelemetry tagged with the point's index (also stamped
	// into Snapshot.Core). Same concurrency contract as OnCheckpoint:
	// callbacks arrive from concurrent point engines, in window order
	// within a point, and must be safe for concurrent use. Forwarding is
	// fire-and-forget — OnTelemetry cannot abort a point.
	TelemetryEvery uint64
	OnTelemetry    func(index int, snap core.IntervalSnapshot)
	// Resume maps point indices to checkpoints to restore instead of
	// starting from cycle 0 — the sharded sweep service resumes a dead
	// worker's half-finished points on a survivor through it. The stream
	// position stored in the checkpoint re-attaches to the shared trace
	// (cache snapshot or regeneration — both yield the identical records).
	// A checkpoint that fails to restore (corrupt, or from a different
	// configuration) degrades to a fresh run, mirroring how lost trace
	// spills degrade to regeneration.
	Resume map[int]*core.Checkpoint
	// OnResume fires after a Resume checkpoint successfully restores,
	// with the simulated cycles the point skipped — deliberately not at
	// decode time, so callers observing "this point resumed mid-run"
	// (logs, counters, tests) never report a resume that silently degraded
	// to a fresh run. Same concurrency contract as OnCheckpoint.
	OnResume func(index int, resumedCycles uint64)
}

// Run simulates every point and returns results in point order. Individual
// point failures are reported in Result.Err; Run itself fails on an empty
// point list or a cancelled context. On cancellation in-flight engines stop
// at their next context poll, every worker goroutine drains, and Run
// returns ctx.Err().
//
// Points sharing a trace key (workload + trace configuration + instruction
// budget) share one generated trace through the Traces cache; each point
// replays a private snapshot, so the concurrent engines never touch shared
// mutable trace state. Points whose budget is uncacheable (Instructions
// == 0 or over the cache's per-trace cap), or a Runner without Traces,
// regenerate per point.
//
// Points that differ only in LSQSize form a ladder, run smallest LSQ
// first. A run whose LSQ never filled never stalled dispatch on it, so
// every larger rung would replay its trajectory exactly: Run answers those
// rungs from its result instead of simulating them. An answered point gets
// its own Point, Config and LSQ capacity, and streams the source's
// telemetry windows re-stamped with its own index and LSQ capacity, so
// every point's windows sum to its result. A point with a Resume
// checkpoint is a ladder of one. A ladder runs one rung at a time, each
// once every smaller rung is done, so which points a sweep simulates never
// depends on timing; ladders run in parallel, so a sweep runs at most as
// many points at once as it has ladders. A run's telemetry and checkpoints
// are its point's own and pass through as it runs.
//
// A point is a Config: a value from which its engine builds its own cold
// caches, so points running in parallel share no mutable state. It
// carries no hooks: the Runner's Observer, OnCheckpoint and OnTelemetry
// are a sweep's only channels, and sweeps do not pipe-trace.
func (r Runner) Run(ctx context.Context, points []Point) ([]Result, error) {
	if len(points) == 0 {
		return nil, fmt.Errorf("sweep: no design points")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	par := r.Parallelism
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	if par > len(points) {
		par = len(points)
	}
	s := newScheduler(ctx, r, points)
	var wg sync.WaitGroup
	for w := 0; w < par; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.work()
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return s.results, nil
}

// PointProgress is the progress report for one completed point: Core is
// the point's index, the counters are its result's, and Done/Total carry
// sweep completion. Final is left to the caller, whose completion rule it
// is.
func PointProgress(index int, res core.Result, done, total int) core.Progress {
	return core.Progress{
		Core:      index,
		Cycles:    res.Cycles,
		Committed: res.Committed,
		IPC:       res.IPC(),
		Done:      done,
		Total:     total,
	}
}

// runOne simulates one point as run rn; a window of its own telemetry is
// also noted in rn, and rn.sourced closes once the point has its trace.
func (r Runner) runOne(ctx context.Context, idx int, pt Point, rn *run) Result {
	out := Result{Point: pt}
	cfg := pt.Config
	var h core.Hooks
	if r.CheckpointEvery > 0 && r.OnCheckpoint != nil {
		h.CheckpointEvery = r.CheckpointEvery
		h.Checkpoint = func(cp *core.Checkpoint) error {
			r.OnCheckpoint(idx, cp)
			return nil
		}
	}
	if r.TelemetryEvery > 0 && r.OnTelemetry != nil {
		h.TelemetryEvery = r.TelemetryEvery
		h.Telemetry = func(snap core.IntervalSnapshot) error {
			rn.note(snap)
			snap.Core = idx
			r.OnTelemetry(idx, snap)
			return nil
		}
	}
	src, startPC, err := tracecache.SourceFor(ctx, r.Traces, r.Workload, cfg.TraceConfig(), r.Instructions)
	if rn.sourced != nil {
		close(rn.sourced)
	}
	if err != nil {
		out.Err = err
		return out
	}
	var eng *core.Engine
	if cp := r.Resume[idx]; cp != nil {
		eng, err = core.Restore(cfg, src, cp)
		if err != nil {
			// An unusable checkpoint degrades to a fresh run: re-derive the
			// source (Restore consumed records of the first one).
			src, startPC, err = tracecache.SourceFor(ctx, r.Traces, r.Workload, cfg.TraceConfig(), r.Instructions)
			if err != nil {
				out.Err = err
				return out
			}
			eng = nil
		} else if r.OnResume != nil {
			r.OnResume(idx, cp.Cycles())
		}
	}
	if eng == nil {
		eng, err = core.New(cfg, src, startPC)
		if err != nil {
			out.Err = err
			return out
		}
	}
	out.Res, out.Err = eng.RunHooks(ctx, h)
	return out
}
