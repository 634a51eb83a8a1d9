package core

import "repro/internal/stats"

// IntervalSnapshot is one window of engine telemetry: every statistic the
// final Result reports, restricted to the cycles between two consecutive
// telemetry boundaries. Counters, cache statistics and occupancies are
// window deltas — summing a run's snapshots in order (see Accumulate)
// reconstructs the final Result's statistics exactly — while the rate
// fields are derived from the window alone, so a dashboard can plot IPC or
// miss-rate trajectories without keeping running totals.
//
// Snapshots are produced by (*Engine).RunHooks when Hooks.Telemetry is
// set, at absolute multiples of Hooks.TelemetryEvery (the same boundary
// discipline as Observer callbacks); the Final snapshot covers the partial
// window between the last boundary and run completion. An interrupted run
// (cancellation, step error) delivers one last non-Final snapshot so the
// streamed windows always sum to the statistics the run returned.
type IntervalSnapshot struct {
	// Core identifies the engine within a sweep or cluster, mirroring
	// Progress.Core: 0 for single runs, the job-wide point index when a
	// sweep runner or the job platform forwards the snapshot.
	Core int `json:"core"`
	// Seq numbers the run's snapshots from 0 in emission order.
	Seq uint64 `json:"seq"`
	// StartCycle and EndCycle bound the window: the snapshot describes
	// cycles [StartCycle, EndCycle).
	StartCycle uint64 `json:"start_cycle"`
	EndCycle   uint64 `json:"end_cycle"`

	// Stats holds the window's statistics, the run's Stats at EndCycle
	// minus those at StartCycle.
	Stats

	// IPC is committed instructions per cycle within the window.
	IPC float64 `json:"ipc"`
	// MispredictRate is resolved mispredictions per committed branch
	// within the window.
	MispredictRate float64 `json:"mispredict_rate"`
	// ICacheMissRate and DCacheMissRate are the window miss rates (0 when
	// the window had no accesses, including under perfect memory).
	ICacheMissRate float64 `json:"icache_miss_rate"`
	DCacheMissRate float64 `json:"dcache_miss_rate"`

	// Final marks the snapshot covering the last partial window of a run
	// that completed successfully.
	Final bool `json:"final,omitempty"`
}

// Accumulate adds the snapshot's window into r, so folding a run's
// snapshots in order over a zero Result reconstructs the final Result's
// statistics exactly (Config is not carried by snapshots and stays
// untouched).
func (s IntervalSnapshot) Accumulate(r *Result) { r.Stats = r.Stats.Add(s.Stats) }

// telemetryRun holds the per-run emission state RunHooks threads through
// the drive loop when Hooks.Telemetry is set: the statistics at the
// previous boundary and the snapshot sequence number.
type telemetryRun struct {
	e    *Engine
	sink func(IntervalSnapshot) error
	seq  uint64
	prev Stats // the window start's statistics
}

// startTelemetry captures the baseline at the current engine state (cycle 0
// for fresh runs, the restore point for checkpoint-resumed ones).
func (e *Engine) startTelemetry(sink func(IntervalSnapshot) error) *telemetryRun {
	return &telemetryRun{e: e, sink: sink, prev: e.stats()}
}

// emit delivers the window since the previous boundary to the sink and
// moves the window start to the engine's current state. It is the drive
// loop's telemetry hook.
func (t *telemetryRun) emit(final bool) error {
	cur := t.e.stats()
	snap := IntervalSnapshot{
		Seq:        t.seq,
		StartCycle: t.prev.Cycles,
		EndCycle:   cur.Cycles,
		Stats:      cur.Sub(t.prev),
		Final:      final,
	}
	snap.IPC = stats.Ratio(snap.Committed, snap.Cycles)
	snap.MispredictRate = stats.Ratio(snap.MispredResolved, snap.CommittedBranches)
	snap.ICacheMissRate = snap.ICache.MissRate()
	snap.DCacheMissRate = snap.DCache.MissRate()
	t.seq++
	t.prev = cur
	return t.sink(snap)
}
