package core

import (
	"fmt"
	"reflect"

	"repro/internal/cache"
	"repro/internal/stats"
)

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

	// Counters holds the window delta of every engine counter.
	Counters Counters `json:"counters"`
	// ICache and DCache hold the window delta of the cache statistics.
	ICache cache.Stats `json:"icache"`
	DCache cache.Stats `json:"dcache"`
	// IFQ, RB and LSQ hold the window's occupancy accumulators.
	IFQ stats.Occupancy `json:"ifq"`
	RB  stats.Occupancy `json:"rb"`
	LSQ stats.Occupancy `json:"lsq"`

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

// Cycles returns the window width in cycles.
func (s IntervalSnapshot) Cycles() uint64 { return s.EndCycle - s.StartCycle }

// Accumulate adds the snapshot's window deltas into r, so folding a run's
// snapshots in order over a zero Result reconstructs the final Result's
// Counters, cache statistics and occupancies exactly (Config is not
// carried by snapshots and stays untouched).
func (s IntervalSnapshot) Accumulate(r *Result) {
	r.Counters = addCounters(r.Counters, s.Counters)
	r.ICache = addCacheStats(r.ICache, s.ICache)
	r.DCache = addCacheStats(r.DCache, s.DCache)
	r.IFQ = r.IFQ.Add(s.IFQ)
	r.RB = r.RB.Add(s.RB)
	r.LSQ = r.LSQ.Add(s.LSQ)
}

// subCounters returns the field-wise delta cur − prev. It walks the struct
// reflectively so new counters added to Counters are windowed automatically;
// it runs only at telemetry boundaries, never on the cycle path.
func subCounters(cur, prev Counters) Counters {
	combineCounters(&cur, prev, func(a, b uint64) uint64 { return a - b })
	return cur
}

// addCounters returns the field-wise sum a + b.
func addCounters(a, b Counters) Counters {
	combineCounters(&a, b, func(x, y uint64) uint64 { return x + y })
	return a
}

func combineCounters(dst *Counters, src Counters, op func(a, b uint64) uint64) {
	dv := reflect.ValueOf(dst).Elem()
	sv := reflect.ValueOf(src)
	for i := 0; i < dv.NumField(); i++ {
		df, sf := dv.Field(i), sv.Field(i)
		switch df.Kind() {
		case reflect.Uint64:
			df.SetUint(op(df.Uint(), sf.Uint()))
		case reflect.Array:
			for j := 0; j < df.Len(); j++ {
				df.Index(j).SetUint(op(df.Index(j).Uint(), sf.Index(j).Uint()))
			}
		default:
			panic(fmt.Sprintf("core: Counters field %s has unsupported kind %v",
				dv.Type().Field(i).Name, df.Kind()))
		}
	}
}

func subCacheStats(cur, prev cache.Stats) cache.Stats {
	return cache.Stats{
		Reads:     cur.Reads - prev.Reads,
		ReadHits:  cur.ReadHits - prev.ReadHits,
		Writes:    cur.Writes - prev.Writes,
		WriteHits: cur.WriteHits - prev.WriteHits,
	}
}

func addCacheStats(a, b cache.Stats) cache.Stats {
	return cache.Stats{
		Reads:     a.Reads + b.Reads,
		ReadHits:  a.ReadHits + b.ReadHits,
		Writes:    a.Writes + b.Writes,
		WriteHits: a.WriteHits + b.WriteHits,
	}
}

// telemetryRun holds the per-run emission state RunHooks threads through
// the drive loop when Hooks.Telemetry is set: the baseline statistics
// at the previous boundary and the snapshot sequence number.
type telemetryRun struct {
	e    *Engine
	sink func(IntervalSnapshot) error
	seq  uint64

	start      uint64 // window start cycle
	prev       Counters
	prevICache cache.Stats
	prevDCache cache.Stats
	prevIFQ    stats.Occupancy
	prevRB     stats.Occupancy
	prevLSQ    stats.Occupancy
}

// startTelemetry captures the baseline at the current engine state (cycle 0
// for fresh runs, the restore point for checkpoint-resumed ones).
func (e *Engine) startTelemetry(sink func(IntervalSnapshot) error) *telemetryRun {
	t := &telemetryRun{e: e, sink: sink}
	t.rebase()
	return t
}

// rebase moves the window start to the engine's current state.
func (t *telemetryRun) rebase() {
	e := t.e
	t.start = e.c.Cycles
	t.prev = e.c
	t.prevICache = e.icache.Stats()
	t.prevDCache = e.dcache.Stats()
	t.prevIFQ = e.ifqOcc
	t.prevRB = e.rbOcc
	t.prevLSQ = e.lsqOcc
}

// emit delivers the window since the previous boundary to the sink and
// rebases. It is the drive loop's telemetry hook.
func (t *telemetryRun) emit(final bool) error {
	e := t.e
	snap := IntervalSnapshot{
		Seq:        t.seq,
		StartCycle: t.start,
		EndCycle:   e.c.Cycles,
		Counters:   subCounters(e.c, t.prev),
		ICache:     subCacheStats(e.icache.Stats(), t.prevICache),
		DCache:     subCacheStats(e.dcache.Stats(), t.prevDCache),
		IFQ:        e.ifqOcc.Sub(t.prevIFQ),
		RB:         e.rbOcc.Sub(t.prevRB),
		LSQ:        e.lsqOcc.Sub(t.prevLSQ),
		Final:      final,
	}
	snap.IPC = stats.Ratio(snap.Counters.Committed, snap.Counters.Cycles)
	snap.MispredictRate = stats.Ratio(snap.Counters.MispredResolved, snap.Counters.CommittedBranches)
	snap.ICacheMissRate = snap.ICache.MissRate()
	snap.DCacheMissRate = snap.DCache.MissRate()
	t.seq++
	t.rebase()
	return t.sink(snap)
}
