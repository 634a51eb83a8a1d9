package core

import (
	"fmt"
	"reflect"

	"repro/internal/cache"
	"repro/internal/stats"
)

// Stats is the one record of a run's statistics: the engine counters, each
// side's cache statistics and the structure occupancies. A Result carries
// it beside the configuration, the sweep service's wire and journal carry
// it alone, and a telemetry window is the difference of two of them.
type Stats struct {
	Counters
	ICache cache.Stats     `json:"icache"`
	DCache cache.Stats     `json:"dcache"`
	IFQ    stats.Occupancy `json:"ifq"`
	RB     stats.Occupancy `json:"rb"`
	LSQ    stats.Occupancy `json:"lsq"`
	// IL2 and DL2 count a private L2's accesses. They stay zero for a side
	// without an L2 and for a cluster's shared L2, which only
	// multicore.Result.SharedL2 reports.
	IL2 cache.Stats `json:"il2,omitzero"`
	DL2 cache.Stats `json:"dl2,omitzero"`
}

// Sub returns the statistics of the cycles since prev, an earlier snapshot
// of the same run: every counter and cache statistic as a delta, every
// occupancy as a window accumulator.
func (s Stats) Sub(prev Stats) Stats {
	combineCounters(&s.Counters, prev.Counters, func(a, b uint64) uint64 { return a - b })
	s.ICache, s.DCache = s.ICache.Sub(prev.ICache), s.DCache.Sub(prev.DCache)
	s.IL2, s.DL2 = s.IL2.Sub(prev.IL2), s.DL2.Sub(prev.DL2)
	s.IFQ, s.RB, s.LSQ = s.IFQ.Sub(prev.IFQ), s.RB.Sub(prev.RB), s.LSQ.Sub(prev.LSQ)
	return s
}

// Add returns s + d, the inverse of Sub: adding a run's windows in order to
// the zero Stats reconstructs the run's final statistics exactly.
func (s Stats) Add(d Stats) Stats {
	combineCounters(&s.Counters, d.Counters, func(a, b uint64) uint64 { return a + b })
	s.ICache, s.DCache = s.ICache.Add(d.ICache), s.DCache.Add(d.DCache)
	s.IL2, s.DL2 = s.IL2.Add(d.IL2), s.DL2.Add(d.DL2)
	s.IFQ, s.RB, s.LSQ = s.IFQ.Add(d.IFQ), s.RB.Add(d.RB), s.LSQ.Add(d.LSQ)
	return s
}

// Result rebuilds a run's result around cfg. Only bench/ calls it, through
// sweepd.WireRunResult; it goes with the benchmark harness's next change.
func (s Stats) Result(cfg Config) Result { return Result{s, cfg} }

// combineCounters applies op field-wise to dst and src. It walks the struct
// reflectively, so a counter added to Counters is windowed and summed
// automatically; it runs only at telemetry boundaries, never on the cycle
// path.
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

// Result is the outcome of a simulation run: its statistics and the
// configuration that produced them.
type Result struct {
	Stats
	Config Config
}

// IPC returns committed correct-path instructions per simulated cycle; this
// is the quantity that, multiplied by f_minor/K, gives Table 1's simulation
// MIPS.
func (r Result) IPC() float64 {
	return stats.Ratio(r.Committed, r.Cycles)
}

// TotalIPC returns instructions fetched per cycle including wrong-path
// instructions; Table 3's "Simulation Throughput ... including
// mis-speculated instructions" uses this rate.
func (r Result) TotalIPC() float64 {
	return stats.Ratio(r.Committed+r.WrongPathFetched, r.Cycles)
}

// WrongPathOverhead returns wrong-path fetched instructions as a fraction of
// committed instructions (the paper reports "the cost due to mispredictions
// which is about 10%").
func (r Result) WrongPathOverhead() float64 {
	return stats.Ratio(r.WrongPathFetched, r.Committed)
}

// MispredictRate returns resolved mispredictions per committed branch.
func (r Result) MispredictRate() float64 {
	return stats.Ratio(r.MispredResolved, r.CommittedBranches)
}

// Registry renders the result as a sim-outorder-style statistics report
// (§V.B: ReSim "collects various statistics that are similar to the ones
// found in sim-outorder").
func (r Result) Registry() *stats.Registry {
	reg := stats.NewRegistry()
	set := func(name, desc string, v uint64) {
		reg.Counter(name, desc).Set(v)
	}
	set("sim_cycle", "total simulated (major) cycles", r.Cycles)
	set("sim_num_insn", "total committed instructions", r.Committed)
	set("sim_num_loads", "committed loads", r.CommittedLoads)
	set("sim_num_stores", "committed stores", r.CommittedStores)
	set("sim_num_branches", "committed branches", r.CommittedBranches)
	set("sim_num_refs", "committed memory references", r.CommittedLoads+r.CommittedStores)
	reg.Formula("sim_IPC", "committed instructions per cycle", r.IPC)
	reg.Formula("sim_total_IPC", "instructions per cycle incl. wrong path", r.TotalIPC)

	set("fetch_total", "instructions fetched (incl. wrong path)", r.FetchedTotal)
	set("fetch_wrong_path", "wrong-path instructions fetched", r.WrongPathFetched)
	set("fetch_idle_cycles", "cycles fetch served a penalty or I-cache miss", r.FetchIdle)
	set("fetch_starved_cycles", "cycles fetch awaited branch resolution", r.FetchStarved)

	set("bpred_lookups", "branch predictor lookups", r.BPLookups)
	set("bpred_misfetches", "misfetches (wrong BTB target, direct branch)", r.Misfetches)
	set("bpred_mispred_detected", "mispredictions detected at fetch", r.MispredDetected)
	set("bpred_mispred_resolved", "mispredictions resolved at commit", r.MispredResolved)
	set("bpred_mispred_starved", "mispredictions without a wrong-path block", r.MispredStarved)
	reg.Formula("bpred_mispred_rate", "mispredictions per committed branch", r.MispredictRate)

	set("trace_wp_blocks_entered", "wrong-path blocks fetched", r.WPBlocksEntered)
	set("trace_wp_blocks_skipped", "wrong-path blocks discarded unfetched", r.WPBlocksSkipped)
	set("trace_wp_records_discarded", "tagged records discarded", r.WPRecordsDiscarded)

	set("dispatch_rb_full", "dispatch stalls on full reorder buffer", r.RBFullStalls)
	set("dispatch_lsq_full", "dispatch stalls on full LSQ", r.LSQFullStalls)
	set("commit_store_port_stalls", "commit stalls awaiting a write port", r.StorePortStalls)

	set("issue_total", "instructions issued", r.Issued)
	set("issue_loads_forwarded", "loads satisfied by LSQ forwarding", r.LoadsForwarded)
	set("issue_load_slot0_deferrals", "loads deferred from issue slot 0", r.LoadFirstSlotDeferred)

	// Per-class branch detail (§V.B).
	kindNames := []string{"", "cond", "jump", "call", "ret", "ijump", "icall"}
	for k := 1; k < len(kindNames); k++ {
		set("bpred_"+kindNames[k]+"_committed", "committed "+kindNames[k]+" branches", r.BranchesByKind[k])
		set("bpred_"+kindNames[k]+"_mispred", "mispredicted "+kindNames[k]+" branches", r.MispredictByKind[k])
	}
	set("bpred_taken_branches", "committed taken branches", r.TakenBranches)
	set("bpred_ras_pops", "return address stack pops", r.RASPops)
	set("bpred_ras_empty_pops", "returns predicted with empty RAS", r.RASEmptyPops)

	set("il1_accesses", "I-cache accesses", r.ICache.Accesses())
	set("il1_misses", "I-cache misses", r.ICache.Misses())
	set("dl1_accesses", "D-cache accesses", r.DCache.Accesses())
	set("dl1_misses", "D-cache misses", r.DCache.Misses())
	// Only a private L2 that saw an access reports, as on the wire.
	if r.IL2 != (cache.Stats{}) {
		set("il2_accesses", "I-side private L2 accesses", r.IL2.Accesses())
		set("il2_misses", "I-side private L2 misses", r.IL2.Misses())
	}
	if r.DL2 != (cache.Stats{}) {
		set("dl2_accesses", "D-side private L2 accesses", r.DL2.Accesses())
		set("dl2_misses", "D-side private L2 misses", r.DL2.Misses())
	}

	ifq, rb, lsq := r.IFQ, r.RB, r.LSQ
	reg.Formula("IFQ_occ_avg", "average IFQ occupancy", ifq.Mean)
	reg.Formula("RB_occ_avg", "average reorder buffer occupancy", rb.Mean)
	reg.Formula("LSQ_occ_avg", "average LSQ occupancy", lsq.Mean)
	return reg
}
