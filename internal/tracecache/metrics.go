// Registry bridge: the cache keeps its own lock-free counters (Stats);
// RegisterMetrics exposes them as collector-backed families that read the
// live values at scrape time, so a cache with no registry attached pays
// nothing and a scrape always reports the current state.
package tracecache

import "repro/internal/obs"

// RegisterMetrics registers c's activity counters and occupancy gauges on
// reg as tracecache_* families. Call it once per (registry, cache) pair;
// cmd/doclint calls it on a throwaway pair to learn the inventory.
func RegisterMetrics(reg *obs.Registry, c *Cache) {
	reg.CounterFunc("tracecache_generations_total",
		"Traces generated (cache misses that did the work).",
		func() float64 { return float64(c.gens.Load()) })
	reg.CounterFunc("tracecache_derivations_total",
		"Traces cut from a longer trace of their family instead of generated.",
		func() float64 { return float64(c.derivations.Load()) })
	reg.CounterFunc("tracecache_hits_total",
		"Trace requests served from memory.",
		func() float64 { return float64(c.hits.Load()) })
	reg.CounterFunc("tracecache_seeds_total",
		"Entries installed from shipped containers.",
		func() float64 { return float64(c.seeds.Load()) })
	reg.CounterFunc("tracecache_spill_writes_total",
		"Entries written to the spill directory.",
		func() float64 { return float64(c.spillWrites.Load()) })
	reg.CounterFunc("tracecache_spill_bytes_total",
		"Container bytes written to the spill directory.",
		func() float64 { return float64(c.spillBytes.Load()) })
	reg.CounterFunc("tracecache_spill_loads_total",
		"Cache misses served from the spill directory.",
		func() float64 { return float64(c.spillLoads.Load()) })
	reg.CounterFunc("tracecache_evictions_total",
		"Entries pushed out of memory (spilled or dropped).",
		func() float64 { return float64(c.evictions.Load()) })
	reg.GaugeFunc("tracecache_entries",
		"Keys resident or in flight.",
		func() float64 { return float64(c.Stats().Entries) })
	reg.GaugeFunc("tracecache_resident_bytes",
		"Bytes of record data currently in memory.",
		func() float64 { return float64(c.Stats().Resident) })
}
