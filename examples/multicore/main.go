// Multicore explores the paper's future-work direction: "it is possible to
// fit multiple ReSim instances in a single FPGA and simulate multi-core
// systems" (§VI). It checks how many engine instances the area model fits
// on each device, then runs a lockstep cluster — one ReSim instance per
// workload — twice through Session.Multicore: with private memory systems,
// and with the cores' private L1 data caches backed by one shared L2, so
// the workloads interfere in the shared tags like a real CMP.
package main

import (
	"context"
	"fmt"
	"log"

	resim "repro"
)

func main() {
	ses, err := resim.New() // every core uses the paper's 4-wide machine
	if err != nil {
		log.Fatal(err)
	}
	cfg := ses.Config()
	ctx := context.Background()

	// How many instances fit? (Perfect-memory core: ~10K V4 slices.)
	breakdown, err := resim.EstimateArea(cfg)
	if err != nil {
		log.Fatal(err)
	}
	total := breakdown.Total()
	fmt.Printf("one ReSim instance: %d slices, %d BRAMs (Virtex-4 units)\n", total.Slices, total.BRAMs)
	for _, dev := range []resim.Device{resim.Virtex4, resim.Virtex5} {
		_, n := breakdown.FitsIn(dev)
		fmt.Printf("  %-12s fits %d instance(s)\n", dev.Name, n)
	}

	const instrs = 100_000
	workloads := []string{"gzip", "bzip2", "parser", "vpr"}

	// Lockstep cluster with private memory systems.
	fmt.Printf("\nlockstep cluster, private memories: %v\n", workloads)
	res, err := ses.Multicore(ctx, resim.MulticoreOptions{
		Workloads: workloads, Limit: instrs,
	})
	if err != nil {
		log.Fatal(err)
	}
	for i, name := range res.Names {
		fmt.Printf("  core %-8s IPC %.3f over %d cycles\n",
			name, res.PerCore[i].IPC(), res.PerCore[i].Cycles)
	}
	fmt.Printf("  aggregate IPC %.2f -> %.1f MIPS on %s / %.1f MIPS on %s\n",
		res.AggregateIPC(),
		resim.AggregateMIPS(resim.Virtex4, cfg, res), resim.Virtex4.Name,
		resim.AggregateMIPS(resim.Virtex5, cfg, res), resim.Virtex5.Name)

	// The same cluster with private 8K L1s over one shared 64K L2.
	fmt.Printf("\nlockstep cluster, shared L2 (8K private L1s, 64K shared L2):\n")
	shared, err := ses.Multicore(ctx, resim.MulticoreOptions{
		Workloads: workloads,
		Limit:     instrs,
		L1: &resim.CacheConfig{Name: "dl1", SizeBytes: 8 << 10, Assoc: 2,
			BlockBytes: 64, HitLatency: 1, MissLatency: 20},
		SharedL2: &resim.CacheConfig{Name: "l2", SizeBytes: 64 << 10, Assoc: 8,
			BlockBytes: 64, HitLatency: 6, MissLatency: 40},
	})
	if err != nil {
		log.Fatal(err)
	}
	for i, name := range shared.Names {
		fmt.Printf("  core %-8s IPC %.3f (dl1 miss rate %.3f)\n",
			name, shared.PerCore[i].IPC(), shared.PerCore[i].DCache.MissRate())
	}
	fmt.Printf("  shared l2: %d accesses from all cores, miss rate %.3f\n",
		shared.SharedL2.Accesses(), shared.SharedL2.MissRate())
	fmt.Printf("  aggregate IPC %.2f (vs %.2f with private memories)\n",
		shared.AggregateIPC(), res.AggregateIPC())
	fmt.Println("\nshared-L2 interference lowers per-core IPC; the lockstep cluster's")
	fmt.Println("throughput is the sum of per-core rates at the common f/K clock.")
}
