// Distsweep demonstrates the sharded sweep service end to end inside one
// process: it starts a coordinator with two workers on a real localhost
// TCP listener and the job service's HTTP API in front of it (exactly
// what `resimd -role coordinator` / `-role worker` run as separate
// processes), submits the specsweep-style parser design-space sweep
// through a session built WithCoordinator, and shows the service's two
// key properties:
//
//   - results come back in point order, with progress (completed/total)
//     fed to the session observer as they stream in, and
//   - points are sharded by trace key, so each worker host generates every
//     distinct trace exactly once no matter how many points replay it.
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"net/http"
	"time"

	resim "repro"
	"repro/internal/jobd"
	"repro/internal/sweepd"
	"repro/internal/tracecache"
)

func main() {
	const instrs = 50_000
	ctx := context.Background()

	// --- the cluster: one coordinator, its job service, two workers -------
	coord := sweepd.NewCoordinator()
	defer coord.Close()
	// The job service is the cluster's one door for sweeps: it admits each
	// job and schedules its key-groups onto the coordinator's workers.
	platform, err := jobd.New(jobd.Options{Pool: coord})
	if err != nil {
		log.Fatal(err)
	}
	defer platform.Close()
	coord.OnWorkersChanged = platform.Kick
	addr, err := coord.Start("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	api := &http.Server{Handler: platform.Handler()}
	go api.Serve(ln) //nolint:errcheck // ends at Close
	defer api.Close()
	server := "http://" + ln.Addr().String()

	// Each worker has its own trace cache — the stand-in for a remote
	// host's memory. Real deployments run these as `resimd -role worker`.
	wctx, stopWorkers := context.WithCancel(ctx)
	defer stopWorkers()
	caches := make([]*tracecache.Cache, 2)
	for i := range caches {
		caches[i] = tracecache.New(tracecache.Config{})
		go func(i int) {
			sweepd.Work(wctx, addr, sweepd.WorkerOptions{ //nolint:errcheck
				Name:   fmt.Sprintf("w%d", i+1),
				Traces: caches[i],
			})
		}(i)
	}
	for coord.WorkerCount() < 2 {
		time.Sleep(5 * time.Millisecond)
	}
	fmt.Printf("cluster up: coordinator %s, job service %s, %d workers\n\n",
		addr, server, coord.WorkerCount())

	// --- the sweep: RB sizes on parser, via the service -------------------
	// WithCoordinator takes the job service's base URL and makes Sweep
	// transparently remote; SweepRemote does the same for one call. The
	// observer sees each point as its result streams in.
	ses, err := resim.New(
		resim.WithCoordinator(server),
		resim.WithOrganization(resim.OrgImproved),
		resim.WithMemoryPorts(2, 1),
		resim.WithObserver(resim.ObserverFunc(func(p resim.Progress) {
			fmt.Printf("  progress %d/%d: point %d -> IPC %.3f\n", p.Done, p.Total, p.Core, p.IPC)
		}), 0),
	)
	if err != nil {
		log.Fatal(err)
	}
	rbSizes := []int{8, 16, 32, 64}
	points := resim.SweepGrid("rb", ses.Config(), rbSizes, func(c *resim.Config, v int) {
		c.RBSize = v
	})
	results, err := ses.Sweep(ctx, "parser", instrs, points)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\nparser IPC by RB size (%d instructions/point, 2 remote workers):\n", instrs)
	for _, r := range results {
		if r.Err != nil {
			log.Fatal(r.Err)
		}
		fmt.Printf("  %-8s IPC %.3f\n", r.Name, r.Res.IPC())
	}

	// --- the sharding invariant ------------------------------------------
	// Each RB size derives its own trace key (the wrong-path block length is
	// RB+IFQ), so 4 points = 4 key-groups, split across 2 hosts; every host
	// generated only its own groups' traces.
	var gens uint64
	for i, c := range caches {
		st := c.Stats()
		fmt.Printf("\nworker w%d: %d trace generations, %d cached replays", i+1, st.Generations, st.Hits)
		gens += st.Generations
	}
	fmt.Printf("\ntotal generations %d for %d distinct trace keys — one per key across the cluster\n",
		gens, len(rbSizes))
}
