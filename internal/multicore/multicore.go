// Package multicore implements the paper's future-work direction: "it is
// possible to fit multiple ReSim instances in a single FPGA and simulate
// multi-core systems" (§VI). A Cluster steps several independent ReSim
// engines in lockstep major cycles — the way multiple instances sharing one
// FPGA clock would run — and optionally backs their private L1 data caches
// with one shared L2, so the cores interfere in the shared tags exactly as
// a real CMP's workloads would.
package multicore

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/fpga"
	"repro/internal/trace"
)

// CoreSpec describes one simulated core.
type CoreSpec struct {
	Name    string
	Config  core.Config
	Source  trace.Source
	StartPC uint32
}

// Cluster is a set of lockstep ReSim instances.
type Cluster struct {
	names   []string
	engines []*core.Engine
	l2      *cache.Cache // the shared D-side L2, or nil
	cycles  uint64

	observer core.Observer
	obsEvery uint64
}

// New builds a cluster from the given core specifications. The cluster
// builds one D-side L2 and every core whose Config.DCache names an L2
// shares it, so those cores must name the same L2 geometry; each core's
// other caches are its own.
func New(specs []CoreSpec) (*Cluster, error) {
	if len(specs) == 0 {
		return nil, errors.New("multicore: no cores")
	}
	c := &Cluster{}
	for i, s := range specs {
		name := s.Name
		if name == "" {
			name = fmt.Sprintf("core%d", i)
		}
		var shared *cache.Cache
		if g := s.Config.DCache.L2; g != (cache.Config{}) {
			if c.l2 == nil {
				if err := g.Validate(); err != nil {
					return nil, fmt.Errorf("multicore: core %d (%s): %w", i, name, err)
				}
				c.l2 = cache.New(g)
			}
			shared = c.l2
		}
		eng, err := core.NewSharing(s.Config, s.Source, s.StartPC, shared)
		if err != nil {
			return nil, fmt.Errorf("multicore: core %d (%s): %w", i, name, err)
		}
		c.names = append(c.names, name)
		c.engines = append(c.engines, eng)
	}
	return c, nil
}

// Step advances every unfinished core by one major cycle (lockstep).
func (c *Cluster) Step() error {
	for i, eng := range c.engines {
		if eng.Done() {
			continue
		}
		if err := eng.Cycle(); err != nil {
			return fmt.Errorf("multicore: %s: %w", c.names[i], err)
		}
	}
	c.cycles++
	return nil
}

// Done reports whether every core has drained its trace.
func (c *Cluster) Done() bool {
	for _, eng := range c.engines {
		if !eng.Done() {
			return false
		}
	}
	return true
}

// Result is the outcome of a cluster run.
type Result struct {
	Cycles  uint64 // lockstep major cycles until the slowest core drained
	Names   []string
	PerCore []core.Result
	// SharedL2 counts the shared L2's accesses from every core (zero
	// without one).
	SharedL2 cache.Stats
}

// Observe registers an observer that receives cluster-aggregate Progress
// callbacks (Core = -1) every interval lockstep cycles from Run
// (0 = core.DefaultObserverInterval).
func (c *Cluster) Observe(obs core.Observer, interval uint64) {
	c.observer = obs
	c.obsEvery = interval
}

// Run steps the cluster until every core finishes or maxCycles elapse
// (0 = unbounded). Cancellation cadence and observer semantics come from
// the shared core.Drive loop: the context is polled every
// core.CtxCheckInterval lockstep cycles, and a cancelled run returns the
// statistics accumulated so far together with ctx.Err().
func (c *Cluster) Run(ctx context.Context, maxCycles uint64) (Result, error) {
	err := core.Drive(ctx, c.observer, c.obsEvery,
		func() uint64 { return c.cycles },
		func() bool {
			return c.Done() || (maxCycles != 0 && c.cycles >= maxCycles)
		},
		c.Step,
		c.progress)
	return c.result(), err
}

// progress snapshots the cluster aggregate for an observer callback.
func (c *Cluster) progress(final bool) core.Progress {
	p := core.Progress{Core: -1, Cycles: c.cycles, Final: final}
	for _, eng := range c.engines {
		p.Committed += eng.Result().Committed
	}
	if c.cycles > 0 {
		p.IPC = float64(p.Committed) / float64(c.cycles)
	}
	return p
}

func (c *Cluster) result() Result {
	r := Result{Cycles: c.cycles, Names: c.names}
	if c.l2 != nil {
		r.SharedL2 = c.l2.Stats()
	}
	for _, eng := range c.engines {
		r.PerCore = append(r.PerCore, eng.Result())
	}
	return r
}

// AggregateIPC sums committed instructions across cores per lockstep cycle.
func (r Result) AggregateIPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	var committed uint64
	for _, res := range r.PerCore {
		committed += res.Committed
	}
	return float64(committed) / float64(r.Cycles)
}

// AggregateMIPS models the cluster's simulation throughput on dev: all
// instances share the minor-cycle clock, so the cluster completes
// f_minor/K lockstep major cycles per second, each retiring the aggregate
// IPC. Every core must use the same organization and width for a lockstep
// build; k is their common minor-cycles-per-major-cycle.
func (r Result) AggregateMIPS(dev fpga.Device, k int) float64 {
	return fpga.SimulationMIPS(dev, k, r.AggregateIPC())
}
