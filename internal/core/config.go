// Package core implements the ReSim timing engine: a trace-driven,
// cycle-accurate simulation of an out-of-order, superscalar, speculative
// processor (paper §III). One call to (*Engine).Cycle advances one major
// cycle; the simulated micro-architectural semantics are enforced only at
// major-cycle boundaries, exactly as ReSim's hardware does, so the engine is
// organization-independent except for the Optimized pipeline's first-slot
// load restriction, which it models explicitly.
//
// Stage evaluation order within a major cycle is Commit, Writeback,
// Lsq_refresh, Issue, Dispatch, Fetch — the reference ordering that all
// three internal pipeline organizations of §IV implement.
package core

import (
	"fmt"

	"repro/internal/bpred"
	"repro/internal/cache"
	"repro/internal/funcsim"
	"repro/internal/sched"
	"repro/internal/uarch"
)

// Config parameterizes the simulated processor and the engine organization.
// It describes the machine only; a run's callbacks are its Hooks (see
// (*Engine).RunHooks).
type Config struct {
	// Width is N: fetch, dispatch, issue, writeback and commit bandwidth.
	Width int
	// IFQSize is the instruction fetch queue depth.
	IFQSize int
	// RBSize is the reorder buffer depth (paper: 16).
	RBSize int
	// LSQSize is the load/store queue depth (paper: 8).
	LSQSize int
	// FUs configures the functional-unit pools (paper: 4 ALU / 1 MUL / 1 DIV
	// with latencies 1 / 3 / 10).
	FUs uarch.FUConfig
	// MemReadPorts and MemWritePorts bound per-cycle load issues and store
	// commits.
	MemReadPorts  int
	MemWritePorts int
	// MisfetchPenalty is the fetch bubble after a misfetch (paper: 3).
	MisfetchPenalty int
	// MispredPenalty is the fetch bubble after mis-speculation resolution at
	// commit (paper: 3).
	MispredPenalty int
	// PerfectBP disables the predictor: every branch is predicted correctly
	// (Table 1, right portion).
	PerfectBP bool
	// Predictor configures the simulated branch predictor.
	Predictor bpred.Config
	// ICache and DCache describe the memory system; each engine builds one
	// cold cache.Memory per side from them. The zero Side is perfect memory with
	// 1-cycle access (Table 1, left portion).
	ICache cache.Side
	DCache cache.Side
	// Organization selects the internal minor-cycle pipeline. It does not
	// change simulated timing except that the Optimized organization bars
	// loads from the first issue slot of each major cycle.
	Organization sched.Organization
	// MaxCycles aborts runaway simulations; 0 means no limit.
	MaxCycles uint64
}

// PipeTracer observes instruction flow through the simulated pipeline.
// Sequence numbers are assigned in fetch order (wrong-path instructions
// included); cycle is the major-cycle number of the event.
type PipeTracer interface {
	// Fetched delivers the instruction's identity once, at fetch.
	Fetched(seq int64, cycle int64, pc uint32, desc string, wrongPath bool)
	// Stage marks one pipeline event: "dispatch", "issue", "writeback",
	// "commit" or "squash".
	Stage(seq int64, cycle int64, stage string)
}

// DefaultConfig returns the paper's evaluated 4-way configuration (§V.C):
// 16 RB entries, 8 LSQ entries, 4 ALUs + 1 multiplier + 1 divider, penalties
// of 3, the default branch predictor, perfect memory, and the Optimized
// (N+3) organization used for Table 1's left portion.
func DefaultConfig() Config {
	return Config{
		Width:           4,
		IFQSize:         4,
		RBSize:          16,
		LSQSize:         8,
		FUs:             uarch.DefaultFUConfig(),
		MemReadPorts:    2,
		MemWritePorts:   1,
		MisfetchPenalty: 3,
		MispredPenalty:  3,
		Predictor:       bpred.Default(),
		Organization:    sched.OrgOptimized,
	}
}

// FASTComparisonConfig returns the 2-issue configuration of Table 1's right
// portion: perfect branch prediction, 32 KB 8-way L1 instruction and data
// caches with 64-byte blocks, and the Improved (N+4) organization.
func FASTComparisonConfig() Config {
	c := DefaultConfig()
	c.Width = 2
	c.PerfectBP = true
	c.ICache = cache.Side{L1: cache.L1Config32K("il1")}
	c.DCache = cache.Side{L1: cache.L1Config32K("dl1")}
	c.Organization = sched.OrgImproved
	c.MemReadPorts = 1
	c.MemWritePorts = 1
	return c
}

// Validate reports configuration errors, including the Optimized
// organization's memory-port restriction.
func (c Config) Validate() error {
	if c.Width < 1 || c.Width > 16 {
		return fmt.Errorf("core: width %d out of range [1,16]", c.Width)
	}
	if c.IFQSize < 1 {
		return fmt.Errorf("core: IFQSize %d", c.IFQSize)
	}
	if c.RBSize < 1 {
		return fmt.Errorf("core: RBSize %d", c.RBSize)
	}
	if c.LSQSize < 1 {
		return fmt.Errorf("core: LSQSize %d", c.LSQSize)
	}
	if err := c.FUs.Validate(); err != nil {
		return err
	}
	if c.MemReadPorts < 1 || c.MemWritePorts < 1 {
		return fmt.Errorf("core: memory ports %d/%d", c.MemReadPorts, c.MemWritePorts)
	}
	if c.MisfetchPenalty < 0 || c.MispredPenalty < 0 {
		return fmt.Errorf("core: negative penalty")
	}
	if !c.PerfectBP {
		if err := c.Predictor.Validate(); err != nil {
			return err
		}
	}
	if err := c.ICache.Validate(); err != nil {
		return err
	}
	if err := c.DCache.Validate(); err != nil {
		return err
	}
	if maxPorts := c.Organization.MaxMemPorts(c.Width); c.MemReadPorts > maxPorts {
		return fmt.Errorf("core: %v organization supports at most %d memory ports for width %d, got %d read ports",
			c.Organization, maxPorts, c.Width, c.MemReadPorts)
	}
	return nil
}

// WrongPathLen returns the paper's conservative wrong-path block size for
// this configuration: "Reorder Buffer size plus IFQ size" (§V.A).
func (c Config) WrongPathLen() int { return c.RBSize + c.IFQSize }

// TraceConfig derives the sim-bpred trace-generation configuration that
// matches this simulated-processor configuration, as the paper does: the
// generator runs the same predictor so the mis-prediction points in the
// trace line up with the ones the engine discovers. Every consumer of a
// workload trace source (the root package, sweeps, multicore clusters and
// the evaluation tables) derives its configuration here.
func (c Config) TraceConfig() funcsim.TraceConfig {
	return funcsim.TraceConfig{
		Predictor:    c.Predictor,
		PerfectBP:    c.PerfectBP,
		WrongPathLen: c.WrongPathLen(),
	}
}

// MinorCyclesPerMajor returns K for the configured organization and width.
func (c Config) MinorCyclesPerMajor() int {
	return c.Organization.MinorCyclesPerMajor(c.Width)
}
