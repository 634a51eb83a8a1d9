// Package gen is the paper's future-work configuration tool: "We are
// investigating the creation of a software tool that would automatically
// produce custom ReSim versions according to user parameters" (§VI). Given
// an engine configuration it emits a VHDL-like structural description of
// the custom ReSim instance — top-level generics, one component per
// simulated stage and structure, the generated branch predictor entity —
// together with the modeled resource budget and a device fit report.
//
// The output is a design document for the hardware ReSim this repository
// models, not synthesizable VHDL; its value is that every generic is
// derived from the same Config the timing engine runs, so the description
// and the simulation can never drift apart.
package gen

import (
	"fmt"
	"strings"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/fpga"
	"repro/internal/uarch"
)

// Generate renders the custom ReSim description for cfg, targeting dev for
// the fit report.
func Generate(cfg core.Config, dev fpga.Device) (string, error) {
	if err := cfg.Validate(); err != nil {
		return "", err
	}
	area, err := fpga.EstimateArea(cfg)
	if err != nil {
		return "", err
	}

	var sb strings.Builder
	sb.WriteString("-- Custom ReSim instance, generated from the engine configuration.\n")
	fmt.Fprintf(&sb, "-- Internal pipeline: %v (K = %d minor cycles per major cycle).\n\n",
		cfg.Organization, cfg.MinorCyclesPerMajor())

	sb.WriteString("entity resim_top is\n  generic (\n")
	fmt.Fprintf(&sb, "    WIDTH            : integer := %d;\n", cfg.Width)
	fmt.Fprintf(&sb, "    IFQ_ENTRIES      : integer := %d;\n", cfg.IFQSize)
	fmt.Fprintf(&sb, "    RB_ENTRIES       : integer := %d;\n", cfg.RBSize)
	fmt.Fprintf(&sb, "    LSQ_ENTRIES      : integer := %d;\n", cfg.LSQSize)
	fmt.Fprintf(&sb, "    MEM_READ_PORTS   : integer := %d;\n", cfg.MemReadPorts)
	fmt.Fprintf(&sb, "    MEM_WRITE_PORTS  : integer := %d;\n", cfg.MemWritePorts)
	fmt.Fprintf(&sb, "    MISFETCH_PENALTY : integer := %d;\n", cfg.MisfetchPenalty)
	fmt.Fprintf(&sb, "    MISPRED_PENALTY  : integer := %d;\n", cfg.MispredPenalty)
	fmt.Fprintf(&sb, "    MINOR_PER_MAJOR  : integer := %d\n", cfg.MinorCyclesPerMajor())
	sb.WriteString("  );\nend resim_top;\n\n")

	sb.WriteString("architecture structural of resim_top is\n")
	fuOrder := []struct {
		cls  uarch.FUClass
		name string
	}{{uarch.FUALU, "ALU"}, {uarch.FUMult, "MUL"}, {uarch.FUDiv, "DIV"}}
	for _, fu := range fuOrder {
		cls, name := fu.cls, fu.name
		spec := cfg.FUs[cls]
		pipe := "false"
		if spec.Pipelined {
			pipe = "true"
		}
		fmt.Fprintf(&sb, "  -- %s pool: %d unit(s), latency %d, pipelined %s\n",
			name, spec.Count, spec.Latency, pipe)
	}
	sb.WriteString("begin\n")
	stages := []struct{ inst, comment string }{
		{"u_fetch: fetch_stage", "IFQ, target resolution, misfetch check"},
		{"u_dispatch: dispatch_stage", "decouple buffer, rename table access, RB/LSQ allocate"},
		{"u_issue: issue_stage", "serial issue slots, FU arbitration"},
		{"u_lsq_refresh: lsq_refresh_stage", "memory disambiguation, store-to-load forwarding"},
		{"u_writeback: writeback_stage", "oldest-first broadcast and wakeup"},
		{"u_commit: commit_stage", "store release, predictor update, recovery"},
		{"u_rename: rename_table", "architectural register to producer map"},
		{"u_rob: reorder_buffer", "age-ordered instruction window"},
		{"u_lsq: load_store_queue", "age-ordered memory window"},
	}
	for _, s := range stages {
		fmt.Fprintf(&sb, "  %s; -- %s\n", s.inst, s.comment)
	}
	if cfg.PerfectBP {
		sb.WriteString("  -- branch predictor omitted: perfect prediction configuration\n")
	} else {
		sb.WriteString("  u_bpred: branch_predictor; -- generated entity follows\n")
	}
	icDesc := cacheDesc("icache_tags", cfg.ICache)
	dcDesc := cacheDesc("dcache_tags", cfg.DCache)
	sb.WriteString("  " + icDesc + "\n")
	sb.WriteString("  " + dcDesc + "\n")
	sb.WriteString("end structural;\n\n")

	if !cfg.PerfectBP {
		sb.WriteString(cfg.Predictor.Describe())
		sb.WriteString("\n")
	}

	total := area.Total()
	fmt.Fprintf(&sb, "-- Modeled resources: %d slices, %d LUTs, %d BRAMs (Virtex-4 units)\n",
		total.Slices, total.LUTs, total.BRAMs)
	fits, n := area.FitsIn(dev)
	if fits {
		fmt.Fprintf(&sb, "-- Fit: %s holds %d instance(s)\n", dev.Name, n)
	} else {
		fmt.Fprintf(&sb, "-- Fit: design does NOT fit %s\n", dev.Name)
	}
	mcps := dev.MinorClockMHz / float64(cfg.MinorCyclesPerMajor())
	fmt.Fprintf(&sb, "-- At %.0f MHz minor clock: %.2f M simulated cycles/s (x IPC = simulation MIPS)\n",
		dev.MinorClockMHz, mcps)
	return sb.String(), nil
}

func cacheDesc(name string, side cache.Side) string {
	if side.Perfect() {
		return fmt.Sprintf("-- %s omitted: perfect memory configuration", name)
	}
	g := side.L1
	return fmt.Sprintf("u_%s: cache_tag_unit; -- %dKB, %d-way, %dB blocks (%d sets, hit/miss only)",
		name, g.SizeBytes>>10, g.Assoc, g.BlockBytes, g.Sets())
}
