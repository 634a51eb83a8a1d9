package core

import (
	"fmt"
	"io"
	"testing"

	"repro/internal/isa"
	"repro/internal/sched"
	"repro/internal/trace"
	"repro/internal/uarch"
	"repro/internal/workload"
)

// dataflowBound is the oracle of TestCyclesAtLeastDataflowBound, computed
// from the trace alone: the longest register-dependence chain through the
// correct-path records, each weighted by its latency — the functional
// unit's for O and B records and store address generation, and 2 cycles
// for a load: one to generate its address, then at least one to read
// memory or forward from an older store, whatever the D side's latency.
// A consumer cannot start before its producers finish, so no machine
// finishes sooner. Wrong-path records are skipped: nothing on the correct
// path reads their results.
func dataflowBound(recs []trace.Record, fus uarch.FUConfig) uint64 {
	var ready [isa.NumRegs]uint64
	var bound uint64
	for _, r := range recs {
		if r.Tag {
			continue
		}
		lat := uint64(fus[uarch.FUALU].Latency)
		switch {
		case r.Kind == trace.KindMem && !r.Store:
			lat = 2
		case r.Kind == trace.KindOther && r.Class == trace.OpMul:
			lat = uint64(fus[uarch.FUMult].Latency)
		case r.Kind == trace.KindOther && r.Class == trace.OpDiv:
			lat = uint64(fus[uarch.FUDiv].Latency)
		}
		var start uint64
		for _, s := range [...]isa.Reg{r.Src1, r.Src2} {
			if s < isa.NumRegs {
				start = max(start, ready[s])
			}
		}
		done := start + lat
		if r.Dest < isa.NumRegs {
			ready[r.Dest] = done
		}
		bound = max(bound, done)
	}
	return bound
}

// TestCyclesAtLeastDataflowBound checks the engine against an oracle that
// shares no code with it: under PerfectBP and perfect memory, a run takes
// at least its trace's dataflow bound, on every profile and on one serial
// dependence chain (where the bound is nearly tight), at
// several widths, with the paper's window and with a window large enough
// that the dependence chains, not the queues, set the pace.
func TestCyclesAtLeastDataflowBound(t *testing.T) {
	base := DefaultConfig()
	base.PerfectBP = true
	traces := map[string][]trace.Record{}
	for _, p := range workload.Profiles() {
		src, err := p.NewSource(base.TraceConfig(), 20_000)
		if err != nil {
			t.Fatal(err)
		}
		for {
			r, err := src.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			traces[p.Name] = append(traces[p.Name], r)
		}
	}
	// One serial chain through r1 of ALU, multiply, divide and load
	// records: here the bound is the whole run but for the pipeline's fill.
	for i := 0; i < 4000; i++ {
		r := trace.Record{Kind: trace.KindOther, Class: trace.OpClass(i % 3), Dest: 1, Src1: 1, Src2: isa.NoReg}
		if i%4 == 3 {
			r = trace.Record{Kind: trace.KindMem, Addr: uint32(i) * 4, Dest: 1, Src1: 1, Src2: isa.NoReg}
		}
		traces["chain"] = append(traces["chain"], r)
	}

	type window struct{ ifq, rb, lsq int }
	for name, recs := range traces {
		bound := dataflowBound(recs, base.FUs)
		for _, width := range []int{1, 2, 4, 8} {
			for _, w := range []window{{4, 16, 8}, {64, 256, 128}} {
				cfg := base
				cfg.Width, cfg.IFQSize, cfg.RBSize, cfg.LSQSize = width, w.ifq, w.rb, w.lsq
				cfg.Organization = sched.OrgImproved
				cfg.MemReadPorts = min(2, width)
				t.Run(fmt.Sprintf("%s/w%d/rb%d", name, width, w.rb), func(t *testing.T) {
					res := run(t, cfg, recs)
					if res.Cycles < bound {
						t.Errorf("%d cycles for %d instructions, below the dataflow bound %d",
							res.Cycles, res.Committed, bound)
					}
					t.Logf("cycles %d, dataflow bound %d (%.2f)", res.Cycles, bound, float64(bound)/float64(res.Cycles))
				})
			}
		}
	}
}
