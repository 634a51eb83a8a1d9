// Package baseline provides the software comparison points of the paper's
// Table 2.
//
// ExecutionDriven couples the functional simulator to the timing engine on
// the fly — the sim-outorder execution model (and simultaneously the "trace
// on the fly directly from a functional simulator" mode of the paper's
// future work). Its measured host throughput is this repository's
// equivalent of the paper's "sim-outorder, PISA, 0.30 MIPS on a 2.4 GHz
// Xeon" row.
//
// InOrder is a simple scalar, in-order, 5-stage timing model in the spirit
// of the ProtoFlex uniprocessor the related-work section cites; it doubles
// as a sanity baseline: the out-of-order engine must beat it on IPC.
package baseline

import (
	"context"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/funcsim"
	"repro/internal/isa"
	"repro/internal/trace"
	"repro/internal/uarch"
)

// HostStats reports how fast the simulation itself ran on the host.
type HostStats struct {
	Wall     time.Duration
	HostMIPS float64 // simulated (committed) instructions per host second, in millions
}

// ExecutionDriven runs prog through the functional simulator and the timing
// engine simultaneously (no trace file), simulating up to limit
// instructions, and reports both the simulation result and host throughput.
func ExecutionDriven(ctx context.Context, cfg core.Config, prog *funcsim.Program, limit uint64) (core.Result, HostStats, error) {
	m, err := funcsim.NewMachine(prog, 0)
	if err != nil {
		return core.Result{}, HostStats{}, err
	}
	src := funcsim.NewSource(m, cfg.TraceConfig(), limit)
	eng, err := core.New(cfg, src, prog.Entry)
	if err != nil {
		return core.Result{}, HostStats{}, err
	}
	start := time.Now()
	res, err := eng.RunContext(ctx)
	wall := time.Since(start)
	hs := HostStats{Wall: wall}
	if sec := wall.Seconds(); sec > 0 {
		hs.HostMIPS = float64(res.Committed) / sec / 1e6
	}
	return res, hs, err
}

// InOrderConfig parameterizes the scalar in-order model.
type InOrderConfig struct {
	MispredPenalty int // refetch penalty on a wrong prediction
	FUs            uarch.FUConfig
}

// DefaultInOrderConfig matches the out-of-order engine's FU latencies with
// the same 3-cycle mispredict penalty.
func DefaultInOrderConfig() InOrderConfig {
	return InOrderConfig{MispredPenalty: 3, FUs: uarch.DefaultFUConfig()}
}

// InOrderResult summarizes an in-order run.
type InOrderResult struct {
	Cycles    uint64
	Committed uint64
}

// IPC returns instructions per cycle.
func (r InOrderResult) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Committed) / float64(r.Cycles)
}

// InOrder simulates a single-issue, in-order, blocking pipeline over a
// trace: every instruction pays its functional-unit latency serially
// against its producers, memory is perfect, taken branches cost a
// one-cycle redirect bubble, and wrong-path records are charged the
// mispredict penalty and skipped (an in-order scalar core gains nothing
// from wrong-path overlap).
func InOrder(cfg InOrderConfig, src trace.Source) (InOrderResult, error) {
	var (
		res     InOrderResult
		now     uint64
		readyAt [isa.NumRegs]uint64
	)
	buf := trace.NewBuffered(src)
	for {
		rec, err := buf.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return res, err
		}
		if rec.Tag {
			// Wrong-path block: the in-order model charges the penalty at
			// the branch and skips the block.
			continue
		}
		// Wait for source operands.
		for _, s := range []isa.Reg{rec.Src1, rec.Src2} {
			if s != isa.NoReg && s < isa.NumRegs && readyAt[s] > now {
				now = readyAt[s]
			}
		}
		issue := now
		var done uint64
		switch rec.Kind {
		case trace.KindMem:
			done = issue + 1 // perfect memory; a write buffer absorbs stores
		case trace.KindBranch:
			done = issue + 1
			if rec.Taken {
				now++ // redirect bubble
			}
			if next, err := buf.Peek(); err == nil && next.Tag {
				// The trace generator mispredicted here; an in-order scalar
				// with the same predictor pays the penalty.
				now += uint64(cfg.MispredPenalty)
			}
		default:
			lat := cfg.FUs[fuClass(rec.Class)].Latency
			done = issue + uint64(lat)
		}
		if rec.Dest != isa.NoReg && rec.Dest < isa.NumRegs {
			readyAt[rec.Dest] = done
		}
		now++
		if done > now {
			// Long-latency results block the scalar pipeline only when a
			// consumer needs them (scoreboarded above); issue continues.
			_ = done
		}
		res.Committed++
	}
	res.Cycles = now
	if res.Cycles == 0 && res.Committed > 0 {
		res.Cycles = res.Committed
	}
	return res, nil
}

func fuClass(c trace.OpClass) uarch.FUClass {
	switch c {
	case trace.OpMul:
		return uarch.FUMult
	case trace.OpDiv:
		return uarch.FUDiv
	default:
		return uarch.FUALU
	}
}
