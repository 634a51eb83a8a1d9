package baseline

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/funcsim"
	"repro/internal/isa"
	"repro/internal/trace"
	"repro/internal/workload"
)

func TestExecutionDrivenMatchesTraceDriven(t *testing.T) {
	// Execution-driven coupling must produce exactly the same simulated
	// timing as pre-generating the trace and feeding it to the engine.
	p, err := workload.ByName("gzip")
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	const limit = 20000

	prog, err := p.Build()
	if err != nil {
		t.Fatal(err)
	}
	onTheFly, _, err := ExecutionDriven(context.Background(), cfg, prog, limit)
	if err != nil {
		t.Fatal(err)
	}

	// Pre-generate the same trace into memory, then simulate.
	src, err := p.NewSource(funcsim.TraceConfig{
		Predictor: cfg.Predictor, WrongPathLen: cfg.WrongPathLen(),
	}, limit)
	if err != nil {
		t.Fatal(err)
	}
	var recs []trace.Record
	for {
		r, err := src.Next()
		if err != nil {
			break
		}
		recs = append(recs, r)
	}
	eng, err := core.New(cfg, trace.NewSliceSource(recs), funcsim.CodeBase)
	if err != nil {
		t.Fatal(err)
	}
	offline, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if onTheFly.Cycles != offline.Cycles || onTheFly.Committed != offline.Committed {
		t.Errorf("on-the-fly %d cycles/%d insn vs offline %d/%d",
			onTheFly.Cycles, onTheFly.Committed, offline.Cycles, offline.Committed)
	}
	if onTheFly.Counters != offline.Counters {
		t.Errorf("counter mismatch:\n%+v\n%+v", onTheFly.Counters, offline.Counters)
	}
}

func TestExecutionDrivenReportsHostSpeed(t *testing.T) {
	p, err := workload.ByName("vpr")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := p.Build()
	if err != nil {
		t.Fatal(err)
	}
	res, hs, err := ExecutionDriven(context.Background(), core.DefaultConfig(), prog, 10000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Committed == 0 {
		t.Fatal("nothing committed")
	}
	if hs.HostMIPS <= 0 || hs.Wall <= 0 {
		t.Errorf("host stats not measured: %+v", hs)
	}
}

func TestInOrderScalarIPCBounds(t *testing.T) {
	recs := []trace.Record{
		{Kind: trace.KindOther, Class: trace.OpALU, Dest: 2, Src1: isa.NoReg, Src2: isa.NoReg},
		{Kind: trace.KindOther, Class: trace.OpALU, Dest: 3, Src1: 2, Src2: isa.NoReg},
		{Kind: trace.KindOther, Class: trace.OpALU, Dest: 4, Src1: 3, Src2: isa.NoReg},
	}
	res, err := InOrder(DefaultInOrderConfig(), trace.NewSliceSource(recs))
	if err != nil {
		t.Fatal(err)
	}
	if res.Committed != 3 {
		t.Fatalf("committed = %d", res.Committed)
	}
	if ipc := res.IPC(); ipc > 1.0 {
		t.Errorf("scalar in-order IPC = %.2f > 1", ipc)
	}
}

func TestInOrderDivStalls(t *testing.T) {
	// A dependent chain of divides pays the 10-cycle latency each.
	recs := []trace.Record{
		{Kind: trace.KindOther, Class: trace.OpDiv, Dest: 2, Src1: isa.NoReg, Src2: isa.NoReg},
		{Kind: trace.KindOther, Class: trace.OpDiv, Dest: 3, Src1: 2, Src2: isa.NoReg},
	}
	res, err := InOrder(DefaultInOrderConfig(), trace.NewSliceSource(recs))
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles < 11 {
		t.Errorf("cycles = %d, want >= 11 (dependent divides)", res.Cycles)
	}
}

func TestInOrderSkipsWrongPath(t *testing.T) {
	recs := []trace.Record{
		{Kind: trace.KindBranch, Ctrl: isa.CtrlCond, Taken: true, Target: 0x2000,
			Dest: isa.NoReg, Src1: 1, Src2: isa.NoReg},
		{Kind: trace.KindOther, Tag: true, Dest: isa.NoReg, Src1: isa.NoReg, Src2: isa.NoReg},
		{Kind: trace.KindOther, Tag: true, Dest: isa.NoReg, Src1: isa.NoReg, Src2: isa.NoReg},
		{Kind: trace.KindOther, Dest: 5, Src1: isa.NoReg, Src2: isa.NoReg},
	}
	res, err := InOrder(DefaultInOrderConfig(), trace.NewSliceSource(recs))
	if err != nil {
		t.Fatal(err)
	}
	if res.Committed != 2 {
		t.Errorf("committed = %d, want 2 (wrong path skipped)", res.Committed)
	}
}

func TestOutOfOrderBeatsInOrder(t *testing.T) {
	// The whole point of the simulated microarchitecture: on every profile
	// the 4-wide OoO engine must exceed the scalar in-order IPC.
	for _, name := range []string{"gzip", "bzip2"} {
		p, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		cfg := core.DefaultConfig()
		tc := funcsim.TraceConfig{Predictor: cfg.Predictor, WrongPathLen: cfg.WrongPathLen()}

		src, err := p.NewSource(tc, 30000)
		if err != nil {
			t.Fatal(err)
		}
		var recs []trace.Record
		for {
			r, err := src.Next()
			if err != nil {
				break
			}
			recs = append(recs, r)
		}
		eng, err := core.New(cfg, trace.NewSliceSource(recs), funcsim.CodeBase)
		if err != nil {
			t.Fatal(err)
		}
		ooo, err := eng.Run()
		if err != nil {
			t.Fatal(err)
		}
		ino, err := InOrder(DefaultInOrderConfig(), trace.NewSliceSource(recs))
		if err != nil {
			t.Fatal(err)
		}
		if ooo.IPC() <= ino.IPC() {
			t.Errorf("%s: OoO IPC %.2f <= in-order IPC %.2f", name, ooo.IPC(), ino.IPC())
		}
	}
}
