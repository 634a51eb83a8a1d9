package ptrace

import (
	"context"
	"strings"
	"testing"

	"repro/internal/bpred"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/trace"
)

func alu(dst isa.Reg) trace.Record {
	return trace.Record{Kind: trace.KindOther, Class: trace.OpALU,
		Dest: dst, Src1: isa.NoReg, Src2: isa.NoReg}
}

func run(t *testing.T, recs []trace.Record, limit int) *Collector {
	t.Helper()
	col := New(limit)
	cfg := core.DefaultConfig()
	cfg.PerfectBP = true
	eng, err := core.New(cfg, trace.NewSliceSource(recs), 0x1000)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.RunHooks(context.Background(), core.Hooks{PipeTracer: col}); err != nil {
		t.Fatal(err)
	}
	return col
}

func TestSingleInstructionStageCycles(t *testing.T) {
	// The canonical five-stage flow: fetch@0, dispatch@1, issue@2,
	// writeback@3, commit@4 — the same timing engine tests pin via cycle
	// counts, observed here through the ptrace channel.
	col := run(t, []trace.Record{alu(2)}, 10)
	want := map[string]int64{
		"fetch": 0, "dispatch": 1, "issue": 2, "writeback": 3, "commit": 4,
	}
	for stage, cycle := range want {
		if got := col.StageCycle(0, stage); got != cycle {
			t.Errorf("%s at cycle %d, want %d", stage, got, cycle)
		}
	}
}

func TestDependentChainStaggers(t *testing.T) {
	// r2 -> r3 -> r4 chain: each issue happens one cycle after its
	// producer's, starting when the producer broadcasts.
	recs := []trace.Record{
		alu(2),
		{Kind: trace.KindOther, Class: trace.OpALU, Dest: 3, Src1: 2, Src2: isa.NoReg},
		{Kind: trace.KindOther, Class: trace.OpALU, Dest: 4, Src1: 3, Src2: isa.NoReg},
	}
	col := run(t, recs, 10)
	for seq := int64(1); seq <= 2; seq++ {
		prev := col.StageCycle(seq-1, "issue")
		cur := col.StageCycle(seq, "issue")
		if cur != prev+1 {
			t.Errorf("seq %d issued at %d, producer at %d (want +1)", seq, cur, prev)
		}
	}
}

func TestSquashRecorded(t *testing.T) {
	recs := []trace.Record{
		{Kind: trace.KindBranch, Ctrl: isa.CtrlCond, Taken: true, Target: 0x2000,
			Dest: isa.NoReg, Src1: 1, Src2: isa.NoReg},
	}
	for i := 0; i < 4; i++ {
		r := alu(3)
		r.Tag = true
		recs = append(recs, r)
	}
	col := New(10)
	cfg := core.DefaultConfig()
	cfg.Predictor.Dir = bpred.DirNotTaken
	eng, err := core.New(cfg, trace.NewSliceSource(recs), 0x1000)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.RunHooks(context.Background(), core.Hooks{PipeTracer: col}); err != nil {
		t.Fatal(err)
	}
	// The wrong-path instructions (seq 1..4) must record a squash at the
	// branch's commit cycle.
	commitCycle := col.StageCycle(0, "commit")
	if commitCycle < 0 {
		t.Fatal("branch commit not captured")
	}
	squashed := 0
	for seq := int64(1); seq <= 4; seq++ {
		if c := col.StageCycle(seq, "squash"); c == commitCycle {
			squashed++
		}
	}
	if squashed == 0 {
		t.Error("no wrong-path squashes recorded")
	}
	out := col.Render()
	if !strings.Contains(out, "x") {
		t.Error("render missing squash marks")
	}
	if !strings.Contains(out, "~") {
		t.Error("render missing wrong-path marker")
	}
}

func TestLimitBoundsCapture(t *testing.T) {
	recs := make([]trace.Record, 20)
	for i := range recs {
		recs[i] = alu(isa.Reg(2 + i%8))
	}
	col := run(t, recs, 5)
	if col.Count() != 5 {
		t.Errorf("captured %d, want 5", col.Count())
	}
}

func TestRenderShape(t *testing.T) {
	col := run(t, []trace.Record{alu(2), alu(3)}, 10)
	out := col.Render()
	for _, want := range []string{"pipeline trace", "F", "D", "I", "W", "C", "00001000"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	empty := New(3)
	if !strings.Contains(empty.Render(), "no instructions") {
		t.Error("empty render wrong")
	}
}

func TestStageCycleUnknowns(t *testing.T) {
	col := run(t, []trace.Record{alu(2)}, 1)
	if col.StageCycle(99, "issue") != -1 {
		t.Error("unknown seq should be -1")
	}
	if col.StageCycle(0, "retire") != -1 {
		t.Error("unknown stage should be -1")
	}
}
