package funcsim

import (
	"io"
	"testing"

	"repro/internal/bpred"
	"repro/internal/isa"
	"repro/internal/trace"
)

// prog assembles code at CodeBase with entry at its start.
func prog(code []isa.Inst, data ...Segment) *Program {
	p := &Program{Entry: CodeBase, Segments: []Segment{AssembleAt(CodeBase, code)}}
	p.Segments = append(p.Segments, data...)
	return p
}

func mustMachine(t *testing.T, p *Program) *Machine {
	t.Helper()
	m, err := NewMachine(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestArithmeticProgram(t *testing.T) {
	code := []isa.Inst{
		isa.I(isa.OpOri, 1, 0, 6),
		isa.I(isa.OpOri, 2, 0, 7),
		isa.Mul(3, 1, 2),    // 42
		isa.Addi(3, 3, 100), // 142
		isa.Div(4, 3, 1),    // 23
		isa.Sub(5, 3, 4),    // 119
		isa.Halt(),
	}
	m := mustMachine(t, prog(code))
	n, err := m.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	if n != 7 {
		t.Errorf("executed %d instructions, want 7", n)
	}
	if !m.Halted() {
		t.Error("machine not halted")
	}
	if got := m.Reg(3); got != 142 {
		t.Errorf("r3 = %d, want 142", got)
	}
	if got := m.Reg(4); got != 23 {
		t.Errorf("r4 = %d, want 23", got)
	}
	if got := m.Reg(5); got != 119 {
		t.Errorf("r5 = %d, want 119", got)
	}
}

func TestLoopSum(t *testing.T) {
	// Sum 10..1 into r1.
	code := []isa.Inst{
		isa.I(isa.OpOri, 2, 0, 10),
		isa.Add(1, 1, 2), // loop:
		isa.Addi(2, 2, -1),
		isa.Bgtz(2, -3), // back to loop
		isa.Halt(),
	}
	m := mustMachine(t, prog(code))
	if _, err := m.Run(0); err != nil {
		t.Fatal(err)
	}
	if got := m.Reg(1); got != 55 {
		t.Errorf("sum = %d, want 55", got)
	}
}

func TestLoadStore(t *testing.T) {
	code := append(isa.Li(10, DataBase),
		isa.I(isa.OpOri, 1, 0, 0x1234),
		isa.Sw(1, 10, 8),
		isa.Lw(2, 10, 8),
		isa.Halt(),
	)
	m := mustMachine(t, prog(code))
	if _, err := m.Run(0); err != nil {
		t.Fatal(err)
	}
	if got := m.Reg(2); got != 0x1234 {
		t.Errorf("r2 = %#x, want 0x1234", got)
	}
	if got := m.LoadWord(DataBase + 8); got != 0x1234 {
		t.Errorf("mem = %#x, want 0x1234", got)
	}
}

func TestSubWordLoadsAndStores(t *testing.T) {
	code := append(isa.Li(10, DataBase),
		isa.I(isa.OpOri, 1, 0, 0x80), // 0x80: negative as int8
		isa.Sb(1, 10, 0),             // mem[0] = 0x80
		isa.Lb(2, 10, 0),             // sign-extends to 0xFFFFFF80
		isa.Lbu(3, 10, 0),            // zero-extends to 0x80
	)
	code = append(code,
		isa.I(isa.OpOri, 4, 0, 0x7FFF),
		isa.Addi(4, 4, 1), // 0x8000: negative as int16
		isa.Sh(4, 10, 4),
		isa.Lh(5, 10, 4),  // sign-extends
		isa.Lhu(6, 10, 4), // zero-extends
		isa.Halt(),
	)
	m := mustMachine(t, prog(code))
	if _, err := m.Run(0); err != nil {
		t.Fatal(err)
	}
	if got := m.Reg(2); got != 0xFFFFFF80 {
		t.Errorf("lb = %#x, want 0xffffff80", got)
	}
	if got := m.Reg(3); got != 0x80 {
		t.Errorf("lbu = %#x, want 0x80", got)
	}
	if got := m.Reg(5); got != 0xFFFF8000 {
		t.Errorf("lh = %#x, want 0xffff8000", got)
	}
	if got := m.Reg(6); got != 0x8000 {
		t.Errorf("lhu = %#x, want 0x8000", got)
	}
}

func TestByteStoreOnlyTouchesOneByte(t *testing.T) {
	code := append(isa.Li(10, DataBase),
		isa.I(isa.OpOri, 1, 0, 0x1234),
		isa.Sw(1, 10, 0),
		isa.I(isa.OpOri, 2, 0, 0xFF),
		isa.Sb(2, 10, 1), // overwrite byte 1 only
		isa.Lw(3, 10, 0),
		isa.Halt(),
	)
	m := mustMachine(t, prog(code))
	if _, err := m.Run(0); err != nil {
		t.Fatal(err)
	}
	if got := m.Reg(3); got != 0xFF34 {
		t.Errorf("word after byte store = %#x, want 0xff34", got)
	}
}

func TestSubWordTraceRecordsCarrySize(t *testing.T) {
	code := append(isa.Li(10, DataBase),
		isa.Sb(1, 10, 0),
		isa.Lh(2, 10, 0),
		isa.Lw(3, 10, 0),
		isa.Halt(),
	)
	m := mustMachine(t, prog(code))
	tr := NewTracer(m, TraceConfig{PerfectBP: true})
	var sizes []uint8
	if _, err := tr.Run(0, func(r trace.Record) error {
		if r.Kind == trace.KindMem {
			sizes = append(sizes, r.Size)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	want := []uint8{1, 2, 4}
	if len(sizes) != len(want) {
		t.Fatalf("mem records = %d, want %d", len(sizes), len(want))
	}
	for i := range want {
		if sizes[i] != want[i] {
			t.Errorf("record %d size = %d, want %d", i, sizes[i], want[i])
		}
	}
}

func TestCallReturn(t *testing.T) {
	funcAddr := uint32(CodeBase + 6*4)
	code := []isa.Inst{
		isa.Jal(funcAddr),          // 0
		isa.Addi(6, 5, 1),          // 1: runs after return; r6 = 43
		isa.Halt(),                 // 2
		isa.Nop(),                  // 3
		isa.Nop(),                  // 4
		isa.Nop(),                  // 5
		isa.I(isa.OpOri, 5, 0, 42), // 6: func
		isa.Jr(isa.RegRA),          // 7
	}
	m := mustMachine(t, prog(code))
	if _, err := m.Run(0); err != nil {
		t.Fatal(err)
	}
	if got := m.Reg(6); got != 43 {
		t.Errorf("r6 = %d, want 43", got)
	}
}

func TestIndirectJumpTable(t *testing.T) {
	// Jump through a register loaded from a table.
	tgt := uint32(CodeBase + 5*4)
	data := Segment{Base: DataBase, Data: []byte{
		byte(tgt), byte(tgt >> 8), byte(tgt >> 16), byte(tgt >> 24),
	}}
	code := append(isa.Li(10, DataBase),
		isa.Lw(11, 10, 0),
		isa.Jr(11),                // indirect jump (not ra)
		isa.Halt(),                // skipped
		isa.I(isa.OpOri, 7, 0, 9), // 5: landing pad (after 1-inst Li)
		isa.Halt(),
	)
	// Li(10, DataBase) is 1 or 2 instructions; recompute the landing pad.
	li := isa.Li(10, DataBase)
	land := uint32(CodeBase + uint32(len(li)+3)*4)
	data.Data = []byte{byte(land), byte(land >> 8), byte(land >> 16), byte(land >> 24)}
	m := mustMachine(t, prog(code, data))
	if _, err := m.Run(100); err != nil {
		t.Fatal(err)
	}
	if got := m.Reg(7); got != 9 {
		t.Errorf("r7 = %d, want 9 (indirect jump missed landing pad)", got)
	}
}

func TestStepAfterHalt(t *testing.T) {
	m := mustMachine(t, prog([]isa.Inst{isa.Halt()}))
	if _, err := m.Run(0); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Step(); err != ErrHalted {
		t.Errorf("err = %v, want ErrHalted", err)
	}
}

func TestMemoryMasking(t *testing.T) {
	m := mustMachine(t, prog([]isa.Inst{isa.Halt()}))
	// An address beyond the arena wraps instead of faulting.
	huge := uint32(0xFFFF_FF00)
	m.StoreWord(huge, 77)
	if got := m.LoadWord(huge); got != 77 {
		t.Errorf("wrapped load = %d, want 77", got)
	}
}

func TestDivByZeroYieldsZero(t *testing.T) {
	code := []isa.Inst{
		isa.I(isa.OpOri, 1, 0, 9),
		isa.Div(2, 1, 3), // r3 = 0
		isa.Halt(),
	}
	m := mustMachine(t, prog(code))
	if _, err := m.Run(0); err != nil {
		t.Fatal(err)
	}
	if got := m.Reg(2); got != 0 {
		t.Errorf("div by zero = %d, want 0", got)
	}
}

func TestNewMachineRejectsBadSizes(t *testing.T) {
	p := prog([]isa.Inst{isa.Halt()})
	if _, err := NewMachine(p, 8); err == nil {
		t.Error("memBits 8 accepted")
	}
	if _, err := NewMachine(p, 31); err == nil {
		t.Error("memBits 31 accepted")
	}
	big := &Program{Entry: 0, Segments: []Segment{{Base: 0, Data: make([]byte, 1<<13)}}}
	if _, err := NewMachine(big, 12); err == nil {
		t.Error("oversized segment accepted")
	}
}

// branchy returns a program whose conditional branch alternates
// taken/not-taken for iters iterations.
func branchy(iters int) *Program {
	code := []isa.Inst{
		isa.I(isa.OpOri, 2, 0, int32(iters)), // counter
		isa.I(isa.OpOri, 4, 0, 1),
		isa.R(isa.OpAnd, 0, 0, 0), // placeholder so loop starts at index 2
		// loop:
		isa.R(isa.OpAnd, 3, 2, 4), // r3 = r2 & 1
		isa.Beq(3, 0, 1),          // skip the add when even
		isa.Add(5, 5, 2),
		// skip:
		isa.Addi(2, 2, -1),
		isa.Bgtz(2, -5), // back to loop
		isa.Halt(),
	}
	return prog(code)
}

func TestTracerEmitsWrongPathBlocks(t *testing.T) {
	m := mustMachine(t, branchy(64))
	cfg := TraceConfig{Predictor: bpred.Default(), WrongPathLen: 20}
	tr := NewTracer(m, cfg)
	var recs []trace.Record
	n, err := tr.Run(0, func(r trace.Record) error {
		recs = append(recs, r)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("traced no instructions")
	}
	// Tagged records appear only in runs immediately following an untagged
	// branch record.
	runs := 0
	for i, r := range recs {
		if !r.Tag {
			continue
		}
		if i == 0 {
			t.Fatal("trace begins with a tagged record")
		}
		prev := recs[i-1]
		if !prev.Tag {
			if prev.Kind != trace.KindBranch {
				t.Fatalf("tagged block at %d follows %v, want branch", i, prev)
			}
			runs++
		}
	}
	if runs == 0 {
		t.Fatal("expected wrong-path runs after cold-start mispredictions")
	}
	// Run lengths are bounded by WrongPathLen.
	runLen := 0
	for _, r := range recs {
		if r.Tag {
			runLen++
			if runLen > cfg.WrongPathLen {
				t.Fatalf("wrong-path run exceeds %d", cfg.WrongPathLen)
			}
		} else {
			runLen = 0
		}
	}
}

func TestTracerPerfectBPHasNoWrongPath(t *testing.T) {
	m := mustMachine(t, branchy(64))
	tr := NewTracer(m, TraceConfig{PerfectBP: true, WrongPathLen: 20})
	var tagged int
	if _, err := tr.Run(0, func(r trace.Record) error {
		if r.Tag {
			tagged++
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if tagged != 0 {
		t.Errorf("perfect BP emitted %d tagged records", tagged)
	}
}

func TestWrongPathFollowsFallThrough(t *testing.T) {
	// With a static not-taken predictor, a taken branch mispredicts and the
	// wrong path is the fall-through: three recognizable MULs.
	code := []isa.Inst{
		isa.I(isa.OpOri, 1, 0, 1),
		isa.Bgtz(1, 4), // taken, predicted not-taken -> mispredict
		isa.Mul(2, 1, 1),
		isa.Mul(3, 1, 1),
		isa.Mul(4, 1, 1),
		isa.Nop(),
		isa.Halt(), // branch target
	}
	cfg := TraceConfig{
		Predictor:    bpred.Config{Dir: bpred.DirNotTaken, BTBEntries: 512, BTBAssoc: 1, RASSize: 16},
		WrongPathLen: 3,
	}
	m := mustMachine(t, prog(code))
	tr := NewTracer(m, cfg)
	var recs []trace.Record
	if _, err := tr.Run(0, func(r trace.Record) error {
		recs = append(recs, r)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	var wp []trace.Record
	for _, r := range recs {
		if r.Tag {
			wp = append(wp, r)
		}
	}
	if len(wp) != 3 {
		t.Fatalf("wrong-path block length = %d, want 3", len(wp))
	}
	for i, r := range wp {
		if r.Kind != trace.KindOther || r.Class != trace.OpMul {
			t.Errorf("wrong-path record %d = %v, want mul", i, r)
		}
	}
}

func TestWrongPathStopsAtHalt(t *testing.T) {
	code := []isa.Inst{
		isa.I(isa.OpOri, 1, 0, 1),
		isa.Bgtz(1, 2), // taken, mispredicted not-taken
		isa.Mul(2, 1, 1),
		isa.Halt(), // wrong path hits HALT after one instruction
		isa.Halt(), // branch target
	}
	cfg := TraceConfig{
		Predictor:    bpred.Config{Dir: bpred.DirNotTaken, BTBEntries: 512, BTBAssoc: 1, RASSize: 16},
		WrongPathLen: 10,
	}
	m := mustMachine(t, prog(code))
	tr := NewTracer(m, cfg)
	var tagged int
	if _, err := tr.Run(0, func(r trace.Record) error {
		if r.Tag {
			tagged++
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if tagged != 1 {
		t.Errorf("tagged = %d, want 1 (walk stops at halt)", tagged)
	}
}

func TestSourceStreamsSameRecords(t *testing.T) {
	cfg := TraceConfig{Predictor: bpred.Default(), WrongPathLen: 20}

	m1 := mustMachine(t, branchy(64))
	var want []trace.Record
	if _, err := NewTracer(m1, cfg).Run(0, func(r trace.Record) error {
		want = append(want, r)
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	m2 := mustMachine(t, branchy(64))
	src := NewSource(m2, cfg, 0)
	var got []trace.Record
	for {
		r, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, r)
	}
	if len(got) != len(want) {
		t.Fatalf("source yielded %d records, tracer %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("record %d differs: %v vs %v", i, got[i], want[i])
		}
	}
}

func TestSourceRespectsLimit(t *testing.T) {
	m := mustMachine(t, branchy(1000))
	src := NewSource(m, TraceConfig{PerfectBP: true}, 10)
	var n int
	for {
		if _, err := src.Next(); err != nil {
			break
		}
		n++
	}
	if n != 10 {
		t.Errorf("limited source yielded %d records, want 10", n)
	}
}

func TestTraceRecordsMatchExecution(t *testing.T) {
	// Every untagged record must correspond 1:1 to an executed instruction.
	m1 := mustMachine(t, branchy(32))
	var steps []StepInfo
	for !m1.Halted() {
		info, err := m1.Step()
		if err != nil {
			t.Fatal(err)
		}
		if info.Inst.Op == isa.OpHalt {
			break
		}
		steps = append(steps, info)
	}

	m2 := mustMachine(t, branchy(32))
	tr := NewTracer(m2, TraceConfig{Predictor: bpred.Default(), WrongPathLen: 8})
	var correct []trace.Record
	if _, err := tr.Run(0, func(r trace.Record) error {
		if !r.Tag {
			correct = append(correct, r)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(correct) != len(steps) {
		t.Fatalf("correct-path records = %d, executed = %d", len(correct), len(steps))
	}
	for i, r := range correct {
		want := trace.FromInst(steps[i].Inst, steps[i].PC, steps[i].Addr, steps[i].Taken, steps[i].Target)
		if r != want {
			t.Fatalf("record %d: %v, want %v", i, r, want)
		}
	}
}
