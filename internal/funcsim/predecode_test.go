package funcsim

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/bpred"
	"repro/internal/isa"
	"repro/internal/trace"
)

// traceAll runs p under cfg to HALT and returns every emitted record.
func traceAll(t *testing.T, p *Program, cfg TraceConfig) ([]trace.Record, *Machine) {
	t.Helper()
	m := mustMachine(t, p)
	var recs []trace.Record
	if _, err := NewTracer(m, cfg).Run(0, func(r trace.Record) error {
		recs = append(recs, r)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return recs, m
}

// referenceTrace is the correct-path trace of p built without the
// predecode table: before every step it decodes the word in memory at the
// PC, requires the machine to execute exactly that instruction, and builds
// the record from it with trace.FromInst.
func referenceTrace(t *testing.T, p *Program) []trace.Record {
	t.Helper()
	m := mustMachine(t, p)
	var recs []trace.Record
	for steps := 0; !m.Halted(); steps++ {
		if steps > 10_000 {
			t.Fatal("reference run does not halt")
		}
		pc := m.PC()
		in := isa.Decode(m.LoadWord(pc), pc)
		info, err := m.Step()
		if err != nil {
			t.Fatal(err)
		}
		if info.Inst != in {
			t.Fatalf("step %d at %#x executed %v, memory holds %v", steps, pc, info.Inst, in)
		}
		if in.Op != isa.OpHalt {
			recs = append(recs, trace.FromInst(in, pc, info.Addr, info.Taken, info.Target))
		}
	}
	return recs
}

// TestSelfModifyingCode: a loop stores into its own next instruction
// after that instruction was fetched once, with a word, a halfword and a
// byte store. The second pass must execute the new instruction, and the
// trace must equal one that decodes memory on every step.
func TestSelfModifyingCode(t *testing.T) {
	for _, tc := range []struct {
		name  string
		store func(data, base isa.Reg, off int32) isa.Inst
		value uint32
	}{
		{"word", isa.Sw, isa.Addi(2, 2, 7).Word()},
		{"half", isa.Sh, 7}, // the immediate is the word's low halfword
		{"byte", isa.Sb, 7}, // ... and its low byte
	} {
		t.Run(tc.name, func(t *testing.T) {
			code := append(isa.Li(1, tc.value), isa.Li(10, CodeBase)...)
			code = append(code, isa.I(isa.OpOri, 3, 0, 2)) // two passes
			target := len(code)
			code = append(code,
				isa.Addi(2, 2, 1), // target: becomes addi r2, r2, 7
				tc.store(1, 10, int32(4*target)),
				isa.Addi(3, 3, -1),
				isa.Bgtz(3, -4), // back to target
				isa.Halt(),
			)
			p := prog(code)
			got, m := traceAll(t, p, TraceConfig{PerfectBP: true})
			if r2 := m.Reg(2); r2 != 8 {
				t.Fatalf("r2 = %d, want 8: the second pass ran the stale instruction", r2)
			}
			if want := referenceTrace(t, p); !reflect.DeepEqual(got, want) {
				t.Fatalf("trace differs from decoding memory on every step:\n got %v\nwant %v", got, want)
			}
		})
	}
}

// TestWrongPathLeavesText: a mispredicted branch at the end of the text
// segment sends the wrong-path walk past the table, into a data segment
// holding instructions and then into memory never written, which decodes
// as NOPs.
func TestWrongPathLeavesText(t *testing.T) {
	code := []isa.Inst{
		isa.I(isa.OpOri, 1, 0, 1),
		isa.J(CodeBase + 3*4),
		isa.Halt(),      // the branch target
		isa.Bgtz(1, -2), // taken, predicted not-taken: the wrong path starts past the text
	}
	after := uint32(CodeBase + 4*len(code))
	data := AssembleAt(after, []isa.Inst{isa.Mul(2, 1, 1), isa.Lw(3, 1, 8)})
	cfg := TraceConfig{
		Predictor:    bpred.Config{Dir: bpred.DirNotTaken, BTBEntries: 512, BTBAssoc: 1, RASSize: 16},
		WrongPathLen: 4,
	}
	recs, _ := traceAll(t, prog(code, data), cfg)
	var wp []trace.Record
	for _, r := range recs {
		if r.Tag {
			wp = append(wp, r)
		}
	}
	tagged := func(r trace.Record) trace.Record { r.Tag = true; return r }
	want := []trace.Record{
		tagged(trace.FromInst(isa.Mul(2, 1, 1), after, 0, false, 0)),
		tagged(trace.FromInst(isa.Lw(3, 1, 8), after+4, 1+8, false, 0)),
		tagged(trace.FromInst(isa.Nop(), after+8, 0, false, 0)),
		tagged(trace.FromInst(isa.Nop(), after+12, 0, false, 0)),
	}
	if !reflect.DeepEqual(wp, want) {
		t.Fatalf("wrong path = %v, want %v", wp, want)
	}
}

// TestAliasedPCDecodesAgain: the arena mask makes PC+2^memBits read the
// same word as PC, but a branch decoded there has its own PC and target.
// A loop runs a branch at its real PC, then jumps to its alias above the
// mask and runs it again: the second record must carry the alias's PC and
// target.
func TestAliasedPCDecodesAgain(t *testing.T) {
	const alias = 1 << DefaultMemBits
	const b = 2 // the branch's index, after the two-instruction constant
	li := isa.Li(5, alias+CodeBase+4*b)
	if len(li) != b {
		t.Fatalf("loading the alias takes %d instructions, want %d", len(li), b)
	}
	code := append(li,
		isa.Beq(7, 0, 1), // b: taken on the first pass, not on the second
		isa.Halt(),
		isa.I(isa.OpOri, 7, 0, 1),
		isa.Jr(5), // to b's alias
	)
	p := prog(code)
	got, _ := traceAll(t, p, TraceConfig{PerfectBP: true})
	if want := referenceTrace(t, p); !reflect.DeepEqual(got, want) {
		t.Fatalf("trace differs from decoding memory on every step:\n got %v\nwant %v", got, want)
	}
	last := got[len(got)-1]
	bpc := uint32(alias + CodeBase + 4*b)
	if last.Kind != trace.KindBranch || last.PC != bpc || last.Taken || last.Target != bpc+8 {
		t.Fatalf("aliased branch record = %+v, want PC %#x, not taken, target %#x", last, bpc, bpc+8)
	}
}

// TestUntouchedMemoryReadsZero: every width reads 0 from memory never
// written, and reading allocates no page.
func TestUntouchedMemoryReadsZero(t *testing.T) {
	m := mustMachine(t, prog([]isa.Inst{isa.Halt()}))
	for _, a := range []uint32{0, DataBase, DataBase + pageSize + 6, 1<<DefaultMemBits - 4, 0xFFFF_FFF0} {
		if w, h, b := m.LoadWord(a), m.LoadHalf(a), m.LoadByte(a); w|uint32(h)|uint32(b) != 0 {
			t.Errorf("untouched %#x reads %#x/%#x/%#x", a, w, h, b)
		}
		if m.pages[a&m.mask/pageSize] != nil {
			t.Errorf("reading %#x allocated its page", a)
		}
	}
}

// TestSegmentSpansPages: segments crossing one and several page boundaries
// load byte for byte, and the bytes around them stay zero.
func TestSegmentSpansPages(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	segs := []Segment{
		{Base: DataBase + pageSize - 3, Data: make([]byte, 10)},
		{Base: DataBase + 8*pageSize + 100, Data: make([]byte, 3*pageSize)},
	}
	for _, s := range segs {
		rng.Read(s.Data)
	}
	m := mustMachine(t, prog([]isa.Inst{isa.Halt()}, segs...))
	for _, s := range segs {
		for i, want := range s.Data {
			if got := m.LoadByte(s.Base + uint32(i)); got != want {
				t.Fatalf("byte %d of the segment at %#x = %#x, want %#x", i, s.Base, got, want)
			}
		}
		if m.LoadByte(s.Base-1) != 0 || m.LoadByte(s.Base+uint32(len(s.Data))) != 0 {
			t.Errorf("segment at %#x spilled past its bounds", s.Base)
		}
	}
}

// TestFirstStackWriteAtArenaTop: the stack pointer starts 16 bytes below
// the arena top, and a push lands on the arena's last page.
func TestFirstStackWriteAtArenaTop(t *testing.T) {
	for _, bits := range []uint{12, 16, DefaultMemBits} {
		code := []isa.Inst{
			isa.I(isa.OpOri, 1, 0, 0x5A5A),
			isa.Sw(1, isa.RegSP, 12),
			isa.Halt(),
		}
		m, err := NewMachine(prog(code), bits)
		if err != nil {
			t.Fatal(err)
		}
		top := uint32(1<<bits) - 16
		if sp := m.Reg(isa.RegSP); sp != top {
			t.Fatalf("memBits %d: sp = %#x, want %#x", bits, sp, top)
		}
		last := len(m.pages) - 1
		if bits > pageBits && m.pages[last] != nil {
			t.Fatalf("memBits %d: the stack page exists before the first push", bits)
		}
		if _, err := m.Run(0); err != nil {
			t.Fatal(err)
		}
		if m.pages[last] == nil || m.LoadWord(top+12) != 0x5A5A {
			t.Fatalf("memBits %d: the push did not land at the arena top", bits)
		}
	}
}
