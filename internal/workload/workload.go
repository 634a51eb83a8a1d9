// Package workload generates the synthetic stand-ins for the five SPECINT
// CPU2000 programs of the paper's evaluation (gzip, bzip2, parser, vortex,
// vpr with input=train). SPEC binaries and inputs cannot be redistributed,
// so each profile builds a real program for the internal ISA out of kernels
// that reproduce the benchmark's timing-relevant character — instruction
// mix, exploitable ILP, branch predictability, call depth, memory footprint
// and access pattern. The functional
// simulator executes these programs to produce ReSim traces, so the branch
// predictor, caches, LSQ and reorder buffer all see realistic, correlated
// dynamic streams rather than i.i.d. synthetic records.
//
// Kernels:
//
//	stream    sequential loads over an array (+ accumulate)
//	writes    strided stores over an array
//	chase     pointer chasing over a shuffled circular linked list
//	arith     k independent accumulator chains (ILP knob) + mul/div
//	branchy   data-dependent branches with a bias knob
//	calls     call chains of configurable depth (RAS exercise)
//	jumptable indirect jumps through a biased jump table
package workload

import (
	"encoding/binary"
	"fmt"
	"math/rand"

	"repro/internal/asm"
	"repro/internal/funcsim"
	"repro/internal/isa"
)

// Register allocation for generated programs.
const (
	rArrMask isa.Reg = 1  // array region mask
	rRoveArr isa.Reg = 2  // persistent roving offset over the array region
	rConst3  isa.Reg = 5  // small constant for mul/div
	rVal     isa.Reg = 6  // scratch value
	rBrBase  isa.Reg = 7  // branch-data region base
	rOuter   isa.Reg = 8  // outer loop counter
	rArray   isa.Reg = 9  // array region base
	rListCur isa.Reg = 10 // pointer-chase cursor
	rListHd  isa.Reg = 11 // list head
	rCnt     isa.Reg = 12 // inner loop counter
	rTmp     isa.Reg = 14
	rJT      isa.Reg = 15 // jump table base
	rAcc0    isa.Reg = 16 // accumulators r16..r23
	rRove    isa.Reg = 24 // persistent roving offset (branch data, jump table)
	rBrMask  isa.Reg = 25
	rScratch isa.Reg = 26
	rJTMask  isa.Reg = 27
)

// maxChains bounds arith ILP chains to the r16..r23 accumulator file.
const maxChains = 8

// jtSlots is the jump-table size in slots; contents are biased toward one
// landing pad according to JTBias.
const jtSlots = 64

// listNodeBytes spreads pointer-chase nodes one per cache line.
const listNodeBytes = 64

// Profile describes one synthetic benchmark. Kernel fields give inner
// iterations per outer-loop pass; zero disables the kernel.
type Profile struct {
	Name        string
	Description string
	Seed        int64

	Stream    int
	Writes    int
	Chase     int
	Arith     int
	Branchy   int
	Calls     int
	JumpTable int
	DivLoop   int // iterations of a small divide-bound loop
	ByteOps   int // byte-granular read-modify-write over the array region

	Chains     int     // arith ILP (1..8)
	WithMul    bool    // one mul per arith iteration
	WithDiv    bool    // one div per arith iteration
	Stride     int     // stream/writes step in bytes (0 = 4, sequential)
	ArrayBytes int     // stream/writes region (power of two)
	BranchData int     // branchy region bytes (power of two)
	BranchBias float64 // P(branch data word is odd) — predictability knob
	ListNodes  int     // pointer-chase nodes (64 B apart, shuffled)
	CallDepth  int     // call-chain depth
	JTPads     int     // distinct jump-table landing pads
	JTBias     float64 // fraction of table slots pointing at pad 0
}

// Validate reports profile construction errors.
func (p Profile) Validate() error {
	pow2 := func(field string, v int) error {
		if v <= 0 || v&(v-1) != 0 {
			return fmt.Errorf("workload %s: %s must be a positive power of two, got %d", p.Name, field, v)
		}
		return nil
	}
	if p.Chains < 0 || p.Chains > maxChains {
		return fmt.Errorf("workload %s: Chains %d out of range [0,%d]", p.Name, p.Chains, maxChains)
	}
	if p.Stream > 0 || p.Writes > 0 || p.ByteOps > 0 {
		if err := pow2("ArrayBytes", p.ArrayBytes); err != nil {
			return err
		}
		if p.Stride < 0 || p.Stride%4 != 0 {
			return fmt.Errorf("workload %s: Stride %d must be a non-negative multiple of 4", p.Name, p.Stride)
		}
	}
	if p.Branchy > 0 {
		if err := pow2("BranchData", p.BranchData); err != nil {
			return err
		}
		if p.BranchBias < 0 || p.BranchBias > 1 {
			return fmt.Errorf("workload %s: BranchBias %v", p.Name, p.BranchBias)
		}
	}
	if p.Chase > 0 && p.ListNodes < 2 {
		return fmt.Errorf("workload %s: Chase needs ListNodes >= 2", p.Name)
	}
	if p.Calls > 0 && (p.CallDepth < 1 || p.CallDepth > 16) {
		return fmt.Errorf("workload %s: CallDepth %d", p.Name, p.CallDepth)
	}
	if p.JumpTable > 0 {
		if p.JTPads < 1 || p.JTPads > 16 {
			return fmt.Errorf("workload %s: JTPads %d", p.Name, p.JTPads)
		}
		if p.JTBias < 0 || p.JTBias > 1 {
			return fmt.Errorf("workload %s: JTBias %v", p.Name, p.JTBias)
		}
	}
	return nil
}

// Build assembles the profile into a loadable program.
func (p Profile) Build() (*funcsim.Program, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(p.Seed))

	// Data layout (all within the funcsim arena).
	layout := newLayout(funcsim.DataBase)
	arrayBase := layout.region(max(p.ArrayBytes, 4))
	brBase := layout.region(max(p.BranchData, 4))
	listBase := layout.region(max(p.ListNodes, 1) * listNodeBytes)
	jtBase := layout.region(jtSlots * 4)

	b := asm.NewBuilder()

	// Initialization.
	b.Emit(isa.Li(rArray, arrayBase)...)
	b.Emit(isa.Li(rBrBase, brBase)...)
	b.Emit(isa.Li(rListHd, listBase)...)
	b.Emit(isa.Add(rListCur, rListHd, isa.RegZero))
	b.Emit(isa.Li(rJT, jtBase)...)
	b.Emit(isa.Li(rArrMask, uint32(max(p.ArrayBytes, 4)-1))...)
	b.Emit(isa.Li(rBrMask, uint32(max(p.BranchData, 4)-1))...)
	b.Emit(isa.Li(rJTMask, uint32(jtSlots*4-1))...)
	b.Emit(isa.I(isa.OpOri, rConst3, isa.RegZero, 3))
	// Effectively unbounded outer loop; tracing is bounded by the caller.
	b.Emit(isa.Li(rOuter, 1<<26)...)

	b.Label("outer")
	stride := p.Stride
	if stride == 0 {
		stride = 4
	}
	if p.Stream > 0 {
		emitStream(b, p.Stream, stride)
	}
	if p.ByteOps > 0 {
		emitByteOps(b, p.ByteOps)
	}
	if p.Arith > 0 {
		emitArith(b, p)
	}
	if p.Branchy > 0 {
		emitBranchy(b, p.Branchy)
	}
	if p.Chase > 0 {
		emitChase(b, p.Chase)
	}
	if p.Writes > 0 {
		emitWrites(b, p.Writes, stride)
	}
	if p.DivLoop > 0 {
		emitDivLoop(b, p.DivLoop)
	}
	if p.Calls > 0 {
		emitCallLoop(b, p.Calls, p.CallDepth)
	}
	if p.JumpTable > 0 {
		emitJumpTable(b, p.JumpTable, p.JTPads)
	}
	b.Emit(isa.Addi(rOuter, rOuter, -1))
	b.Branch(isa.OpBgtz, rOuter, 0, "outer")
	b.Emit(isa.Halt())

	if p.Calls > 0 {
		emitCallees(b, p.CallDepth)
	}

	code, err := b.Assemble(funcsim.CodeBase)
	if err != nil {
		return nil, err
	}

	prog := &funcsim.Program{
		Entry:    funcsim.CodeBase,
		Segments: []funcsim.Segment{funcsim.AssembleAt(funcsim.CodeBase, code)},
	}

	// Array region: random words.
	array := make([]byte, max(p.ArrayBytes, 4))
	for i := 0; i+4 <= len(array); i += 4 {
		binary.LittleEndian.PutUint32(array[i:], rng.Uint32())
	}
	prog.Segments = append(prog.Segments, funcsim.Segment{Base: arrayBase, Data: array})

	// Branch-data region: low bit set with probability BranchBias.
	if p.Branchy > 0 {
		br := make([]byte, p.BranchData)
		for i := 0; i+4 <= len(br); i += 4 {
			v := rng.Uint32() &^ 1
			if rng.Float64() < p.BranchBias {
				v |= 1
			}
			binary.LittleEndian.PutUint32(br[i:], v)
		}
		prog.Segments = append(prog.Segments, funcsim.Segment{Base: brBase, Data: br})
	}

	// Linked list: circular, shuffled node order for poor locality.
	if p.Chase > 0 {
		nodes := make([]byte, p.ListNodes*listNodeBytes)
		perm := rng.Perm(p.ListNodes)
		// Chain node perm[i] -> perm[i+1]; the first node must be the list
		// head at listBase, so rotate the permutation to start at node 0.
		for i, v := range perm {
			if v == 0 {
				perm[0], perm[i] = perm[i], perm[0]
				break
			}
		}
		for i := 0; i < p.ListNodes; i++ {
			cur := perm[i]
			next := perm[(i+1)%p.ListNodes]
			addr := listBase + uint32(next*listNodeBytes)
			binary.LittleEndian.PutUint32(nodes[cur*listNodeBytes:], addr)
		}
		prog.Segments = append(prog.Segments, funcsim.Segment{Base: listBase, Data: nodes})
	}

	// Jump table: biased pad addresses.
	if p.JumpTable > 0 {
		jt := make([]byte, jtSlots*4)
		for i := 0; i < jtSlots; i++ {
			pad := 0
			if rng.Float64() >= p.JTBias {
				pad = 1 + rng.Intn(p.JTPads)
				if pad >= p.JTPads {
					pad = p.JTPads - 1
				}
			}
			addr, err := b.AddrOf(fmt.Sprintf("jtpad%d", pad), funcsim.CodeBase)
			if err != nil {
				return nil, err
			}
			binary.LittleEndian.PutUint32(jt[i*4:], addr)
		}
		prog.Segments = append(prog.Segments, funcsim.Segment{Base: jtBase, Data: jt})
	}

	return prog, nil
}

// NewMachine builds the program and loads it into a fresh functional
// machine with the default arena, ready to run from the program's entry
// point. Every trace of the profile, streamed or cached, starts here.
func (p Profile) NewMachine() (*funcsim.Machine, error) {
	prog, err := p.Build()
	if err != nil {
		return nil, err
	}
	return funcsim.NewMachine(prog, 0)
}

// NewSource returns an on-the-fly trace source over a fresh machine (limit
// bounds correct-path instructions; 0 = run free).
func (p Profile) NewSource(tc funcsim.TraceConfig, limit uint64) (*funcsim.Source, error) {
	m, err := p.NewMachine()
	if err != nil {
		return nil, err
	}
	return funcsim.NewSource(m, tc, limit), nil
}

// layout hands out aligned data regions.
type layout struct{ next uint32 }

func newLayout(base uint32) *layout { return &layout{next: base} }

func (l *layout) region(bytes int) uint32 {
	// 256-byte alignment keeps regions cache-line disjoint.
	l.next = (l.next + 255) &^ 255
	r := l.next
	l.next += uint32(bytes)
	return r
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// --- kernel emitters -------------------------------------------------------

// emitStream walks the array region sequentially via the persistent roving
// offset, so successive outer passes cover the whole ArrayBytes working set
// with high spatial locality (one miss per cache line when it exceeds L1).
func emitStream(b *asm.Builder, iters, stride int) {
	lbl := fmt.Sprintf("stream%d", b.Len())
	b.Emit(isa.I(isa.OpOri, rCnt, isa.RegZero, int32(iters)))
	b.Label(lbl)
	b.Emit(isa.R(isa.OpAnd, rScratch, rRoveArr, rArrMask))
	b.Emit(isa.Add(rScratch, rScratch, rArray))
	b.Emit(isa.Lw(rTmp, rScratch, 0))
	b.Emit(isa.Add(rAcc0, rAcc0, rTmp))
	b.Emit(isa.Addi(rRoveArr, rRoveArr, int32(stride)))
	b.Emit(isa.Addi(rCnt, rCnt, -1))
	b.Branch(isa.OpBgtz, rCnt, 0, lbl)
}

func emitWrites(b *asm.Builder, iters, stride int) {
	lbl := fmt.Sprintf("writes%d", b.Len())
	b.Emit(isa.I(isa.OpOri, rCnt, isa.RegZero, int32(iters)))
	b.Label(lbl)
	b.Emit(isa.R(isa.OpAnd, rScratch, rRoveArr, rArrMask))
	b.Emit(isa.Add(rScratch, rScratch, rArray))
	b.Emit(isa.Sw(rAcc0, rScratch, 0))
	b.Emit(isa.Addi(rRoveArr, rRoveArr, int32(stride)))
	b.Emit(isa.Addi(rCnt, rCnt, -1))
	b.Branch(isa.OpBgtz, rCnt, 0, lbl)
}

// emitByteOps is a byte-granular read-modify-write walk over the array —
// the inner-loop character of byte-oriented compressors (gzip's literal
// handling, bzip2's BWT byte shuffling). The sb depends on the lb through
// the increment, exercising the LSQ's sub-word coverage checks.
func emitByteOps(b *asm.Builder, iters int) {
	lbl := fmt.Sprintf("byteops%d", b.Len())
	b.Emit(isa.I(isa.OpOri, rCnt, isa.RegZero, int32(iters)))
	b.Label(lbl)
	b.Emit(isa.R(isa.OpAnd, rScratch, rRoveArr, rArrMask))
	b.Emit(isa.Add(rScratch, rScratch, rArray))
	b.Emit(isa.Lb(rTmp, rScratch, 0))
	b.Emit(isa.Addi(rTmp, rTmp, 1))
	b.Emit(isa.Sb(rTmp, rScratch, 0))
	b.Emit(isa.Addi(rRoveArr, rRoveArr, 1))
	b.Emit(isa.Addi(rCnt, rCnt, -1))
	b.Branch(isa.OpBgtz, rCnt, 0, lbl)
}

// emitDivLoop is a short divide-bound loop: one unpipelined divide per
// iteration plus loop control, modeling division-heavy phases without
// serializing the surrounding kernels.
func emitDivLoop(b *asm.Builder, iters int) {
	lbl := fmt.Sprintf("divloop%d", b.Len())
	b.Emit(isa.I(isa.OpOri, rCnt, isa.RegZero, int32(iters)))
	b.Label(lbl)
	b.Emit(isa.Div(rTmp, rCnt, rConst3))
	b.Emit(isa.Add(rAcc0+4, rAcc0+4, rTmp))
	b.Emit(isa.Addi(rCnt, rCnt, -1))
	b.Branch(isa.OpBgtz, rCnt, 0, lbl)
}

func emitChase(b *asm.Builder, iters int) {
	lbl := fmt.Sprintf("chase%d", b.Len())
	b.Emit(isa.I(isa.OpOri, rCnt, isa.RegZero, int32(iters)))
	b.Label(lbl)
	b.Emit(isa.Lw(rListCur, rListCur, 0)) // cur = cur->next: serialized
	b.Emit(isa.Addi(rCnt, rCnt, -1))
	b.Branch(isa.OpBgtz, rCnt, 0, lbl)
}

func emitArith(b *asm.Builder, p Profile) {
	lbl := fmt.Sprintf("arith%d", b.Len())
	b.Emit(isa.I(isa.OpOri, rCnt, isa.RegZero, int32(p.Arith)))
	b.Label(lbl)
	chains := p.Chains
	if chains < 1 {
		chains = 1
	}
	for c := 0; c < chains; c++ {
		acc := rAcc0 + isa.Reg(c)
		b.Emit(isa.Add(acc, acc, rCnt))
	}
	if p.WithMul {
		b.Emit(isa.Mul(rVal, rVal, rConst3))
	}
	if p.WithDiv {
		b.Emit(isa.Div(rTmp, rCnt, rConst3))
	}
	b.Emit(isa.Addi(rCnt, rCnt, -1))
	b.Branch(isa.OpBgtz, rCnt, 0, lbl)
}

func emitBranchy(b *asm.Builder, iters int) {
	lbl := fmt.Sprintf("branchy%d", b.Len())
	skip := lbl + "_skip"
	b.Emit(isa.I(isa.OpOri, rCnt, isa.RegZero, int32(iters)))
	b.Label(lbl)
	b.Emit(isa.R(isa.OpAnd, rScratch, rRove, rBrMask))
	b.Emit(isa.Add(rScratch, rScratch, rBrBase))
	b.Emit(isa.Lw(rTmp, rScratch, 0))
	b.Emit(isa.I(isa.OpAndi, rTmp, rTmp, 1))
	b.Branch(isa.OpBeq, rTmp, isa.RegZero, skip)
	b.Emit(isa.Add(rAcc0+1, rAcc0+1, rTmp))
	b.Label(skip)
	b.Emit(isa.Addi(rRove, rRove, 4))
	b.Emit(isa.Addi(rCnt, rCnt, -1))
	b.Branch(isa.OpBgtz, rCnt, 0, lbl)
}

func emitCallLoop(b *asm.Builder, iters, depth int) {
	lbl := fmt.Sprintf("calls%d", b.Len())
	b.Emit(isa.I(isa.OpOri, rCnt, isa.RegZero, int32(iters)))
	b.Label(lbl)
	b.Call(fmt.Sprintf("fn%d", depth))
	b.Emit(isa.Addi(rCnt, rCnt, -1))
	b.Branch(isa.OpBgtz, rCnt, 0, lbl)
}

// emitCallees lays down fn1..fnDepth, where fnK saves ra on the stack,
// calls fnK-1 and returns; fn0 is a small leaf.
func emitCallees(b *asm.Builder, depth int) {
	for k := depth; k >= 1; k-- {
		b.Label(fmt.Sprintf("fn%d", k))
		b.Emit(isa.Addi(isa.RegSP, isa.RegSP, -4))
		b.Emit(isa.Sw(isa.RegRA, isa.RegSP, 0))
		b.Call(fmt.Sprintf("fn%d", k-1))
		b.Emit(isa.Lw(isa.RegRA, isa.RegSP, 0))
		b.Emit(isa.Addi(isa.RegSP, isa.RegSP, 4))
		b.Emit(isa.Jr(isa.RegRA))
	}
	b.Label("fn0")
	b.Emit(isa.Add(rVal, rVal, rConst3))
	b.Emit(isa.Add(rAcc0+2, rAcc0+2, rVal))
	b.Emit(isa.Jr(isa.RegRA))
}

func emitJumpTable(b *asm.Builder, iters, pads int) {
	lbl := fmt.Sprintf("jt%d", b.Len())
	cont := lbl + "_cont"
	b.Emit(isa.I(isa.OpOri, rCnt, isa.RegZero, int32(iters)))
	b.Label(lbl)
	b.Emit(isa.R(isa.OpAnd, rScratch, rRove, rJTMask))
	b.Emit(isa.Add(rScratch, rScratch, rJT))
	b.Emit(isa.Lw(rTmp, rScratch, 0))
	b.Emit(isa.Jr(rTmp)) // indirect jump (rTmp != ra)
	for p := 0; p < pads; p++ {
		b.Label(fmt.Sprintf("jtpad%d", p))
		b.Emit(isa.Addi(rAcc0+3, rAcc0+3, int32(p+1)))
		b.Jump(cont)
	}
	b.Label(cont)
	b.Emit(isa.Addi(rRove, rRove, 4))
	b.Emit(isa.Addi(rCnt, rCnt, -1))
	b.Branch(isa.OpBgtz, rCnt, 0, lbl)
}
