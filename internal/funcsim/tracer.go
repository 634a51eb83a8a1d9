package funcsim

import (
	"io"

	"repro/internal/bpred"
	"repro/internal/isa"
	"repro/internal/trace"
)

// TraceConfig parameterizes sim-bpred-style trace generation.
type TraceConfig struct {
	// Predictor is the trace-generation predictor configuration; it should
	// match the simulated processor's predictor so the mis-prediction points
	// in the trace line up with the ones ReSim discovers (the paper uses the
	// same predictor in sim-bpred for exactly this reason).
	Predictor bpred.Config
	// PerfectBP disables wrong-path generation entirely: with a perfect
	// predictor there are no mis-speculated instructions (Table 1, right).
	PerfectBP bool
	// WrongPathLen is the number of wrong-path instructions inserted after a
	// mispredicted branch. The paper's conservative choice is "Reorder
	// Buffer size plus IFQ size".
	WrongPathLen int
}

// Tracer couples a Machine with a branch predictor and produces the ReSim
// input trace, including tagged wrong-path blocks after each mispredicted
// branch (paper §V.A).
type Tracer struct {
	m   *Machine
	cfg TraceConfig
	bp  *bpred.Predictor
}

// NewTracer builds a tracer over m.
func NewTracer(m *Machine, cfg TraceConfig) *Tracer {
	t := &Tracer{m: m, cfg: cfg}
	if !cfg.PerfectBP {
		t.bp = bpred.New(cfg.Predictor)
	}
	return t
}

// Machine returns the underlying functional machine.
func (t *Tracer) Machine() *Machine { return t.m }

// Step executes one instruction, emitting its record plus any wrong-path
// block. It returns io.EOF once the machine has halted.
func (t *Tracer) Step(emit func(trace.Record) error) error {
	if t.m.Halted() {
		return io.EOF
	}
	info, err := t.m.Step()
	if err != nil {
		return err
	}
	if info.Inst.Op == isa.OpHalt {
		// HALT marks end of program; it does not appear in the trace
		// (SimpleScalar ends the trace at the exit syscall).
		return io.EOF
	}
	rec := trace.FromInst(info.Inst, info.PC, info.Addr, info.Taken, info.Target)
	if err := emit(rec); err != nil {
		return err
	}
	if info.Inst.Class() != isa.ClassCtrl {
		return nil
	}
	if t.cfg.PerfectBP {
		return nil
	}
	mispred, wrongPC := t.predictAndUpdate(info)
	if !mispred {
		return nil
	}
	return t.emitWrongPath(wrongPC, emit)
}

// predictAndUpdate runs the sim-bpred predictor over one resolved branch,
// mirroring the prediction rules the timing engine applies at fetch:
// conditionals use the direction predictor (targets are direct and resolve
// at fetch); direct jumps/calls never mispredict; returns use the RAS;
// other indirects use the BTB. It returns whether the branch mispredicted
// and, if so, the PC where the wrong path starts.
func (t *Tracer) predictAndUpdate(info StepInfo) (mispred bool, wrongPC uint32) {
	pc := info.PC
	fallthrough4 := pc + 4
	kind := info.Inst.Ctrl()

	switch kind {
	case isa.CtrlCond:
		predTaken := t.bp.PredictDir(pc)
		if predTaken != info.Taken {
			mispred = true
			if predTaken {
				wrongPC = info.Target // predicted the (direct) target
			} else {
				wrongPC = fallthrough4
			}
		}
		t.bp.UpdateDir(pc, info.Taken)
		if info.Taken {
			t.bp.UpdateBTB(pc, info.Target)
		}
	case isa.CtrlJump:
		// Direct, unconditional: target resolution at fetch; no wrong path.
		t.bp.UpdateBTB(pc, info.Target)
	case isa.CtrlCall:
		t.bp.UpdateBTB(pc, info.Target)
		t.bp.PushRAS(fallthrough4)
	case isa.CtrlRet:
		predTarget, ok := t.bp.PopRAS()
		if !ok || predTarget != info.Target {
			mispred = true
			if ok {
				wrongPC = predTarget
			} else {
				wrongPC = fallthrough4 // no prediction: fetch falls through
			}
		}
	case isa.CtrlIndirect, isa.CtrlIndCall:
		predTarget, ok := t.bp.LookupBTB(pc)
		if !ok || predTarget != info.Target {
			mispred = true
			if ok {
				wrongPC = predTarget
			} else {
				wrongPC = fallthrough4
			}
		}
		t.bp.UpdateBTB(pc, info.Target)
		if kind == isa.CtrlIndCall {
			t.bp.PushRAS(fallthrough4)
		}
	}
	return mispred, wrongPC
}

// emitWrongPath walks the mis-speculated path starting at wrongPC for up to
// WrongPathLen instructions, emitting tagged records. The walk decodes real
// bytes from the machine's memory without architectural side effects:
// conditionals are assumed not-taken, direct jumps and calls are followed,
// indirect targets come from the current register file, and memory
// addresses are computed from the current register file (the paper: ReSim
// "will fetch the instructions from the wrong path and model their effects
// in instruction processing, caches, etc").
func (t *Tracer) emitWrongPath(wrongPC uint32, emit func(trace.Record) error) error {
	pc := wrongPC
	for i := 0; i < t.cfg.WrongPathLen; i++ {
		in := t.m.FetchInst(pc)
		if in.Op == isa.OpHalt {
			break
		}
		var (
			addr   uint32
			taken  bool
			target uint32
		)
		switch in.Class() {
		case isa.ClassLoad, isa.ClassStore:
			addr = t.m.Reg(in.B) + uint32(in.Imm)
		case isa.ClassCtrl:
			switch in.Ctrl() {
			case isa.CtrlJump, isa.CtrlCall:
				taken, target = true, in.Target
			case isa.CtrlRet, isa.CtrlIndirect, isa.CtrlIndCall:
				taken, target = true, t.m.Reg(in.B)&^3
			default: // conditional: assumed not-taken on the wrong path
				taken, target = false, in.Target
			}
		}
		rec := trace.FromInst(in, pc, addr, taken, target)
		rec.Tag = true
		if err := emit(rec); err != nil {
			return err
		}
		if taken {
			pc = target
		} else {
			pc += 4
		}
	}
	return nil
}

// Run traces up to limit correct-path instructions (0 = until HALT).
// It returns the number of correct-path instructions traced.
func (t *Tracer) Run(limit uint64, emit func(trace.Record) error) (uint64, error) {
	var n uint64
	for limit == 0 || n < limit {
		if err := t.Step(emit); err != nil {
			if err == io.EOF {
				return n, nil
			}
			return n, err
		}
		n++
	}
	return n, nil
}

// Source adapts a Tracer into a trace.Source, generating records on demand.
// This is the "produce the trace on the fly directly from a functional
// simulator" mode from the paper's future work (and the FAST-style
// functional/timing split).
type Source struct {
	t     *Tracer
	queue []trace.Record
	head  int
	limit uint64 // correct-path instruction budget, 0 = unlimited
	done  uint64
}

// NewSource returns an on-the-fly trace source over m. limit bounds the
// number of correct-path instructions (0 = run to HALT).
func NewSource(m *Machine, cfg TraceConfig, limit uint64) *Source {
	return &Source{t: NewTracer(m, cfg), limit: limit}
}

// Tracer exposes the underlying tracer (for statistics).
func (s *Source) Tracer() *Tracer { return s.t }

// Next implements trace.Source.
func (s *Source) Next() (trace.Record, error) {
	for s.head >= len(s.queue) {
		s.queue = s.queue[:0]
		s.head = 0
		if s.limit != 0 && s.done >= s.limit {
			return trace.Record{}, io.EOF
		}
		err := s.t.Step(func(r trace.Record) error {
			s.queue = append(s.queue, r)
			return nil
		})
		if err != nil {
			return trace.Record{}, err
		}
		s.done++
	}
	r := s.queue[s.head]
	s.head++
	return r, nil
}
