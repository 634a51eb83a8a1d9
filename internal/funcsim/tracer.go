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

// Step executes one instruction and appends its record, plus any
// wrong-path block, to recs. It returns io.EOF once the machine has halted.
// Each record is a copy of its instruction's predecoded template with only
// the per-execution fields set: the address of a memory access, the
// outcome of a branch.
func (t *Tracer) Step(recs []trace.Record) ([]trace.Record, error) {
	if t.m.halted {
		return recs, io.EOF
	}
	info, d := t.m.step()
	if info.Inst.Op == isa.OpHalt {
		// HALT marks end of program; it does not appear in the trace
		// (SimpleScalar ends the trace at the exit syscall).
		return recs, io.EOF
	}
	recs = append(recs, dynamic(d, info.Addr, info.Taken, info.Target))
	if d.class != isa.ClassCtrl || t.cfg.PerfectBP {
		return recs, nil
	}
	mispred, wrongPC := t.predictAndUpdate(info)
	if !mispred {
		return recs, nil
	}
	return t.appendWrongPath(recs, wrongPC), nil
}

// dynamic is d's record template with its per-execution fields set, the
// record trace.FromInst builds for the same arguments.
func dynamic(d *decoded, addr uint32, taken bool, target uint32) trace.Record {
	r := d.rec
	switch r.Kind {
	case trace.KindMem:
		r.Addr = addr
	case trace.KindBranch:
		r.Taken, r.Target = taken, target
	}
	return r
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

// appendWrongPath walks the mis-speculated path starting at wrongPC for up
// to WrongPathLen instructions, appending tagged records. The walk decodes
// real bytes from the machine's memory without architectural side effects:
// conditionals are assumed not-taken, direct jumps and calls are followed,
// indirect targets come from the current register file, and memory
// addresses are computed from the current register file (the paper: ReSim
// "will fetch the instructions from the wrong path and model their effects
// in instruction processing, caches, etc").
func (t *Tracer) appendWrongPath(recs []trace.Record, wrongPC uint32) []trace.Record {
	pc := wrongPC
	for i := 0; i < t.cfg.WrongPathLen; i++ {
		d := t.m.fetch(pc)
		in := &d.inst
		if in.Op == isa.OpHalt {
			break
		}
		var (
			addr   uint32
			taken  bool
			target uint32
		)
		switch d.class {
		case isa.ClassLoad, isa.ClassStore:
			addr = t.m.Reg(in.B) + uint32(in.Imm)
		case isa.ClassCtrl:
			switch d.rec.Ctrl {
			case isa.CtrlJump, isa.CtrlCall:
				taken, target = true, in.Target
			case isa.CtrlRet, isa.CtrlIndirect, isa.CtrlIndCall:
				taken, target = true, t.m.Reg(in.B)&^3
			default: // conditional: assumed not-taken on the wrong path
				taken, target = false, in.Target
			}
		}
		rec := dynamic(d, addr, taken, target)
		rec.Tag = true
		recs = append(recs, rec)
		if taken {
			pc = target
		} else {
			pc += 4
		}
	}
	return recs
}

// Run traces up to limit correct-path instructions (0 = until HALT).
// It returns the number of correct-path instructions traced.
func (t *Tracer) Run(limit uint64, emit func(trace.Record) error) (uint64, error) {
	var (
		n    uint64
		recs []trace.Record
		err  error
	)
	for limit == 0 || n < limit {
		if recs, err = t.Step(recs[:0]); err != nil {
			if err == io.EOF {
				return n, nil
			}
			return n, err
		}
		for _, r := range recs {
			if err := emit(r); err != nil {
				return n, err
			}
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

// Next implements trace.Source.
func (s *Source) Next() (trace.Record, error) {
	for s.head >= len(s.queue) {
		s.queue = s.queue[:0]
		s.head = 0
		if s.limit != 0 && s.done >= s.limit {
			return trace.Record{}, io.EOF
		}
		var err error
		if s.queue, err = s.t.Step(s.queue); err != nil {
			return trace.Record{}, err
		}
		s.done++
	}
	r := s.queue[s.head]
	s.head++
	return r, nil
}
