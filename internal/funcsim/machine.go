// Package funcsim is the functional-simulation substrate: the SimpleScalar
// stand-in that executes programs for the ISA in internal/isa and produces
// ReSim input traces. The paper generates traces with "a modified
// (SimpleScalar) functional simulator" that includes a branch predictor
// (sim-bpred) and inserts tagged wrong-path blocks after mispredicted
// branches (§V.A); Tracer implements that, and Source streams records to the
// timing engine on the fly (the FAST-style coupling the paper discusses).
package funcsim

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/isa"
)

// Memory layout constants. The machine uses a single power-of-two arena;
// addresses are masked into it. Synthetic programs and their data live well
// inside the arena; masking keeps wrong-path (garbage) addresses in range
// while preserving the locality the caches see.
const (
	// DefaultMemBits sizes the arena at 8 MiB.
	DefaultMemBits = 23
	// CodeBase is where program text is loaded by convention.
	CodeBase = 0x0000_1000
	// DataBase is where static data is placed by convention.
	DataBase = 0x0010_0000
)

// Segment is a contiguous chunk of initialized memory.
type Segment struct {
	Base uint32
	Data []byte
}

// Program is a loadable program image.
type Program struct {
	Entry    uint32
	Segments []Segment
}

// AssembleAt encodes instructions into a Segment at base.
func AssembleAt(base uint32, code []isa.Inst) Segment {
	data := make([]byte, 4*len(code))
	for i, in := range code {
		binary.LittleEndian.PutUint32(data[4*i:], in.Word())
	}
	return Segment{Base: base, Data: data}
}

// ErrHalted is returned when stepping a halted machine.
var ErrHalted = errors.New("funcsim: machine halted")

// StepInfo reports the timing-relevant outcome of one executed instruction.
type StepInfo struct {
	PC     uint32
	Inst   isa.Inst
	Addr   uint32 // effective address for loads/stores
	Taken  bool   // control flow: branch resolved taken
	Target uint32 // control flow: resolved target (valid when Taken)
	NextPC uint32
}

// Machine is the functional simulator state.
type Machine struct {
	mem    []byte
	mask   uint32
	regs   [isa.NumRegs]uint32
	pc     uint32
	halted bool
}

// NewMachine loads prog into a fresh machine with a 1<<memBits arena.
// memBits of 0 selects DefaultMemBits.
func NewMachine(prog *Program, memBits uint) (*Machine, error) {
	if memBits == 0 {
		memBits = DefaultMemBits
	}
	if memBits < 12 || memBits > 30 {
		return nil, fmt.Errorf("funcsim: memBits %d out of range [12,30]", memBits)
	}
	m := &Machine{
		mem:  make([]byte, 1<<memBits),
		mask: uint32(1<<memBits - 1),
		pc:   prog.Entry,
	}
	for _, seg := range prog.Segments {
		if int(seg.Base&m.mask)+len(seg.Data) > len(m.mem) {
			return nil, fmt.Errorf("funcsim: segment at %#x (%d bytes) exceeds arena", seg.Base, len(seg.Data))
		}
		copy(m.mem[seg.Base&m.mask:], seg.Data)
	}
	// Stack grows down from the top of the arena.
	m.regs[isa.RegSP] = uint32(len(m.mem) - 16)
	m.regs[isa.RegFP] = m.regs[isa.RegSP]
	return m, nil
}

// PC returns the current program counter.
func (m *Machine) PC() uint32 { return m.pc }

// Halted reports whether the program has executed HALT.
func (m *Machine) Halted() bool { return m.halted }

// Reg returns the value of architectural register r.
func (m *Machine) Reg(r isa.Reg) uint32 {
	if r >= isa.NumRegs {
		return 0
	}
	return m.regs[r]
}

// SetReg sets architectural register r (writes to r0 are discarded).
func (m *Machine) SetReg(r isa.Reg, v uint32) {
	if r == isa.RegZero || r >= isa.NumRegs {
		return
	}
	m.regs[r] = v
}

// LoadWord reads a 32-bit word at the (masked, aligned) address.
func (m *Machine) LoadWord(addr uint32) uint32 {
	a := addr & m.mask &^ 3
	return binary.LittleEndian.Uint32(m.mem[a:])
}

// StoreWord writes a 32-bit word at the (masked, aligned) address.
func (m *Machine) StoreWord(addr, v uint32) {
	a := addr & m.mask &^ 3
	binary.LittleEndian.PutUint32(m.mem[a:], v)
}

// LoadByte reads one byte at the (masked) address.
func (m *Machine) LoadByte(addr uint32) uint8 { return m.mem[addr&m.mask] }

// StoreByte writes one byte at the (masked) address.
func (m *Machine) StoreByte(addr uint32, v uint8) { m.mem[addr&m.mask] = v }

// LoadHalf reads a 16-bit halfword at the (masked, aligned) address.
func (m *Machine) LoadHalf(addr uint32) uint16 {
	a := addr & m.mask &^ 1
	return binary.LittleEndian.Uint16(m.mem[a:])
}

// StoreHalf writes a 16-bit halfword at the (masked, aligned) address.
func (m *Machine) StoreHalf(addr uint32, v uint16) {
	a := addr & m.mask &^ 1
	binary.LittleEndian.PutUint16(m.mem[a:], v)
}

// FetchInst decodes the instruction at pc without executing it (used for
// wrong-path walks).
func (m *Machine) FetchInst(pc uint32) isa.Inst {
	return isa.Decode(m.LoadWord(pc), pc)
}

// Step executes one instruction and reports its outcome.
func (m *Machine) Step() (StepInfo, error) {
	if m.halted {
		return StepInfo{}, ErrHalted
	}
	pc := m.pc
	in := m.FetchInst(pc)
	info := StepInfo{PC: pc, Inst: in, NextPC: pc + 4}

	rv := func(r isa.Reg) uint32 { return m.regs[r&31] }
	switch in.Op {
	case isa.OpNop:
	case isa.OpAdd:
		m.SetReg(in.A, rv(in.B)+rv(in.C))
	case isa.OpSub:
		m.SetReg(in.A, rv(in.B)-rv(in.C))
	case isa.OpAnd:
		m.SetReg(in.A, rv(in.B)&rv(in.C))
	case isa.OpOr:
		m.SetReg(in.A, rv(in.B)|rv(in.C))
	case isa.OpXor:
		m.SetReg(in.A, rv(in.B)^rv(in.C))
	case isa.OpNor:
		m.SetReg(in.A, ^(rv(in.B) | rv(in.C)))
	case isa.OpSlt:
		m.SetReg(in.A, b2u(int32(rv(in.B)) < int32(rv(in.C))))
	case isa.OpSltu:
		m.SetReg(in.A, b2u(rv(in.B) < rv(in.C)))
	case isa.OpSll:
		m.SetReg(in.A, rv(in.B)<<(rv(in.C)&31))
	case isa.OpSrl:
		m.SetReg(in.A, rv(in.B)>>(rv(in.C)&31))
	case isa.OpSra:
		m.SetReg(in.A, uint32(int32(rv(in.B))>>(rv(in.C)&31)))
	case isa.OpMul:
		m.SetReg(in.A, uint32(int32(rv(in.B))*int32(rv(in.C))))
	case isa.OpDiv:
		d := int32(rv(in.C))
		if d == 0 {
			m.SetReg(in.A, 0) // no trap: divide by zero yields 0
		} else {
			m.SetReg(in.A, uint32(int32(rv(in.B))/d))
		}
	case isa.OpAddi:
		m.SetReg(in.A, rv(in.B)+uint32(in.Imm))
	case isa.OpAndi:
		m.SetReg(in.A, rv(in.B)&uint32(uint16(in.Imm)))
	case isa.OpOri:
		m.SetReg(in.A, rv(in.B)|uint32(uint16(in.Imm)))
	case isa.OpXori:
		m.SetReg(in.A, rv(in.B)^uint32(uint16(in.Imm)))
	case isa.OpSlti:
		m.SetReg(in.A, b2u(int32(rv(in.B)) < in.Imm))
	case isa.OpLui:
		m.SetReg(in.A, uint32(in.Imm)<<16)
	case isa.OpLw:
		info.Addr = rv(in.B) + uint32(in.Imm)
		m.SetReg(in.A, m.LoadWord(info.Addr))
	case isa.OpSw:
		info.Addr = rv(in.B) + uint32(in.Imm)
		m.StoreWord(info.Addr, rv(in.A))
	case isa.OpLb:
		info.Addr = rv(in.B) + uint32(in.Imm)
		m.SetReg(in.A, uint32(int32(int8(m.LoadByte(info.Addr)))))
	case isa.OpLbu:
		info.Addr = rv(in.B) + uint32(in.Imm)
		m.SetReg(in.A, uint32(m.LoadByte(info.Addr)))
	case isa.OpLh:
		info.Addr = rv(in.B) + uint32(in.Imm)
		m.SetReg(in.A, uint32(int32(int16(m.LoadHalf(info.Addr)))))
	case isa.OpLhu:
		info.Addr = rv(in.B) + uint32(in.Imm)
		m.SetReg(in.A, uint32(m.LoadHalf(info.Addr)))
	case isa.OpSb:
		info.Addr = rv(in.B) + uint32(in.Imm)
		m.StoreByte(info.Addr, uint8(rv(in.A)))
	case isa.OpSh:
		info.Addr = rv(in.B) + uint32(in.Imm)
		m.StoreHalf(info.Addr, uint16(rv(in.A)))
	case isa.OpBeq:
		info.Taken = rv(in.A) == rv(in.B)
	case isa.OpBne:
		info.Taken = rv(in.A) != rv(in.B)
	case isa.OpBlez:
		info.Taken = int32(rv(in.A)) <= 0
	case isa.OpBgtz:
		info.Taken = int32(rv(in.A)) > 0
	case isa.OpJ:
		info.Taken = true
		info.Target = in.Target
	case isa.OpJal:
		info.Taken = true
		info.Target = in.Target
		m.SetReg(isa.RegRA, pc+4)
	case isa.OpJr:
		info.Taken = true
		info.Target = rv(in.B) &^ 3
	case isa.OpJalr:
		info.Taken = true
		info.Target = rv(in.B) &^ 3
		m.SetReg(in.A, pc+4)
	case isa.OpHalt:
		m.halted = true
	}

	if in.Class() == isa.ClassCtrl {
		if info.Taken {
			if in.Ctrl() == isa.CtrlCond {
				info.Target = in.Target // decoded relative target
			}
			info.NextPC = info.Target
		} else {
			// Not-taken conditionals still have a resolved target field for
			// the trace (the would-be destination).
			info.Target = in.Target
		}
	}
	m.pc = info.NextPC
	return info, nil
}

// Run executes up to limit instructions (0 = no limit) or until HALT,
// returning the number executed.
func (m *Machine) Run(limit uint64) (uint64, error) {
	var n uint64
	for !m.halted && (limit == 0 || n < limit) {
		if _, err := m.Step(); err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}

func b2u(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}
