// Package funcsim is the functional-simulation substrate: the SimpleScalar
// stand-in that executes programs for the ISA in internal/isa and produces
// ReSim input traces. The paper generates traces with "a modified
// (SimpleScalar) functional simulator" that includes a branch predictor
// (sim-bpred) and inserts tagged wrong-path blocks after mispredicted
// branches (§V.A); Tracer implements that, and Source streams records to the
// timing engine on the fly (the FAST-style coupling the paper discusses).
//
// A Machine decodes each instruction once, as statically decoding
// simulators do: a predecode table over the text segment holds, per word,
// the decoded instruction, its class and a trace-record template with
// every static field set, filled on first fetch. Stores into the text
// segment invalidate the word they touch, and an entry serves only the PC
// it was decoded at, so self-modifying code and aliased PCs trace exactly
// as a decode on every step would. The memory arena is paged and a page
// is allocated on its first write, so a machine costs the memory its
// program touches, not the arena's size.
package funcsim

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/isa"
	"repro/internal/trace"
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

// The arena is paged: a page is allocated on its first write, and a page
// never written reads as zeros, exactly as a zeroed flat arena would. A
// program touches a few hundred KiB of its 8 MiB arena, so a machine
// costs what its program uses rather than the arena's size. Pages are cut
// from slabs of slabPages, so a machine makes a few large allocations
// instead of one per page.
const (
	pageBits  = 12
	pageSize  = 1 << pageBits
	slabPages = 16
)

// page is one arena page.
type page = [pageSize]byte

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

// decoded is one predecoded instruction: the instruction word at pc,
// decoded once, with its class and the trace record's static fields.
// isa.Decode derives branch and jump targets from the PC, and the arena
// mask makes many PCs read one word, so an entry serves only the PC it was
// decoded at.
type decoded struct {
	pc    uint32
	ok    bool // false: never filled, or its word was stored to since
	inst  isa.Inst
	class isa.Class
	rec   trace.Record // every static field set; Addr, Taken and Target are per execution
}

// fill decodes word as the instruction at pc.
func (d *decoded) fill(word, pc uint32) {
	in := isa.Decode(word, pc)
	*d = decoded{pc: pc, ok: true, inst: in, class: in.Class(), rec: trace.FromInst(in, pc, 0, false, 0)}
}

// Machine is the functional simulator state.
type Machine struct {
	pages  []*page // 1<<memBits / pageSize entries; nil: never written
	slab   []page  // pages allocated but not yet handed out
	mask   uint32
	regs   [isa.NumRegs]uint32
	pc     uint32
	halted bool

	// text is the predecode table over the text segment, the one holding
	// the entry point, indexed by word from textBase (a masked address).
	// Entries fill on first fetch; a store into the segment invalidates
	// the word it touches. A PC outside the table decodes into other.
	text     []decoded
	textBase uint32
	other    decoded
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
	size := 1 << memBits
	m := &Machine{
		pages: make([]*page, size/pageSize),
		mask:  uint32(size - 1),
		pc:    prog.Entry,
	}
	for _, seg := range prog.Segments {
		base := int(seg.Base & m.mask)
		if base+len(seg.Data) > size {
			return nil, fmt.Errorf("funcsim: segment at %#x (%d bytes) exceeds arena", seg.Base, len(seg.Data))
		}
		for off := 0; off < len(seg.Data); {
			a := uint32(base + off)
			off += copy(m.page(a)[a%pageSize:], seg.Data[off:])
		}
		if seg.Base <= prog.Entry && prog.Entry-seg.Base < uint32(len(seg.Data)) {
			m.textBase = uint32(base) &^ 3
			m.text = make([]decoded, (uint32(base+len(seg.Data))-m.textBase+3)/4)
		}
	}
	// Stack grows down from the top of the arena.
	m.regs[isa.RegSP] = uint32(size - 16)
	m.regs[isa.RegFP] = m.regs[isa.RegSP]
	return m, nil
}

// page returns the page holding masked address a, allocating it on first
// use.
func (m *Machine) page(a uint32) *page {
	p := &m.pages[a/pageSize]
	if *p == nil {
		if len(m.slab) == 0 {
			m.slab = make([]page, slabPages)
		}
		*p, m.slab = &m.slab[0], m.slab[1:]
	}
	return *p
}

// store returns the page holding addr, masked and aligned to size bytes,
// and the offset of addr in it, for a write. It invalidates the predecoded
// word the write touches.
func (m *Machine) store(addr, size uint32) (*page, uint32) {
	a := addr & m.mask &^ (size - 1)
	if i := (a - m.textBase) / 4; i < uint32(len(m.text)) {
		m.text[i].ok = false
	}
	return m.page(a), a % pageSize
}

// load returns the page holding addr, masked and aligned to size bytes,
// and the offset of addr in it; a nil page reads as zeros.
func (m *Machine) load(addr, size uint32) (*page, uint32) {
	a := addr & m.mask &^ (size - 1)
	return m.pages[a/pageSize], a % pageSize
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
	p, o := m.load(addr, 4)
	if p == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(p[o:])
}

// StoreWord writes a 32-bit word at the (masked, aligned) address.
func (m *Machine) StoreWord(addr, v uint32) {
	p, o := m.store(addr, 4)
	binary.LittleEndian.PutUint32(p[o:], v)
}

// LoadByte reads one byte at the (masked) address.
func (m *Machine) LoadByte(addr uint32) uint8 {
	p, o := m.load(addr, 1)
	if p == nil {
		return 0
	}
	return p[o]
}

// StoreByte writes one byte at the (masked) address.
func (m *Machine) StoreByte(addr uint32, v uint8) {
	p, o := m.store(addr, 1)
	p[o] = v
}

// LoadHalf reads a 16-bit halfword at the (masked, aligned) address.
func (m *Machine) LoadHalf(addr uint32) uint16 {
	p, o := m.load(addr, 2)
	if p == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(p[o:])
}

// StoreHalf writes a 16-bit halfword at the (masked, aligned) address.
func (m *Machine) StoreHalf(addr uint32, v uint16) {
	p, o := m.store(addr, 2)
	binary.LittleEndian.PutUint16(p[o:], v)
}

// fetch returns the predecoded instruction at pc, decoding it on a table
// miss. The entry stays valid until the next fetch; a store may mark it
// stale, but never changes its contents.
func (m *Machine) fetch(pc uint32) *decoded {
	d := &m.other
	if i := (pc&m.mask - m.textBase) / 4; i < uint32(len(m.text)) {
		d = &m.text[i]
		if d.ok && d.pc == pc {
			return d
		}
	}
	d.fill(m.LoadWord(pc), pc)
	return d
}

// Step executes one instruction and reports its outcome.
func (m *Machine) Step() (StepInfo, error) {
	if m.halted {
		return StepInfo{}, ErrHalted
	}
	info, _ := m.step()
	return info, nil
}

// step executes one instruction of a running machine and also returns its
// predecoded entry, whose contents the execution leaves intact.
func (m *Machine) step() (StepInfo, *decoded) {
	pc := m.pc
	d := m.fetch(pc)
	in := d.inst
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

	if d.class == isa.ClassCtrl {
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
	return info, d
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
