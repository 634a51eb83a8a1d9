// Package trace implements ReSim's input trace: one pre-decoded record per
// dynamic instruction, in three formats — Branch (B), Memory (M) and Other
// (O) — "each with its own fields and length", plus the Tag Bit used for
// mis-speculation handling (paper §V.A). Because the format is pre-decoded
// and generic, the timing engine is almost ISA independent.
//
// Record bit layouts (MSB first):
//
//	O: fmt(2)=0 tag(1) class(3) dest(6) src1(6) src2(6)            = 24 bits
//	M: fmt(2)=1 tag(1) store(1) size(2) reg(6) base(6) addr(32)    = 50 bits
//	B: fmt(2)=2 tag(1) kind(3) taken(1) dest(6) src1(6) src2(6)
//	   pc(32) target(32)                                           = 89 bits
//
// Register fields use 6 bits: 0-31 are architectural registers, 63 encodes
// "no operand". B records carry the branch's own PC: the hardware indexes
// the direction predictor and BTB with it and uses it to re-synchronize the
// implicitly tracked fetch PC at every control-flow record (a zero PC falls
// back to implicit tracking). The resulting mix of formats gives
// per-benchmark averages in the same 40-50 bits/instruction band the paper
// reports (Table 3).
package trace

import (
	"errors"
	"fmt"

	"repro/internal/bitio"
	"repro/internal/isa"
)

// Kind selects one of the three record formats.
type Kind uint8

// Record kinds, in on-the-wire format-field order.
const (
	KindOther  Kind = 0 // O: integer/ALU/long-latency, no memory, no control
	KindMem    Kind = 1 // M: load or store
	KindBranch Kind = 2 // B: control flow
)

// String returns the paper's one-letter format name.
func (k Kind) String() string {
	switch k {
	case KindOther:
		return "O"
	case KindMem:
		return "M"
	case KindBranch:
		return "B"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// OpClass is the functional-unit class carried by O records.
type OpClass uint8

// O-record operation classes.
const (
	OpALU OpClass = iota // single-cycle integer
	OpMul                // pipelined multiply
	OpDiv                // unpipelined divide
)

// String returns a short class name.
func (c OpClass) String() string {
	switch c {
	case OpALU:
		return "alu"
	case OpMul:
		return "mul"
	case OpDiv:
		return "div"
	}
	return fmt.Sprintf("OpClass(%d)", uint8(c))
}

// CtrlKind mirrors isa.CtrlKind on the wire (3 bits).
type CtrlKind = isa.CtrlKind

// regNone is the wire encoding for an absent register operand.
const regNone = 63

// Record is one decoded trace record: the timing-relevant footprint of one
// dynamic instruction.
type Record struct {
	Kind Kind
	Tag  bool // wrong-path (mis-speculated) instruction

	// Register dependencies. isa.NoReg marks absent operands.
	Dest, Src1, Src2 isa.Reg

	// O records only.
	Class OpClass

	// M records only. Size is the access width in bytes (1, 2 or 4; the
	// zero value means 4, so hand-built word records need no field).
	Store bool
	Size  uint8
	Addr  uint32

	// B records only.
	Ctrl   isa.CtrlKind
	Taken  bool
	PC     uint32 // the branch's own PC (0 = rely on implicit tracking)
	Target uint32
}

// Field widths in bits.
const (
	fmtBits    = 2
	tagBits    = 1
	classBits  = 3
	regBits    = 6
	storeBits  = 1
	addrBits   = 32
	sizeBits   = 2
	ctrlBits   = 3
	takenBits  = 1
	pcBits     = 32
	targetBits = 32

	// OtherBits, MemBits and BranchBits are the three record lengths.
	OtherBits  = fmtBits + tagBits + classBits + 3*regBits
	MemBits    = fmtBits + tagBits + storeBits + sizeBits + 2*regBits + addrBits
	BranchBits = fmtBits + tagBits + ctrlBits + takenBits + 3*regBits + pcBits + targetBits
)

// MemBytes returns the access width of an M record (1, 2 or 4 bytes).
func (r Record) MemBytes() uint32 {
	if r.Size == 0 {
		return 4
	}
	return uint32(r.Size)
}

// sizeCode maps an access width onto the 2-bit wire field.
func sizeCode(size uint8) uint64 {
	switch size {
	case 1:
		return 0
	case 2:
		return 1
	default:
		return 2
	}
}

// sizeFromCode inverts sizeCode.
func sizeFromCode(c uint64) uint8 {
	switch c {
	case 0:
		return 1
	case 1:
		return 2
	default:
		return 4
	}
}

// BitLen returns the encoded length of the record in bits.
func (r Record) BitLen() int {
	switch r.Kind {
	case KindMem:
		return MemBits
	case KindBranch:
		return BranchBits
	default:
		return OtherBits
	}
}

// ErrBadRecord reports a malformed on-the-wire record.
var ErrBadRecord = errors.New("trace: malformed record")

func encodeReg(r isa.Reg) uint64 {
	if r == isa.NoReg || r >= isa.NumRegs {
		return regNone
	}
	return uint64(r)
}

// readReg reads one register field. The 6-bit field can also name 32–62,
// which no encoder writes (encodeReg turns them into "no register");
// decodeFrom refuses a record naming one rather than replay it as no
// dependency.
func readReg(br *bitio.Reader) isa.Reg {
	v, _ := br.ReadBits(regBits)
	if v == regNone {
		return isa.NoReg
	}
	return isa.Reg(v)
}

// encodeTo writes the record to bw. st selects the address coder: nil
// writes Addr, PC and Target as 32-bit fields (the raw container, the
// paper's record format); a delta state writes them as zigzag varints
// against its predictions and advances past r (the compressed container).
// Every other field has one layout in both. bitio.Writer's error is
// sticky, so fields are written unchecked and bw.Err() is the record's.
func (r Record) encodeTo(bw *bitio.Writer, st *codecState) error {
	if r.Kind > KindBranch {
		return ErrBadRecord
	}
	prev := st.prev()
	bw.WriteBits(uint64(r.Kind), fmtBits)
	bw.WriteBool(r.Tag)
	switch r.Kind {
	case KindOther:
		bw.WriteBits(uint64(r.Class), classBits)
		writeRegs(bw, r.Dest, r.Src1, r.Src2)
	case KindMem:
		bw.WriteBool(r.Store)
		bw.WriteBits(sizeCode(r.Size), sizeBits)
		// The first register is the destination for loads, the data
		// source for stores.
		if r.Store {
			writeRegs(bw, r.Src2, r.Src1)
		} else {
			writeRegs(bw, r.Dest, r.Src1)
		}
		st.putAddr(bw, r.Addr, prev.lastMemAddr)
	case KindBranch:
		bw.WriteBits(uint64(r.Ctrl), ctrlBits)
		bw.WriteBool(r.Taken)
		writeRegs(bw, r.Dest, r.Src1, r.Src2)
		st.putAddr(bw, r.PC, prev.lastBranchPC)
		st.putAddr(bw, r.Target, r.PC)
	}
	st.advance(r)
	return bw.Err()
}

func writeRegs(bw *bitio.Writer, regs ...isa.Reg) {
	for _, reg := range regs {
		bw.WriteBits(encodeReg(reg), regBits)
	}
}

// decodeFrom reads one record that encodeTo wrote with the same kind of
// st. A stream that ends inside the record returns the reader's io.EOF;
// a record naming register 32–62 or format 3 returns ErrBadRecord.
// bitio.Reader's error is sticky too: a field read past it is zero, and
// br.Err() reports it before any field is checked.
func decodeFrom(br *bitio.Reader, st *codecState) (Record, error) {
	var r Record
	var err error
	prev := st.prev()
	k, _ := br.ReadBits(fmtBits)
	r.Kind = Kind(k)
	r.Tag, _ = br.ReadBool()
	switch r.Kind {
	case KindOther:
		c, _ := br.ReadBits(classBits)
		r.Class = OpClass(c)
		r.Dest, r.Src1, r.Src2 = readReg(br), readReg(br), readReg(br)
	case KindMem:
		r.Store, _ = br.ReadBool()
		sc, _ := br.ReadBits(sizeBits)
		r.Size = sizeFromCode(sc)
		r.Dest, r.Src1, r.Src2 = readReg(br), readReg(br), isa.NoReg
		if r.Store {
			r.Dest, r.Src2 = isa.NoReg, r.Dest
		}
		r.Addr, err = st.getAddr(br, prev.lastMemAddr)
	case KindBranch:
		c, _ := br.ReadBits(ctrlBits)
		r.Ctrl = isa.CtrlKind(c)
		r.Taken, _ = br.ReadBool()
		r.Dest, r.Src1, r.Src2 = readReg(br), readReg(br), readReg(br)
		if r.PC, err = st.getAddr(br, prev.lastBranchPC); err == nil {
			r.Target, err = st.getAddr(br, r.PC)
		}
	default:
		err = fmt.Errorf("%w: format %d", ErrBadRecord, k)
	}
	if err == nil {
		err = br.Err()
	}
	for _, reg := range [...]isa.Reg{r.Dest, r.Src1, r.Src2} {
		if err == nil && reg >= isa.NumRegs && reg != isa.NoReg {
			err = fmt.Errorf("%w: register field %d", ErrBadRecord, reg)
		}
	}
	if err != nil {
		return Record{}, err
	}
	st.advance(r)
	return r, nil
}

// FromInst builds the trace record describing one dynamic execution of in at
// pc. addr/taken/target supply the dynamic outcome; they are ignored for
// classes that do not use them.
func FromInst(in isa.Inst, pc, addr uint32, taken bool, target uint32) Record {
	s1, s2 := in.Srcs()
	r := Record{Dest: in.Dst(), Src1: s1, Src2: s2}
	switch in.Class() {
	case isa.ClassLoad:
		r.Kind = KindMem
		r.Addr = addr
		r.Size = uint8(in.MemBytes())
	case isa.ClassStore:
		r.Kind = KindMem
		r.Store = true
		r.Addr = addr
		r.Size = uint8(in.MemBytes())
	case isa.ClassCtrl:
		r.Kind = KindBranch
		r.Ctrl = in.Ctrl()
		r.Taken = taken
		r.PC = pc
		r.Target = target
	case isa.ClassMul:
		r.Kind = KindOther
		r.Class = OpMul
	case isa.ClassDiv:
		r.Kind = KindOther
		r.Class = OpDiv
	default:
		r.Kind = KindOther
		r.Class = OpALU
	}
	return r
}

// String renders the record for debugging.
func (r Record) String() string {
	tag := ""
	if r.Tag {
		tag = " [wp]"
	}
	switch r.Kind {
	case KindMem:
		op := "ld"
		if r.Store {
			op = "st"
		}
		return fmt.Sprintf("M{%s @%#x d=%d b=%d s=%d}%s", op, r.Addr, r.Dest, r.Src1, r.Src2, tag)
	case KindBranch:
		return fmt.Sprintf("B{%s taken=%t ->%#x d=%d s=%d,%d}%s", r.Ctrl, r.Taken, r.Target, r.Dest, r.Src1, r.Src2, tag)
	default:
		return fmt.Sprintf("O{%s d=%d s=%d,%d}%s", r.Class, r.Dest, r.Src1, r.Src2, tag)
	}
}
