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
// which no encoder writes (encodeReg turns them into "no register") and the
// engine would replay as no dependency, so a record naming one is refused.
func readReg(br *bitio.Reader) (isa.Reg, error) {
	v, err := br.ReadBits(regBits)
	switch {
	case err != nil:
		return isa.NoReg, err
	case v == regNone:
		return isa.NoReg, nil
	case v >= isa.NumRegs:
		return isa.NoReg, fmt.Errorf("%w: register field %d", ErrBadRecord, v)
	}
	return isa.Reg(v), nil
}

// readMemRegs reads a format-M record's two register fields, r.Store
// already set: the loaded destination or the stored data source, then the
// address base.
func readMemRegs(br *bitio.Reader, r *Record) error {
	reg, err := readReg(br)
	if err != nil {
		return err
	}
	if r.Src1, err = readReg(br); err != nil {
		return err
	}
	r.Dest, r.Src2 = reg, isa.NoReg
	if r.Store {
		r.Dest, r.Src2 = isa.NoReg, reg
	}
	return nil
}

// readRegs reads the three register fields of a format-O or format-B
// record: destination, then the two sources.
func readRegs(br *bitio.Reader, r *Record) (err error) {
	if r.Dest, err = readReg(br); err != nil {
		return err
	}
	if r.Src1, err = readReg(br); err != nil {
		return err
	}
	r.Src2, err = readReg(br)
	return err
}

// EncodeTo writes the record to bw in its wire format.
func (r Record) EncodeTo(bw *bitio.Writer) error {
	if err := bw.WriteBits(uint64(r.Kind), fmtBits); err != nil {
		return err
	}
	if err := bw.WriteBool(r.Tag); err != nil {
		return err
	}
	switch r.Kind {
	case KindOther:
		if err := bw.WriteBits(uint64(r.Class), classBits); err != nil {
			return err
		}
		for _, reg := range []isa.Reg{r.Dest, r.Src1, r.Src2} {
			if err := bw.WriteBits(encodeReg(reg), regBits); err != nil {
				return err
			}
		}
	case KindMem:
		if err := bw.WriteBool(r.Store); err != nil {
			return err
		}
		if err := bw.WriteBits(sizeCode(r.Size), sizeBits); err != nil {
			return err
		}
		// reg is the destination for loads, the data source for stores.
		reg := r.Dest
		if r.Store {
			reg = r.Src2
		}
		if err := bw.WriteBits(encodeReg(reg), regBits); err != nil {
			return err
		}
		if err := bw.WriteBits(encodeReg(r.Src1), regBits); err != nil {
			return err
		}
		if err := bw.WriteBits(uint64(r.Addr), addrBits); err != nil {
			return err
		}
	case KindBranch:
		if err := bw.WriteBits(uint64(r.Ctrl), ctrlBits); err != nil {
			return err
		}
		if err := bw.WriteBool(r.Taken); err != nil {
			return err
		}
		for _, reg := range []isa.Reg{r.Dest, r.Src1, r.Src2} {
			if err := bw.WriteBits(encodeReg(reg), regBits); err != nil {
				return err
			}
		}
		if err := bw.WriteBits(uint64(r.PC), pcBits); err != nil {
			return err
		}
		if err := bw.WriteBits(uint64(r.Target), targetBits); err != nil {
			return err
		}
	default:
		return ErrBadRecord
	}
	return nil
}

// DecodeFrom reads one record from br.
func DecodeFrom(br *bitio.Reader) (Record, error) {
	var r Record
	k, err := br.ReadBits(fmtBits)
	if err != nil {
		return r, err
	}
	r.Kind = Kind(k)
	if r.Tag, err = br.ReadBool(); err != nil {
		return r, err
	}
	switch r.Kind {
	case KindOther:
		c, err := br.ReadBits(classBits)
		if err != nil {
			return r, err
		}
		r.Class = OpClass(c)
		if err := readRegs(br, &r); err != nil {
			return r, err
		}
	case KindMem:
		if r.Store, err = br.ReadBool(); err != nil {
			return r, err
		}
		sc, err := br.ReadBits(sizeBits)
		if err != nil {
			return r, err
		}
		r.Size = sizeFromCode(sc)
		if err := readMemRegs(br, &r); err != nil {
			return r, err
		}
		addr, err := br.ReadBits(addrBits)
		if err != nil {
			return r, err
		}
		r.Addr = uint32(addr)
	case KindBranch:
		c, err := br.ReadBits(ctrlBits)
		if err != nil {
			return r, err
		}
		r.Ctrl = isa.CtrlKind(c)
		if r.Taken, err = br.ReadBool(); err != nil {
			return r, err
		}
		if err := readRegs(br, &r); err != nil {
			return r, err
		}
		pc, err := br.ReadBits(pcBits)
		if err != nil {
			return r, err
		}
		r.PC = uint32(pc)
		tgt, err := br.ReadBits(targetBits)
		if err != nil {
			return r, err
		}
		r.Target = uint32(tgt)
	default:
		return r, fmt.Errorf("%w: format %d", ErrBadRecord, k)
	}
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
