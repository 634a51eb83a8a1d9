package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/internal/bitio"
)

// Compressed trace container (format version 2).
//
// The paper flags input-trace bandwidth as ReSim's main scaling concern:
// the 4-wide configuration demands ~1.1 Gb/s, "exceeding the available
// bandwidth of regular Gigabit Ethernet" (§V, Table 3 discussion). This
// extension exploits the stream's locality with stateful delta coding —
// the codec state is tiny (two 32-bit registers), so a hardware
// decompressor fits comfortably next to ReSim's fetch stage:
//
//   - M records encode the effective address as a zigzag nibble-varint
//     delta against the previous memory address (sequential and strided
//     access patterns compress to a few nibbles).
//   - B records encode the branch PC as a delta against the previous
//     branch PC, and the target as a delta against the PC (loop branches
//     and short calls compress well).
//   - O records are already minimal and unchanged.
//
// Varint format: little-endian nibble groups, 5 bits each on the wire
// (4 payload bits + 1 continuation bit); values are zigzag-mapped first.

// compressedMagic identifies a compressed trace file ("RSTC").
const compressedMagic = 0x52535443

// zigzag maps a signed delta to an unsigned code with small magnitudes
// mapping to small codes.
func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

// unzigzag inverts zigzag.
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// writeVarint emits a zigzagged value as nibble groups.
func writeVarint(bw *bitio.Writer, delta int64) error {
	u := zigzag(delta)
	for {
		nib := u & 0xF
		u >>= 4
		more := uint64(0)
		if u != 0 {
			more = 1
		}
		if err := bw.WriteBits(nib<<1|more, 5); err != nil {
			return err
		}
		if more == 0 {
			return nil
		}
	}
}

// readVarint decodes a nibble varint.
func readVarint(br *bitio.Reader) (int64, error) {
	var u uint64
	for shift := uint(0); ; shift += 4 {
		if shift > 64 {
			return 0, fmt.Errorf("%w: runaway varint", ErrBadRecord)
		}
		g, err := br.ReadBits(5)
		if err != nil {
			return 0, err
		}
		u |= (g >> 1) << shift
		if g&1 == 0 {
			return unzigzag(u), nil
		}
	}
}

// varintBits returns the encoded width of delta in bits.
func varintBits(delta int64) int {
	u := zigzag(delta)
	n := 5
	for u >>= 4; u != 0; u >>= 4 {
		n += 5
	}
	return n
}

// codecState is the shared predictor state of compressor and decompressor.
type codecState struct {
	lastMemAddr  uint32
	lastBranchPC uint32
}

// CompressedBitLen returns the encoded length of r in the compressed format
// given the current state, without encoding.
func (s *codecState) bitLen(r Record) int {
	switch r.Kind {
	case KindMem:
		return fmtBits + tagBits + storeBits + sizeBits + 2*regBits +
			varintBits(int64(r.Addr)-int64(s.lastMemAddr))
	case KindBranch:
		return fmtBits + tagBits + ctrlBits + takenBits + 3*regBits +
			varintBits(int64(r.PC)-int64(s.lastBranchPC)) +
			varintBits(int64(r.Target)-int64(r.PC))
	default:
		return OtherBits
	}
}

func (s *codecState) advance(r Record) {
	switch r.Kind {
	case KindMem:
		s.lastMemAddr = r.Addr
	case KindBranch:
		s.lastBranchPC = r.PC
	}
}

// CompressedSizer predicts compressed record sizes without encoding
// anything; it tracks the same delta state as the writer. Callers must
// Advance with every record they sized, in order.
type CompressedSizer struct{ st codecState }

// BitLen returns the compressed size of r given the current state.
func (s *CompressedSizer) BitLen(r Record) int { return s.st.bitLen(r) }

// Advance updates the delta state past r.
func (s *CompressedSizer) Advance(r Record) { s.st.advance(r) }

// CompressedWriter writes the version-2 delta-coded container.
type CompressedWriter struct {
	bw      *bitio.Writer
	buf     *bufio.Writer
	st      codecState
	records uint64
}

// NewCompressedWriter begins a compressed trace container on w.
func NewCompressedWriter(w io.Writer, hdr Header) (*CompressedWriter, error) {
	buf := bufio.NewWriterSize(w, 1<<16)
	var raw [20]byte
	binary.BigEndian.PutUint32(raw[0:], compressedMagic)
	binary.BigEndian.PutUint32(raw[4:], 2)
	binary.BigEndian.PutUint32(raw[8:], hdr.StartPC)
	binary.BigEndian.PutUint64(raw[12:], hdr.Records)
	if _, err := buf.Write(raw[:]); err != nil {
		return nil, err
	}
	return &CompressedWriter{bw: bitio.NewWriter(buf), buf: buf}, nil
}

// Write appends one record.
func (w *CompressedWriter) Write(r Record) error {
	if err := w.bw.WriteBits(uint64(r.Kind), fmtBits); err != nil {
		return err
	}
	if err := w.bw.WriteBool(r.Tag); err != nil {
		return err
	}
	switch r.Kind {
	case KindOther:
		if err := w.bw.WriteBits(uint64(r.Class), classBits); err != nil {
			return err
		}
		for _, reg := range []uint64{encodeReg(r.Dest), encodeReg(r.Src1), encodeReg(r.Src2)} {
			if err := w.bw.WriteBits(reg, regBits); err != nil {
				return err
			}
		}
	case KindMem:
		if err := w.bw.WriteBool(r.Store); err != nil {
			return err
		}
		if err := w.bw.WriteBits(sizeCode(r.Size), sizeBits); err != nil {
			return err
		}
		reg := r.Dest
		if r.Store {
			reg = r.Src2
		}
		if err := w.bw.WriteBits(encodeReg(reg), regBits); err != nil {
			return err
		}
		if err := w.bw.WriteBits(encodeReg(r.Src1), regBits); err != nil {
			return err
		}
		if err := writeVarint(w.bw, int64(r.Addr)-int64(w.st.lastMemAddr)); err != nil {
			return err
		}
	case KindBranch:
		if err := w.bw.WriteBits(uint64(r.Ctrl), ctrlBits); err != nil {
			return err
		}
		if err := w.bw.WriteBool(r.Taken); err != nil {
			return err
		}
		for _, reg := range []uint64{encodeReg(r.Dest), encodeReg(r.Src1), encodeReg(r.Src2)} {
			if err := w.bw.WriteBits(reg, regBits); err != nil {
				return err
			}
		}
		if err := writeVarint(w.bw, int64(r.PC)-int64(w.st.lastBranchPC)); err != nil {
			return err
		}
		if err := writeVarint(w.bw, int64(r.Target)-int64(r.PC)); err != nil {
			return err
		}
	default:
		return ErrBadRecord
	}
	w.st.advance(r)
	w.records++
	return nil
}

// Close flushes the container.
func (w *CompressedWriter) Close() error {
	if err := w.bw.Flush(); err != nil {
		return err
	}
	return w.buf.Flush()
}

// Records returns the number of records written.
func (w *CompressedWriter) Records() uint64 { return w.records }

// BitsWritten returns payload bits written.
func (w *CompressedWriter) BitsWritten() uint64 { return w.bw.BitsWritten() }

// BitsPerRecord returns the compressed average record size.
func (w *CompressedWriter) BitsPerRecord() float64 {
	if w.records == 0 {
		return 0
	}
	return float64(w.bw.BitsWritten()) / float64(w.records)
}

// CompressedReader reads the version-2 container; it implements Source.
type CompressedReader struct {
	br     *bitio.Reader
	hdr    Header
	st     codecState
	read   uint64
	capped bool
}

// NewCompressedReader opens a compressed trace container.
func NewCompressedReader(r io.Reader) (*CompressedReader, error) {
	buf := bufio.NewReaderSize(r, 1<<16)
	var raw [20]byte
	if _, err := io.ReadFull(buf, raw[:]); err != nil {
		return nil, fmt.Errorf("trace: short header: %w", err)
	}
	if binary.BigEndian.Uint32(raw[0:]) != compressedMagic {
		return nil, errors.New("trace: not a compressed trace (bad magic)")
	}
	if v := binary.BigEndian.Uint32(raw[4:]); v != 2 {
		return nil, fmt.Errorf("trace: unsupported compressed version %d", v)
	}
	rd := &CompressedReader{br: bitio.NewReader(buf)}
	rd.hdr.StartPC = binary.BigEndian.Uint32(raw[8:])
	rd.hdr.Records = binary.BigEndian.Uint64(raw[12:])
	rd.capped = rd.hdr.Records != 0
	return rd, nil
}

// Header returns the container header.
func (r *CompressedReader) Header() Header { return r.hdr }

// Next implements Source.
func (r *CompressedReader) Next() (Record, error) {
	if r.capped && r.read >= r.hdr.Records {
		return Record{}, io.EOF
	}
	var rec Record
	k, err := r.br.ReadBits(fmtBits)
	if err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return rec, io.EOF
		}
		return rec, err
	}
	rec.Kind = Kind(k)
	if rec.Tag, err = r.br.ReadBool(); err != nil {
		return rec, err
	}
	switch rec.Kind {
	case KindOther:
		c, err := r.br.ReadBits(classBits)
		if err != nil {
			return rec, err
		}
		rec.Class = OpClass(c)
		if err := readRegs(r.br, &rec); err != nil {
			return rec, err
		}
	case KindMem:
		if rec.Store, err = r.br.ReadBool(); err != nil {
			return rec, err
		}
		sc, err := r.br.ReadBits(sizeBits)
		if err != nil {
			return rec, err
		}
		rec.Size = sizeFromCode(sc)
		if err := readMemRegs(r.br, &rec); err != nil {
			return rec, err
		}
		delta, err := readVarint(r.br)
		if err != nil {
			return rec, err
		}
		rec.Addr = uint32(int64(r.st.lastMemAddr) + delta)
	case KindBranch:
		c, err := r.br.ReadBits(ctrlBits)
		if err != nil {
			return rec, err
		}
		rec.Ctrl = CtrlKind(c)
		if rec.Taken, err = r.br.ReadBool(); err != nil {
			return rec, err
		}
		if err := readRegs(r.br, &rec); err != nil {
			return rec, err
		}
		dpc, err := readVarint(r.br)
		if err != nil {
			return rec, err
		}
		rec.PC = uint32(int64(r.st.lastBranchPC) + dpc)
		dt, err := readVarint(r.br)
		if err != nil {
			return rec, err
		}
		rec.Target = uint32(int64(rec.PC) + dt)
	default:
		return rec, fmt.Errorf("%w: format %d", ErrBadRecord, k)
	}
	r.st.advance(rec)
	r.read++
	return rec, nil
}
