// Package bitio implements MSB-first bit-level reading and writing on top of
// byte streams. ReSim's trace records (paper §V.A) have per-format bit
// lengths (the paper reports 41-47 average trace bits per instruction), so
// the trace encoder needs sub-byte packing.
package bitio

import (
	"errors"
	"io"
)

// ErrBitOverflow is returned when a value does not fit in the requested width.
var ErrBitOverflow = errors.New("bitio: value wider than field")

// Writer packs bit fields MSB-first into an io.Writer.
type Writer struct {
	w    io.Writer
	cur  byte
	nCur uint // bits currently buffered in cur (0..7)
	bits uint64
	err  error
	buf  [1]byte
}

// NewWriter returns a bit writer emitting to w.
func NewWriter(w io.Writer) *Writer { return &Writer{w: w} }

// WriteBits writes the low `width` bits of v, MSB first. width must be ≤ 64.
func (bw *Writer) WriteBits(v uint64, width uint) error {
	if bw.err != nil {
		return bw.err
	}
	if width > 64 {
		return ErrBitOverflow
	}
	if width < 64 && v >= 1<<width {
		bw.err = ErrBitOverflow
		return bw.err
	}
	for i := int(width) - 1; i >= 0; i-- {
		bit := byte((v >> uint(i)) & 1)
		bw.cur = bw.cur<<1 | bit
		bw.nCur++
		bw.bits++
		if bw.nCur == 8 {
			bw.buf[0] = bw.cur
			if _, err := bw.w.Write(bw.buf[:]); err != nil {
				bw.err = err
				return err
			}
			bw.cur, bw.nCur = 0, 0
		}
	}
	return nil
}

// WriteBool writes a single bit.
func (bw *Writer) WriteBool(b bool) error {
	if b {
		return bw.WriteBits(1, 1)
	}
	return bw.WriteBits(0, 1)
}

// Flush pads the current partial byte with zero bits and writes it out.
func (bw *Writer) Flush() error {
	if bw.err != nil {
		return bw.err
	}
	if bw.nCur > 0 {
		bw.buf[0] = bw.cur << (8 - bw.nCur)
		if _, err := bw.w.Write(bw.buf[:]); err != nil {
			bw.err = err
			return err
		}
		bw.cur, bw.nCur = 0, 0
	}
	return nil
}

// BitsWritten reports the total number of payload bits written (excluding
// flush padding).
func (bw *Writer) BitsWritten() uint64 { return bw.bits }

// Err returns the first error encountered, if any.
func (bw *Writer) Err() error { return bw.err }

// Reader unpacks MSB-first bit fields from an io.Reader.
type Reader struct {
	r    io.Reader
	cur  byte
	nCur uint // bits remaining in cur
	err  error
	buf  [1]byte
}

// NewReader returns a bit reader consuming from r.
func NewReader(r io.Reader) *Reader { return &Reader{r: r} }

// ReadBits reads `width` bits MSB-first and returns them right-aligned.
func (br *Reader) ReadBits(width uint) (uint64, error) {
	if br.err != nil {
		return 0, br.err
	}
	if width > 64 {
		return 0, ErrBitOverflow
	}
	var v uint64
	for i := uint(0); i < width; i++ {
		if br.nCur == 0 {
			if _, err := io.ReadFull(br.r, br.buf[:]); err != nil {
				br.err = err
				return 0, err
			}
			br.cur, br.nCur = br.buf[0], 8
		}
		v = v<<1 | uint64(br.cur>>7)
		br.cur <<= 1
		br.nCur--
	}
	return v, nil
}

// ReadBool reads a single bit.
func (br *Reader) ReadBool() (bool, error) {
	v, err := br.ReadBits(1)
	return v == 1, err
}

// Err returns the first error encountered, if any.
func (br *Reader) Err() error { return br.err }
