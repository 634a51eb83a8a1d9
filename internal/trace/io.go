package trace

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"repro/internal/bitio"
)

// Source yields a stream of trace records. Next returns io.EOF when the
// trace is exhausted. ReSim consumes records strictly in order; wrong-path
// handling needs one record of lookahead, provided by Buffered.
type Source interface {
	Next() (Record, error)
}

// A trace container is a header, the records' bit stream flushed to a
// byte boundary (the payload), and a trailer:
//
//	header:  magic(4) version(4) startPC(4)
//	trailer: records(8) crc32(4)      the CRC-32 (IEEE) of the payload
//
// all big-endian. The magic picks the address coder: "RSTR" is the raw
// container (the paper's record format), "RSTC" the delta-coded one. Both
// share fileVersion; version 1 (raw) and 2 (delta) had no trailer.
const (
	fileMagic   = 0x52535452 // "RSTR"
	fileVersion = 3
	headerLen   = 12
	trailerLen  = 12
)

// Header is the trace file preamble: where execution starts.
type Header struct {
	StartPC uint32
}

// Trailer ends every container: its record count and the CRC-32 of its
// payload bytes. A Reader checks it, so a cut container is an error.
type Trailer struct {
	Records uint64
	CRC     uint32
}

func parseTrailer(b []byte) Trailer {
	return Trailer{Records: binary.BigEndian.Uint64(b), CRC: binary.BigEndian.Uint32(b[8:])}
}

// ReadTrailer reads the trailer of a size-byte container from r without
// decoding its records.
func ReadTrailer(r io.ReaderAt, size int64) (Trailer, error) {
	var b [trailerLen]byte
	if size < headerLen+trailerLen {
		return Trailer{}, fmt.Errorf("trace: %d-byte container is shorter than its header and trailer", size)
	}
	if _, err := r.ReadAt(b[:], size-trailerLen); err != nil {
		return Trailer{}, fmt.Errorf("trace: reading trailer: %w", err)
	}
	return parseTrailer(b[:]), nil
}

// Writer encodes records into a trace container.
type Writer struct {
	bw      *bitio.Writer
	out     payloadWriter
	st      *codecState
	records uint64
}

// NewWriter writes a trace container to w, beginning with hdr. compress
// selects the delta-coded container, typically ~1.4x smaller than raw.
func NewWriter(w io.Writer, hdr Header, compress bool) (*Writer, error) {
	wr := &Writer{out: payloadWriter{w: w, buf: make([]byte, 0, 1<<16)}}
	magic := uint32(fileMagic)
	if compress {
		magic, wr.st = compressedMagic, new(codecState)
	}
	var raw [headerLen]byte
	binary.BigEndian.PutUint32(raw[0:], magic)
	binary.BigEndian.PutUint32(raw[4:], fileVersion)
	binary.BigEndian.PutUint32(raw[8:], hdr.StartPC)
	if _, err := w.Write(raw[:]); err != nil {
		return nil, err
	}
	wr.bw = bitio.NewWriter(&wr.out)
	return wr, nil
}

// Write appends one record.
func (w *Writer) Write(r Record) error {
	if err := r.encodeTo(w.bw, w.st); err != nil {
		return err
	}
	w.records++
	return nil
}

// Close flushes the payload and writes the trailer. It does not close the
// underlying writer.
func (w *Writer) Close() error {
	if err := w.bw.Flush(); err != nil {
		return err
	}
	if err := w.out.flush(); err != nil {
		return err
	}
	var raw [trailerLen]byte
	binary.BigEndian.PutUint64(raw[0:], w.records)
	binary.BigEndian.PutUint32(raw[8:], w.out.crc)
	_, err := w.out.w.Write(raw[:])
	return err
}

// Records returns the number of records written.
func (w *Writer) Records() uint64 { return w.records }

// BitsWritten returns payload bits written (excluding header, padding and
// trailer).
func (w *Writer) BitsWritten() uint64 { return w.bw.BitsWritten() }

// BitsPerRecord returns the average encoded bits per record so far. This is
// the quantity Table 3 reports as "bits/Instr".
func (w *Writer) BitsPerRecord() float64 {
	if w.records == 0 {
		return 0
	}
	return float64(w.bw.BitsWritten()) / float64(w.records)
}

// payloadWriter buffers payload bytes on their way to w and keeps their
// CRC.
type payloadWriter struct {
	w   io.Writer
	buf []byte
	crc uint32
}

func (p *payloadWriter) Write(b []byte) (int, error) {
	p.buf = append(p.buf, b...)
	if len(p.buf) >= cap(p.buf) {
		return len(b), p.flush()
	}
	return len(b), nil
}

func (p *payloadWriter) flush() error {
	p.crc = crc32.Update(p.crc, crc32.IEEETable, p.buf)
	_, err := p.w.Write(p.buf)
	p.buf = p.buf[:0]
	return err
}

// Reader decodes a trace container produced by Writer, either coder. It
// returns io.EOF only after the trailer checks out; a container that ends
// early, or whose count or CRC does not match, is an error.
type Reader struct {
	br   *bitio.Reader
	in   *payloadReader
	hdr  Header
	st   *codecState
	read uint64
	err  error // sticky: io.EOF after a checked trailer, or the failure
}

// Open reads a trace container's header from r and returns the Reader
// for its records.
func Open(r io.Reader) (*Reader, error) {
	var raw [headerLen]byte
	if _, err := io.ReadFull(r, raw[:]); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, fmt.Errorf("trace: short header: %w", err)
	}
	rd := &Reader{hdr: Header{StartPC: binary.BigEndian.Uint32(raw[8:])}}
	switch binary.BigEndian.Uint32(raw[0:]) {
	case fileMagic:
	case compressedMagic:
		rd.st = new(codecState)
	default:
		return nil, errors.New("trace: unrecognized container magic")
	}
	switch v := binary.BigEndian.Uint32(raw[4:]); {
	case v < fileVersion:
		return nil, fmt.Errorf("trace: container version %d has no trailer; regenerate the file with tracegen", v)
	case v > fileVersion:
		return nil, fmt.Errorf("trace: unsupported container version %d", v)
	}
	rd.in = &payloadReader{r: r, buf: make([]byte, 1<<16)}
	rd.br = bitio.NewReader(rd.in)
	return rd, nil
}

// Header returns the container header.
func (r *Reader) Header() Header { return r.hdr }

// Next returns the next record, or io.EOF once every record is read and the
// trailer matches them.
func (r *Reader) Next() (Record, error) {
	if r.err != nil {
		return Record{}, r.err
	}
	rec, err := decodeFrom(r.br, r.st)
	if err == nil {
		r.read++
		return rec, nil
	}
	if err == io.EOF {
		// The payload ends in flush padding, shorter than any record.
		err = r.in.check(r.read)
	}
	r.err = err
	return Record{}, err
}

// payloadReader serves a container's payload to the bit reader: it holds
// back the last trailerLen bytes it has read, so no trailer byte is ever
// decoded as a record, and at the end of the input those bytes are the
// trailer.
type payloadReader struct {
	r        io.Reader
	buf      []byte
	off, end int    // buf[off:end] is read ahead; buf[:off] is served
	crc      uint32 // of the payload served before buf
	err      error  // the input's, once it has returned one
}

func (p *payloadReader) Read(b []byte) (int, error) {
	for p.end-p.off <= trailerLen {
		if p.err != nil {
			return 0, p.err
		}
		p.crc = crc32.Update(p.crc, crc32.IEEETable, p.buf[:p.off])
		p.end = copy(p.buf, p.buf[p.off:p.end])
		p.off = 0
		var n int
		n, p.err = p.r.Read(p.buf[p.end:])
		p.end += n
	}
	n := copy(b, p.buf[p.off:p.end-trailerLen])
	p.off += n
	return n, nil
}

// check verifies the trailer once the payload is exhausted and n records
// were decoded from it.
func (p *payloadReader) check(n uint64) error {
	if p.end-p.off < trailerLen {
		return fmt.Errorf("trace: container ends before its trailer: %w", io.ErrUnexpectedEOF)
	}
	t := parseTrailer(p.buf[p.off:p.end])
	crc := crc32.Update(p.crc, crc32.IEEETable, p.buf[:p.off])
	switch {
	case t.Records != n:
		return fmt.Errorf("trace: container cut short or corrupt: read %d records, its trailer counts %d", n, t.Records)
	case t.CRC != crc:
		return fmt.Errorf("trace: container corrupt: payload CRC %08x, its trailer %08x", crc, t.CRC)
	}
	return io.EOF
}

// SliceSource serves records from memory; it is the Source used by
// benchmarks so that trace decode cost does not pollute engine timing.
type SliceSource struct {
	recs []Record
	pos  int
}

// NewSliceSource returns a Source over recs.
func NewSliceSource(recs []Record) *SliceSource { return &SliceSource{recs: recs} }

// Next implements Source.
func (s *SliceSource) Next() (Record, error) {
	if s.pos >= len(s.recs) {
		return Record{}, io.EOF
	}
	r := s.recs[s.pos]
	s.pos++
	return r, nil
}

// Reset rewinds the source to the beginning (benchmark reuse).
func (s *SliceSource) Reset() { s.pos = 0 }

// Len returns the total number of records.
func (s *SliceSource) Len() int { return len(s.recs) }

// Buffered adds one-record lookahead and tagged-block skipping on top of any
// Source. The engine uses Peek to decide whether a wrong-path block follows
// a branch, and SkipTagged to implement the paper's "tagged instructions
// that have not been fetched by the branch resolution point at Commit are
// discarded".
type Buffered struct {
	src    Source
	have   bool
	head   Record
	err    error
	pulled uint64 // records pulled from the underlying source (incl. lookahead)

	// slice, when the underlying source is a SliceSource, short-circuits
	// every operation to direct indexing: no per-record interface call, no
	// copy into the lookahead buffer. This is the path cached traces replay
	// through (tracecache hands engines SliceSources), i.e. the hot loop of
	// warm sweeps and trace-driven benchmarks. sliceBase is the source's
	// position at wrap time, so Pos stays relative to this reader like the
	// generic path's pulled counter.
	slice     *SliceSource
	sliceBase int
}

// NewBuffered wraps src with lookahead.
func NewBuffered(src Source) *Buffered {
	b := &Buffered{src: src}
	if s, ok := src.(*SliceSource); ok {
		b.slice, b.sliceBase = s, s.pos
	}
	return b
}

func (b *Buffered) fill() {
	if b.have || b.err != nil {
		return
	}
	r, err := b.src.Next()
	if err != nil {
		b.err = err
		return
	}
	b.head, b.have = r, true
	b.pulled++
}

// Peek returns the next record without consuming it.
func (b *Buffered) Peek() (Record, error) {
	if s := b.slice; s != nil {
		if s.pos >= len(s.recs) {
			return Record{}, io.EOF
		}
		return s.recs[s.pos], nil
	}
	b.fill()
	if !b.have {
		return Record{}, b.err
	}
	return b.head, nil
}

// Next consumes and returns the next record.
func (b *Buffered) Next() (Record, error) {
	if s := b.slice; s != nil {
		if s.pos >= len(s.recs) {
			return Record{}, io.EOF
		}
		r := s.recs[s.pos]
		s.pos++
		return r, nil
	}
	b.fill()
	if !b.have {
		return Record{}, b.err
	}
	b.have = false
	return b.head, nil
}

// Advance consumes the record a preceding Peek/PeekRef returned, without
// copying it again — the engine's fetch loop peeks every record before
// deciding to take it, so Next's second copy is pure overhead there. A
// no-op when nothing is buffered.
func (b *Buffered) Advance() {
	if s := b.slice; s != nil {
		if s.pos < len(s.recs) {
			s.pos++
		}
		return
	}
	b.have = false
}

// PeekRef is Peek without the value copy: the returned pointer aliases the
// lookahead buffer (or the backing record slice) and is valid only until
// the next Advance/Next/Skip. The slice fast path is kept small enough to
// inline into the engine's fetch loop.
func (b *Buffered) PeekRef() (*Record, error) {
	if s := b.slice; s != nil && s.pos < len(s.recs) {
		return &s.recs[s.pos], nil
	}
	return b.peekRefSlow()
}

func (b *Buffered) peekRefSlow() (*Record, error) {
	if b.slice != nil {
		return nil, io.EOF
	}
	b.fill()
	if !b.have {
		return nil, b.err
	}
	return &b.head, nil
}

// SkipTagged discards consecutive Tag=1 records and returns how many were
// discarded.
func (b *Buffered) SkipTagged() int {
	if s := b.slice; s != nil {
		n := 0
		for s.pos < len(s.recs) && s.recs[s.pos].Tag {
			s.pos++
			n++
		}
		return n
	}
	n := 0
	for {
		r, err := b.Peek()
		if err != nil || !r.Tag {
			return n
		}
		_, _ = b.Next()
		n++
	}
}

// Err returns the error that ended the source, or nil while it has not
// ended or when it ended with io.EOF. The engine's fetch stops at any
// error; its run loop then reports this one, so a bad trace fails the run.
func (b *Buffered) Err() error {
	if b.err == io.EOF {
		return nil
	}
	return b.err
}

// Pos returns the stream position: how many records of the underlying
// source have been irrevocably taken (consumed or discarded), excluding the
// one sitting in the lookahead buffer. A fresh Buffered over an identical
// source, advanced past Pos records with Skip, resumes the exact stream —
// the re-attachment contract engine checkpoints rely on.
func (b *Buffered) Pos() uint64 {
	if s := b.slice; s != nil {
		return uint64(s.pos - b.sliceBase)
	}
	if b.have {
		return b.pulled - 1
	}
	return b.pulled
}

// Skip discards n records from the start of the stream (checkpoint
// re-attachment on a fresh source). It fails if the source drains first.
func (b *Buffered) Skip(n uint64) error {
	if s := b.slice; s != nil {
		if left := uint64(len(s.recs) - s.pos); n > left {
			s.pos = len(s.recs)
			return fmt.Errorf("trace: source drained after %d of %d skipped records: %w", left, n, io.EOF)
		}
		s.pos += int(n)
		return nil
	}
	for i := uint64(0); i < n; i++ {
		b.fill()
		if !b.have {
			return fmt.Errorf("trace: source drained after %d of %d skipped records: %w", i, n, b.err)
		}
		b.have = false
	}
	return nil
}
