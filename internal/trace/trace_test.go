package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/bitio"
	"repro/internal/isa"
)

func sampleRecords() []Record {
	return []Record{
		{Kind: KindOther, Class: OpALU, Dest: 3, Src1: 4, Src2: 5},
		{Kind: KindOther, Class: OpMul, Dest: 10, Src1: 11, Src2: 12, Tag: true},
		{Kind: KindOther, Class: OpDiv, Dest: 9, Src1: 8, Src2: isa.NoReg},
		{Kind: KindMem, Size: 4, Addr: 0xDEADBEE0, Dest: 4, Src1: 29, Src2: isa.NoReg},
		{Kind: KindMem, Store: true, Size: 2, Addr: 0x1000, Dest: isa.NoReg, Src1: 29, Src2: 4},
		{Kind: KindBranch, Ctrl: isa.CtrlCond, Taken: true, PC: 0x1ffc, Target: 0x2000,
			Dest: isa.NoReg, Src1: 1, Src2: 2},
		{Kind: KindBranch, Ctrl: isa.CtrlCall, Taken: true, PC: 0x1004, Target: 0x400100,
			Dest: isa.RegRA, Src1: isa.NoReg, Src2: isa.NoReg},
		{Kind: KindBranch, Ctrl: isa.CtrlRet, Taken: true, PC: 0x40013c, Target: 0x400104,
			Dest: isa.NoReg, Src1: isa.RegRA, Src2: isa.NoReg, Tag: true},
	}
}

func TestRecordRoundTrip(t *testing.T) {
	for _, want := range sampleRecords() {
		var buf bytes.Buffer
		bw := bitio.NewWriter(&buf)
		if err := want.encodeTo(bw, nil); err != nil {
			t.Fatalf("%v: encode: %v", want, err)
		}
		if got := int(bw.BitsWritten()); got != want.BitLen() {
			t.Errorf("%v: wrote %d bits, BitLen says %d", want, got, want.BitLen())
		}
		if err := bw.Flush(); err != nil {
			t.Fatal(err)
		}
		got, err := decodeFrom(bitio.NewReader(&buf), nil)
		if err != nil {
			t.Fatalf("%v: decode: %v", want, err)
		}
		if got != want {
			t.Errorf("round trip:\n got %+v\nwant %+v", got, want)
		}
	}
}

func TestRecordLengthsMatchPaperShape(t *testing.T) {
	// The paper's three formats have distinct lengths; O is the shortest.
	if !(OtherBits < MemBits && MemBits < BranchBits) {
		t.Errorf("record lengths not ordered: O=%d M=%d B=%d", OtherBits, MemBits, BranchBits)
	}
	// A SPECINT-like mix should land in the paper's 40-50 bits/instr band
	// (Table 3 reports 41.16-47.14).
	mix := 0.55*float64(OtherBits) + 0.28*float64(MemBits) + 0.17*float64(BranchBits)
	if mix < 38 || mix > 50 {
		t.Errorf("typical-mix bits/instr = %.2f, want within [38,50]", mix)
	}
}

func TestFileRoundTrip(t *testing.T) {
	recs := sampleRecords()
	var buf bytes.Buffer
	w, err := NewWriter(&buf, Header{StartPC: 0x400000}, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if w.Records() != uint64(len(recs)) {
		t.Errorf("Records = %d, want %d", w.Records(), len(recs))
	}
	if bpr := w.BitsPerRecord(); bpr <= 0 {
		t.Errorf("BitsPerRecord = %v", bpr)
	}

	r, err := Open(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if r.Header().StartPC != 0x400000 {
		t.Errorf("StartPC = %#x", r.Header().StartPC)
	}
	for i, want := range recs {
		got, err := r.Next()
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if got != want {
			t.Errorf("record %d:\n got %+v\nwant %+v", i, got, want)
		}
	}
	if _, err := r.Next(); err != io.EOF {
		t.Errorf("after last record: err = %v, want EOF", err)
	}
}

func TestOpenAutoDetectsContainers(t *testing.T) {
	recs := sampleRecords()
	for _, compressed := range []bool{false, true} {
		src, err := Open(bytes.NewReader(container(t, compressed, 0x1000, recs...)))
		if err != nil {
			t.Fatalf("compressed=%t: %v", compressed, err)
		}
		if hdr := src.Header(); hdr.StartPC != 0x1000 {
			t.Errorf("compressed=%t: StartPC = %#x", compressed, hdr.StartPC)
		}
		got, err := readAll(src)
		if err != nil {
			t.Fatalf("compressed=%t: %v", compressed, err)
		}
		if !slices.Equal(got, recs) {
			t.Errorf("compressed=%t: records differ", compressed)
		}
	}
	if _, err := Open(bytes.NewReader([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})); err == nil {
		t.Error("garbage container accepted")
	}
	if _, err := Open(bytes.NewReader([]byte{1})); err == nil {
		t.Error("short file accepted")
	}
}

// TestCutContainersRefused cuts a raw and a compressed container at every
// byte offset: each cut is refused, with an error that is not io.EOF, and
// the whole container (and an empty one) reads to io.EOF.
func TestCutContainersRefused(t *testing.T) {
	for _, compressed := range []bool{false, true} {
		for _, recs := range [][]Record{sampleRecords(), nil} {
			whole := container(t, compressed, 0x1000, recs...)
			for n := 0; n <= len(whole); n++ {
				var got []Record
				r, err := Open(bytes.NewReader(whole[:n]))
				if err == nil {
					got, err = readAll(r)
				}
				switch {
				case n == len(whole) && (err != nil || !slices.Equal(got, recs)):
					t.Errorf("compressed=%t, %d records: whole container read %d records, %v",
						compressed, len(recs), len(got), err)
				case n < len(whole) && (err == nil || errors.Is(err, io.EOF)):
					t.Errorf("compressed=%t, %d records: cut at %d of %d bytes: err = %v after %d records",
						compressed, len(recs), n, len(whole), err, len(got))
				}
			}
		}
	}
}

// TestDamagedContainersRefused: a flipped payload bit, a wrong trailer
// count, trailing garbage and a pre-trailer version are all refused.
func TestDamagedContainersRefused(t *testing.T) {
	whole := container(t, true, 0x1000, sampleRecords()...)
	damage := map[string]func([]byte) []byte{
		"payload bit": func(b []byte) []byte { b[headerLen+3] ^= 0x10; return b },
		"count":       func(b []byte) []byte { b[len(b)-trailerLen+7]++; return b },
		"crc":         func(b []byte) []byte { b[len(b)-1] ^= 1; return b },
		"appended":    func(b []byte) []byte { return append(b, 0) },
	}
	for name, f := range damage {
		r, err := Open(bytes.NewReader(f(bytes.Clone(whole))))
		if err == nil {
			_, err = readAll(r)
		}
		if err == nil || errors.Is(err, io.EOF) {
			t.Errorf("%s: err = %v", name, err)
		}
	}
	for _, v := range []uint32{1, 2, fileVersion + 1} {
		b := bytes.Clone(whole)
		binary.BigEndian.PutUint32(b[4:], v)
		if _, err := Open(bytes.NewReader(b)); err == nil {
			t.Errorf("version %d accepted", v)
		} else if v < fileVersion && !strings.Contains(err.Error(), "regenerate") {
			t.Errorf("version %d: %v does not say to regenerate the file", v, err)
		}
	}
}

func TestReadTrailer(t *testing.T) {
	whole := container(t, false, 0x1000, sampleRecords()...)
	tr, err := ReadTrailer(bytes.NewReader(whole), int64(len(whole)))
	if err != nil {
		t.Fatal(err)
	}
	payload := whole[headerLen : len(whole)-trailerLen]
	if tr.Records != uint64(len(sampleRecords())) || tr.CRC != crc32.ChecksumIEEE(payload) {
		t.Errorf("trailer = %+v", tr)
	}
	if _, err := ReadTrailer(bytes.NewReader(whole), headerLen+trailerLen-1); err == nil {
		t.Error("trailer read from a container shorter than header and trailer")
	}
}

func TestBadMagicRejected(t *testing.T) {
	raw := make([]byte, headerLen+trailerLen)
	if _, err := Open(bytes.NewReader(raw)); err == nil {
		t.Error("bad magic accepted")
	}
	if _, err := Open(bytes.NewReader(raw[:5])); err == nil {
		t.Error("short header accepted")
	}
}

func TestSliceSource(t *testing.T) {
	recs := sampleRecords()
	s := NewSliceSource(recs)
	if s.Len() != len(recs) {
		t.Errorf("Len = %d", s.Len())
	}
	for i := range recs {
		r, err := s.Next()
		if err != nil {
			t.Fatal(err)
		}
		if r != recs[i] {
			t.Errorf("record %d mismatch", i)
		}
	}
	if _, err := s.Next(); err != io.EOF {
		t.Errorf("err = %v, want EOF", err)
	}
	s.Reset()
	if r, _ := s.Next(); r != recs[0] {
		t.Error("Reset did not rewind")
	}
}

func TestBufferedPeekNext(t *testing.T) {
	recs := sampleRecords()
	b := NewBuffered(NewSliceSource(recs))
	p1, err := b.Peek()
	if err != nil {
		t.Fatal(err)
	}
	p2, _ := b.Peek()
	if p1 != p2 {
		t.Error("repeated Peek returned different records")
	}
	n1, _ := b.Next()
	if n1 != p1 {
		t.Error("Next did not return peeked record")
	}
	if b.Pos() != 1 {
		t.Errorf("Pos = %d, want 1", b.Pos())
	}
}

func TestBufferedSkipTagged(t *testing.T) {
	recs := []Record{
		{Kind: KindOther, Tag: true},
		{Kind: KindMem, Tag: true, Src1: 1},
		{Kind: KindBranch, Tag: true, Ctrl: isa.CtrlCond},
		{Kind: KindOther, Dest: 5},
	}
	b := NewBuffered(NewSliceSource(recs))
	if n := b.SkipTagged(); n != 3 {
		t.Errorf("SkipTagged = %d, want 3", n)
	}
	if b.Pos() != 3 {
		t.Errorf("Pos after skip = %d, want 3", b.Pos())
	}
	r, err := b.Next()
	if err != nil || r.Tag {
		t.Errorf("after skip: %v %v", r, err)
	}
	// Skipping when next record is untagged is a no-op.
	if n := b.SkipTagged(); n != 0 {
		t.Errorf("SkipTagged on untagged = %d", n)
	}
	// Skipping at EOF is a no-op.
	b2 := NewBuffered(NewSliceSource(nil))
	if n := b2.SkipTagged(); n != 0 {
		t.Errorf("SkipTagged at EOF = %d", n)
	}
	if _, err := b2.Next(); err != io.EOF {
		t.Errorf("err = %v, want EOF", err)
	}
}

func TestFromInst(t *testing.T) {
	ld := trFromInst(t, isa.Lw(4, 29, 8), 0x1008, false, 0)
	if ld.Kind != KindMem || ld.Store || ld.Addr != 0x1008 || ld.Dest != 4 || ld.Src1 != 29 {
		t.Errorf("lw record: %+v", ld)
	}
	if ld.PC != 0 {
		t.Errorf("non-branch record carries PC: %+v", ld)
	}
	st := trFromInst(t, isa.Sw(4, 29, 8), 0x1008, false, 0)
	if st.Kind != KindMem || !st.Store || st.Src2 != 4 || st.Dest != isa.NoReg {
		t.Errorf("sw record: %+v", st)
	}
	br := trFromInst(t, isa.Beq(1, 2, 4), 0, true, 0x2014)
	if br.Kind != KindBranch || br.Ctrl != isa.CtrlCond || !br.Taken || br.Target != 0x2014 {
		t.Errorf("beq record: %+v", br)
	}
	if br.PC != 0x1000 {
		t.Errorf("branch record PC = %#x, want 0x1000", br.PC)
	}
	mul := trFromInst(t, isa.Mul(3, 1, 2), 0, false, 0)
	if mul.Kind != KindOther || mul.Class != OpMul {
		t.Errorf("mul record: %+v", mul)
	}
	dv := trFromInst(t, isa.Div(3, 1, 2), 0, false, 0)
	if dv.Class != OpDiv {
		t.Errorf("div record: %+v", dv)
	}
	alu := trFromInst(t, isa.Add(3, 1, 2), 0, false, 0)
	if alu.Kind != KindOther || alu.Class != OpALU {
		t.Errorf("add record: %+v", alu)
	}
}

func trFromInst(t *testing.T, in isa.Inst, addr uint32, taken bool, target uint32) Record {
	t.Helper()
	return FromInst(isa.Decode(in.Word(), 0x1000), 0x1000, addr, taken, target)
}

// Property: random valid records survive encode/decode through a shared
// bit stream (records are not byte aligned, so framing must be exact).
func TestQuickStreamRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	randReg := func() isa.Reg {
		if rng.Intn(4) == 0 {
			return isa.NoReg
		}
		return isa.Reg(rng.Intn(32))
	}
	genRec := func() Record {
		switch rng.Intn(3) {
		case 0:
			return Record{Kind: KindOther, Class: OpClass(rng.Intn(3)),
				Tag: rng.Intn(2) == 0, Dest: randReg(), Src1: randReg(), Src2: randReg()}
		case 1:
			st := rng.Intn(2) == 0
			r := Record{Kind: KindMem, Store: st, Tag: rng.Intn(2) == 0,
				Size: []uint8{1, 2, 4}[rng.Intn(3)],
				Addr: rng.Uint32(), Src1: randReg(), Dest: isa.NoReg, Src2: isa.NoReg}
			if st {
				r.Src2 = randReg()
			} else {
				r.Dest = randReg()
			}
			return r
		default:
			return Record{Kind: KindBranch, Ctrl: isa.CtrlKind(1 + rng.Intn(6)),
				Taken: rng.Intn(2) == 0, PC: rng.Uint32() &^ 3, Target: rng.Uint32() &^ 3,
				Tag: rng.Intn(2) == 0, Dest: randReg(), Src1: randReg(), Src2: randReg()}
		}
	}
	f := func() bool {
		n := 1 + rng.Intn(50)
		recs := make([]Record, n)
		for i := range recs {
			recs[i] = genRec()
		}
		var buf bytes.Buffer
		bw := bitio.NewWriter(&buf)
		var bits uint64
		for _, r := range recs {
			if err := r.encodeTo(bw, nil); err != nil {
				return false
			}
			bits += uint64(r.BitLen())
		}
		if bw.BitsWritten() != bits {
			return false
		}
		if err := bw.Flush(); err != nil {
			return false
		}
		br := bitio.NewReader(&buf)
		for _, want := range recs {
			got, err := decodeFrom(br, nil)
			if err != nil || got != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestRecordString(t *testing.T) {
	for _, r := range sampleRecords() {
		if r.String() == "" {
			t.Error("empty String()")
		}
	}
	if s := (Record{Kind: KindBranch, Tag: true}).String(); s == "" || s[len(s)-4:] != "[wp]" {
		t.Errorf("wrong-path marker missing: %q", s)
	}
}

// TestBufferedPosSkipReattach pins the checkpoint re-attachment contract:
// after consuming (and skip-discarding) an arbitrary prefix, Pos names a
// position such that a fresh Buffered over an identical source, advanced
// with Skip(Pos), yields exactly the remaining records.
func TestBufferedPosSkipReattach(t *testing.T) {
	recs := []Record{
		{Kind: KindOther}, {Kind: KindBranch, Taken: true, Target: 64},
		{Kind: KindOther, Tag: true}, {Kind: KindMem, Tag: true, Addr: 4},
		{Kind: KindOther}, {Kind: KindMem, Addr: 8}, {Kind: KindOther},
	}
	b := NewBuffered(NewSliceSource(recs))
	if _, err := b.Next(); err != nil { // consume record 0
		t.Fatal(err)
	}
	if _, err := b.Next(); err != nil { // consume record 1 (branch)
		t.Fatal(err)
	}
	if n := b.SkipTagged(); n != 2 { // discard the wrong-path block
		t.Fatalf("SkipTagged = %d, want 2", n)
	}
	if _, err := b.Peek(); err != nil { // lookahead must not advance Pos
		t.Fatal(err)
	}
	pos := b.Pos()
	if pos != 4 {
		t.Fatalf("Pos = %d, want 4 (records irrevocably taken)", pos)
	}

	resumed := NewBuffered(NewSliceSource(recs))
	if err := resumed.Skip(pos); err != nil {
		t.Fatal(err)
	}
	for {
		want, errA := b.Next()
		got, errB := resumed.Next()
		if (errA != nil) != (errB != nil) {
			t.Fatalf("stream ends diverged: %v vs %v", errA, errB)
		}
		if errA != nil {
			break
		}
		if want != got {
			t.Fatalf("resumed stream diverged: %v vs %v", want, got)
		}
	}

	// Skipping past the end reports the shortfall.
	short := NewBuffered(NewSliceSource(recs))
	if err := short.Skip(uint64(len(recs)) + 1); err == nil {
		t.Error("Skip past the end succeeded")
	}
}
