package trace

import (
	"bytes"
	"io"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/bitio"
	"repro/internal/isa"
)

func TestVarintRoundTrip(t *testing.T) {
	vals := []int64{0, 1, -1, 4, -4, 7, 8, -8, 127, -128, 1 << 20, -(1 << 20),
		1<<31 - 1, -(1 << 31), 1<<40 + 3}
	for _, v := range vals {
		var buf bytes.Buffer
		bw := bitio.NewWriter(&buf)
		writeVarint(bw, v)
		if err := bw.Flush(); err != nil {
			t.Fatal(err)
		}
		got, err := readVarint(bitio.NewReader(&buf))
		if err != nil {
			t.Fatal(err)
		}
		if got != v {
			t.Errorf("varint(%d) round-tripped to %d", v, got)
		}
	}
}

// varintBits returns the encoded width of delta in bits.
func varintBits(delta int64) int {
	bw := bitio.NewWriter(io.Discard)
	writeVarint(bw, delta)
	return int(bw.BitsWritten())
}

func TestZigzagSmallMagnitudesAreCheap(t *testing.T) {
	// Strides of +/-4..64 must fit in one or two nibble groups.
	for _, d := range []int64{4, -4, 8, 64, -64} {
		if bits := varintBits(d); bits > 10 {
			t.Errorf("delta %d costs %d bits, want <= 10", d, bits)
		}
	}
	// A full random 32-bit address costs more than the raw field only in
	// pathological cases; the codec still bounds it.
	if bits := varintBits(1 << 31); bits > 45 {
		t.Errorf("worst-case delta costs %d bits", bits)
	}
}

func TestCompressedRoundTrip(t *testing.T) {
	recs := sampleRecords()
	var buf bytes.Buffer
	w, err := NewWriter(&buf, Header{StartPC: 0x1000}, true)
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
		t.Errorf("Records = %d", w.Records())
	}
	if w.BitsPerRecord() <= 0 {
		t.Error("BitsPerRecord not tracked")
	}

	r, err := Open(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if r.Header().StartPC != 0x1000 {
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
		t.Errorf("err = %v, want EOF", err)
	}
}

func TestCompressionBeatsRawOnLocalStreams(t *testing.T) {
	// A stream with realistic locality — strided loads and loop branches —
	// must compress well below the raw format.
	var recs []Record
	addr := uint32(0x10000)
	for i := 0; i < 2000; i++ {
		switch i % 4 {
		case 0, 1:
			recs = append(recs, Record{Kind: KindMem, Size: 4, Dest: 4, Src1: 9,
				Src2: isa.NoReg, Addr: addr})
			addr += 16
		case 2:
			recs = append(recs, Record{Kind: KindOther, Class: OpALU,
				Dest: 5, Src1: 4, Src2: isa.NoReg})
		default:
			recs = append(recs, Record{Kind: KindBranch, Ctrl: isa.CtrlCond,
				Taken: true, PC: 0x1040, Target: 0x1000,
				Dest: isa.NoReg, Src1: 5, Src2: isa.NoReg})
		}
	}
	var bits [2]uint64
	for i, compress := range []bool{false, true} {
		w, _ := NewWriter(io.Discard, Header{}, compress)
		for _, r := range recs {
			if err := w.Write(r); err != nil {
				t.Fatal(err)
			}
		}
		_ = w.Close()
		bits[i] = w.BitsWritten()
	}
	rawBits, compBits := bits[0], bits[1]
	ratio := float64(rawBits) / float64(compBits)
	if ratio < 1.4 {
		t.Errorf("compression ratio = %.2fx, want >= 1.4x (raw %d vs %d bits)",
			ratio, rawBits, compBits)
	}
}

// Property: arbitrary record streams round-trip through the compressed
// codec (the stateful delta chain must stay in sync).
func TestQuickCompressedRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	randReg := func() isa.Reg {
		if rng.Intn(5) == 0 {
			return isa.NoReg
		}
		return isa.Reg(rng.Intn(32))
	}
	gen := func() Record {
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
				Taken: rng.Intn(2) == 0, PC: rng.Uint32(), Target: rng.Uint32(),
				Tag: rng.Intn(2) == 0, Dest: randReg(), Src1: randReg(), Src2: randReg()}
		}
	}
	f := func() bool {
		n := 1 + rng.Intn(60)
		recs := make([]Record, n)
		for i := range recs {
			recs[i] = gen()
		}
		rd, err := Open(bytes.NewReader(container(t, true, 0, recs...)))
		if err != nil {
			return false
		}
		got, err := readAll(rd)
		return err == nil && slices.Equal(got, recs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}
