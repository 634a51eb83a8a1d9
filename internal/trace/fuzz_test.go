package trace

import (
	"bytes"
	"io"
	"slices"
	"testing"

	"repro/internal/bitio"
	"repro/internal/isa"
)

// FuzzDecodeFrom feeds arbitrary bytes to the raw record decoder: it must
// never panic and must either produce a structurally valid record or a
// clean error.
func FuzzDecodeFrom(f *testing.F) {
	// Seed with valid encodings.
	for _, r := range []Record{
		{Kind: KindOther, Class: OpALU, Dest: 1, Src1: 2, Src2: 3},
		{Kind: KindMem, Size: 4, Addr: 0x1234},
		{Kind: KindBranch, Taken: true, PC: 0x1000, Target: 0x2000},
	} {
		var buf bytes.Buffer
		bw := bitio.NewWriter(&buf)
		_ = r.encodeTo(bw, nil)
		_ = bw.Flush()
		f.Add(buf.Bytes())
	}
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, data []byte) {
		br := bitio.NewReader(bytes.NewReader(data))
		for i := 0; i < 64; i++ {
			rec, err := decodeFrom(br, nil)
			if err != nil {
				return // clean error/EOF is fine
			}
			checkRegs(t, rec)
			// Decoded records must be re-encodable.
			var buf bytes.Buffer
			bw := bitio.NewWriter(&buf)
			if err := rec.encodeTo(bw, nil); err != nil {
				t.Fatalf("decoded record %v does not re-encode: %v", rec, err)
			}
			if int(bw.BitsWritten()) != rec.BitLen() {
				t.Fatalf("decoded record %v: BitLen %d, encoded %d",
					rec, rec.BitLen(), bw.BitsWritten())
			}
		}
	})
}

// FuzzCompressedReader feeds arbitrary containers, seeded with delta-coded
// ones, to the one reader; fuzzOpen states the property.
func FuzzCompressedReader(f *testing.F) {
	seed := container(f, true, 0x1000,
		Record{Kind: KindMem, Size: 4, Addr: 0x2000},
		Record{Kind: KindBranch, Taken: true, PC: 0x1000, Target: 0x3000})
	f.Add(seed)
	f.Add([]byte{})
	f.Add(seed[:8])
	f.Fuzz(fuzzOpen)
}

// FuzzRawReader does the same from raw containers.
func FuzzRawReader(f *testing.F) {
	f.Add(container(f, false, 0x1000, Record{Kind: KindOther, Class: OpMul, Dest: 5}))
	f.Add(make([]byte, headerLen+trailerLen))
	f.Fuzz(fuzzOpen)
}

// fuzzOpen opens data as a container of either coder. It must never panic
// or loop forever, never accept a record naming a register outside 0–31 or
// isa.NoReg, and an input it reads to io.EOF must have a trailer counting
// exactly the records read and must round-trip through a Writer of the same
// coder record for record.
func fuzzOpen(t *testing.T, data []byte) {
	r, err := Open(bytes.NewReader(data))
	if err != nil {
		return
	}
	recs, err := readAll(r)
	if err != nil {
		return // any clean error is acceptable
	}
	for _, rec := range recs {
		checkRegs(t, rec)
	}
	tr, err := ReadTrailer(bytes.NewReader(data), int64(len(data)))
	if err != nil || tr.Records != uint64(len(recs)) {
		t.Fatalf("accepted %d records; trailer %+v, %v", len(recs), tr, err)
	}
	again, err := Open(bytes.NewReader(container(t, r.st != nil, r.Header().StartPC, recs...)))
	if err != nil {
		t.Fatal(err)
	}
	if back, err := readAll(again); err != nil || !slices.Equal(back, recs) || again.Header() != r.Header() {
		t.Fatalf("accepted container does not round-trip: %v", err)
	}
}

// readAll reads r to its checked end.
func readAll(r *Reader) ([]Record, error) {
	var recs []Record
	for {
		rec, err := r.Next()
		if err == io.EOF {
			return recs, nil
		}
		if err != nil {
			return recs, err
		}
		recs = append(recs, rec)
	}
}

// checkRegs fails t unless rec names only registers 0–31 or isa.NoReg: a
// decoder must refuse the 6-bit fields' other values, not replay them.
func checkRegs(t *testing.T, rec Record) {
	t.Helper()
	for _, reg := range [...]isa.Reg{rec.Dest, rec.Src1, rec.Src2} {
		if reg >= isa.NumRegs && reg != isa.NoReg {
			t.Fatalf("accepted record %+v names register %d", rec, reg)
		}
	}
}

// container encodes recs as one container with the given coder.
func container(t testing.TB, compress bool, startPC uint32, recs ...Record) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf, Header{StartPC: startPC}, compress)
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
	return buf.Bytes()
}
