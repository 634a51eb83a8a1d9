package trace

import (
	"bytes"
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
		_ = r.EncodeTo(bw)
		_ = bw.Flush()
		f.Add(buf.Bytes())
	}
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, data []byte) {
		br := bitio.NewReader(bytes.NewReader(data))
		for i := 0; i < 64; i++ {
			rec, err := DecodeFrom(br)
			if err != nil {
				return // clean error/EOF is fine
			}
			checkRegs(t, rec)
			// Decoded records must be re-encodable.
			var buf bytes.Buffer
			bw := bitio.NewWriter(&buf)
			if err := rec.EncodeTo(bw); err != nil {
				t.Fatalf("decoded record %v does not re-encode: %v", rec, err)
			}
			if int(bw.BitsWritten()) != rec.BitLen() {
				t.Fatalf("decoded record %v: BitLen %d, encoded %d",
					rec, rec.BitLen(), bw.BitsWritten())
			}
		}
	})
}

// FuzzCompressedReader feeds arbitrary containers to the compressed reader:
// it must never panic, never loop forever and never accept a record naming
// a register outside 0–31 or isa.NoReg.
func FuzzCompressedReader(f *testing.F) {
	var seed bytes.Buffer
	w, _ := NewCompressedWriter(&seed, Header{StartPC: 0x1000, Records: 2})
	_ = w.Write(Record{Kind: KindMem, Size: 4, Addr: 0x2000})
	_ = w.Write(Record{Kind: KindBranch, Taken: true, PC: 0x1000, Target: 0x3000})
	_ = w.Close()
	f.Add(seed.Bytes())
	f.Add([]byte{})
	f.Add(seed.Bytes()[:8])
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := NewCompressedReader(bytes.NewReader(data))
		if err != nil {
			return
		}
		for i := 0; i < 1024; i++ {
			rec, err := r.Next()
			if err != nil {
				return // EOF or any clean error is acceptable
			}
			checkRegs(t, rec)
		}
	})
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

// FuzzRawReader does the same for the version-1 container.
func FuzzRawReader(f *testing.F) {
	var seed bytes.Buffer
	w, _ := NewWriter(&seed, Header{StartPC: 0x1000, Records: 1})
	_ = w.Write(Record{Kind: KindOther, Class: OpMul, Dest: 5})
	_ = w.Close()
	f.Add(seed.Bytes())
	f.Add(make([]byte, 20))
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := NewReader(bytes.NewReader(data))
		if err != nil {
			return
		}
		for i := 0; i < 1024; i++ {
			rec, err := r.Next()
			if err != nil {
				return
			}
			checkRegs(t, rec)
		}
	})
}
