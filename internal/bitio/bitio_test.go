package bitio

import (
	"bytes"
	"io"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestWriteReadRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	fields := []struct {
		v     uint64
		width uint
	}{
		{0b101, 3}, {1, 1}, {0, 1}, {0xDEADBEEF, 32}, {0x3F, 6},
		{0, 64}, {^uint64(0), 64}, {0x1FFF, 13},
	}
	var total uint64
	for _, f := range fields {
		if err := w.WriteBits(f.v, f.width); err != nil {
			t.Fatalf("WriteBits(%x,%d): %v", f.v, f.width, err)
		}
		total += uint64(f.width)
	}
	if w.BitsWritten() != total {
		t.Errorf("BitsWritten = %d, want %d", w.BitsWritten(), total)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r := NewReader(&buf)
	for _, f := range fields {
		got, err := r.ReadBits(f.width)
		if err != nil {
			t.Fatalf("ReadBits(%d): %v", f.width, err)
		}
		if got != f.v {
			t.Errorf("ReadBits(%d) = %x, want %x", f.width, got, f.v)
		}
	}
}

func TestOverflowRejected(t *testing.T) {
	w := NewWriter(io.Discard)
	if err := w.WriteBits(4, 2); err != ErrBitOverflow {
		t.Errorf("want ErrBitOverflow, got %v", err)
	}
	// Writer is sticky after an error.
	if err := w.WriteBits(1, 1); err != ErrBitOverflow {
		t.Errorf("writer not sticky: %v", err)
	}
}

func TestWidthTooLarge(t *testing.T) {
	w := NewWriter(io.Discard)
	if err := w.WriteBits(0, 65); err != ErrBitOverflow {
		t.Errorf("want ErrBitOverflow for width 65, got %v", err)
	}
	r := NewReader(bytes.NewReader(nil))
	if _, err := r.ReadBits(65); err != ErrBitOverflow {
		t.Errorf("want ErrBitOverflow for read width 65, got %v", err)
	}
}

func TestBoolRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	pattern := []bool{true, false, true, true, false, false, true, false, true}
	for _, b := range pattern {
		if err := w.WriteBool(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r := NewReader(&buf)
	for i, want := range pattern {
		got, err := r.ReadBool()
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("bit %d = %v, want %v", i, got, want)
		}
	}
}

func TestEOFPropagates(t *testing.T) {
	r := NewReader(bytes.NewReader([]byte{0xFF}))
	if _, err := r.ReadBits(8); err != nil {
		t.Fatal(err)
	}
	if _, err := r.ReadBits(1); err != io.EOF {
		t.Errorf("want io.EOF, got %v", err)
	}
	// Reader is sticky after EOF.
	if _, err := r.ReadBits(1); err != io.EOF {
		t.Errorf("reader not sticky: %v", err)
	}
}

func TestFlushPadsWithZeros(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	_ = w.WriteBits(1, 1)
	_ = w.Flush()
	if got := buf.Bytes(); len(got) != 1 || got[0] != 0x80 {
		t.Errorf("flushed byte = %x, want 80", got)
	}
}

// Property: random field sequences round-trip exactly.
func TestQuickRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := func() bool {
		n := 1 + rng.Intn(60)
		widths := make([]uint, n)
		vals := make([]uint64, n)
		for i := range widths {
			widths[i] = uint(1 + rng.Intn(64))
			if widths[i] == 64 {
				vals[i] = rng.Uint64()
			} else {
				vals[i] = rng.Uint64() & (1<<widths[i] - 1)
			}
		}
		var buf bytes.Buffer
		w := NewWriter(&buf)
		for i := range widths {
			if err := w.WriteBits(vals[i], widths[i]); err != nil {
				return false
			}
		}
		if err := w.Flush(); err != nil {
			return false
		}
		r := NewReader(&buf)
		for i := range widths {
			got, err := r.ReadBits(widths[i])
			if err != nil || got != vals[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
