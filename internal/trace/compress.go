package trace

import (
	"fmt"

	"repro/internal/bitio"
)

// The delta coder behind the compressed container ("RSTC"). Its records
// have the raw layout (record.go) except for the three address fields.
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

// writeVarint emits a zigzagged value as nibble groups. A write error
// sticks in bw, as encodeTo expects.
func writeVarint(bw *bitio.Writer, delta int64) {
	u := zigzag(delta)
	for ; u > 0xF; u >>= 4 {
		bw.WriteBits(u&0xF<<1|1, 5)
	}
	bw.WriteBits(u<<1, 5)
}

// readVarint decodes a nibble varint.
func readVarint(br *bitio.Reader) (int64, error) {
	var u uint64
	for shift := uint(0); shift <= 64; shift += 4 {
		g, err := br.ReadBits(5)
		if err != nil {
			return 0, err
		}
		u |= (g >> 1) << shift
		if g&1 == 0 {
			return unzigzag(u), nil
		}
	}
	return 0, fmt.Errorf("%w: runaway varint", ErrBadRecord)
}

// codecState is the delta coder's predictor state, the same on both ends
// of a compressed container. A nil *codecState is the raw coder.
type codecState struct {
	lastMemAddr  uint32
	lastBranchPC uint32
}

// prev returns the predictions for the next record (zero for the raw
// coder, which ignores them).
func (s *codecState) prev() codecState {
	if s == nil {
		return codecState{}
	}
	return *s
}

// putAddr writes one 32-bit address field: verbatim for the raw coder, as
// the zigzag varint of v-base for the delta coder.
func (s *codecState) putAddr(bw *bitio.Writer, v, base uint32) {
	if s == nil {
		bw.WriteBits(uint64(v), addrBits)
		return
	}
	writeVarint(bw, int64(v)-int64(base))
}

// getAddr reads a field putAddr wrote.
func (s *codecState) getAddr(br *bitio.Reader, base uint32) (uint32, error) {
	if s == nil {
		v, err := br.ReadBits(addrBits)
		return uint32(v), err
	}
	d, err := readVarint(br)
	return uint32(int64(base) + d), err
}

// advance moves the predictions past r.
func (s *codecState) advance(r Record) {
	switch {
	case s == nil:
	case r.Kind == KindMem:
		s.lastMemAddr = r.Addr
	case r.Kind == KindBranch:
		s.lastBranchPC = r.PC
	}
}
