package uarch

import (
	"fmt"

	"repro/internal/isa"
)

// NoProducer marks a register whose value is architecturally ready.
const NoProducer int64 = -1

// RenameTable maps each architectural register to the sequence number of its
// youngest in-flight producer (paper §III: "Dispatch ... accesses the Rename
// Table"). Sequence numbers are the engine's global instruction ages.
type RenameTable struct {
	prod [isa.NumRegs]int64
}

// NewRenameTable returns a table with all registers ready.
func NewRenameTable() *RenameTable {
	t := &RenameTable{}
	t.Reset()
	return t
}

// Reset marks every register architecturally ready.
func (t *RenameTable) Reset() {
	for i := range t.prod {
		t.prod[i] = NoProducer
	}
}

// Producer returns the sequence number of the youngest in-flight producer of
// r, or NoProducer. r0 and absent operands are always ready.
func (t *RenameTable) Producer(r isa.Reg) int64 {
	if r == isa.RegZero || r >= isa.NumRegs {
		return NoProducer
	}
	return t.prod[r]
}

// SetProducer records seq as the youngest producer of r.
func (t *RenameTable) SetProducer(r isa.Reg, seq int64) {
	if r == isa.RegZero || r >= isa.NumRegs {
		return
	}
	t.prod[r] = seq
}

// ClearIfProducer marks r ready if seq is still its youngest producer
// (called when the producing instruction writes back or commits).
func (t *RenameTable) ClearIfProducer(r isa.Reg, seq int64) {
	if r == isa.RegZero || r >= isa.NumRegs {
		return
	}
	if t.prod[r] == seq {
		t.prod[r] = NoProducer
	}
}

// Producers returns the full producer map in register order — the
// serialization view checkpoints capture.
func (t *RenameTable) Producers() []int64 {
	out := make([]int64, len(t.prod))
	copy(out, t.prod[:])
	return out
}

// SetProducers restores a producer map captured by Producers. A short slice
// leaves the remaining registers ready; a long one is an error.
func (t *RenameTable) SetProducers(prod []int64) error {
	if len(prod) > len(t.prod) {
		return fmt.Errorf("uarch: %d producers exceed %d registers", len(prod), len(t.prod))
	}
	t.Reset()
	copy(t.prod[:], prod)
	return nil
}
