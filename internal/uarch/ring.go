// Package uarch provides the simulated micro-architectural structures ReSim
// models (paper Figure 1): the age-ordered ring with squash that holds the
// engine's load/store queue, the rename table, the functional-unit pool
// (4×ALU, 1×MUL, 1×DIV in the evaluated configuration) and memory-port
// accounting. The engine keeps its instruction window itself, as an array
// addressed by sequence number.
package uarch

import "fmt"

// Ring is a bounded FIFO with age-indexed access and clearing: the engine's
// load/store queue. Index 0 is the oldest entry. An entry stays in its
// backing slot for its whole residence, so a pointer to it stays valid
// until it leaves the front.
type Ring[T any] struct {
	buf   []T
	head  int // index of oldest
	count int
}

// NewRing returns a ring with the given capacity.
func NewRing[T any](capacity int) *Ring[T] {
	if capacity <= 0 {
		panic(fmt.Sprintf("uarch: ring capacity %d", capacity))
	}
	return &Ring[T]{buf: make([]T, capacity)}
}

// Len returns the number of entries.
func (r *Ring[T]) Len() int { return r.count }

// Full reports whether the ring is at capacity.
func (r *Ring[T]) Full() bool { return r.count == len(r.buf) }

// Empty reports whether the ring has no entries.
func (r *Ring[T]) Empty() bool { return r.count == 0 }

// index maps a logical age offset onto the backing array. head+i never
// reaches twice the capacity, so a conditional subtract replaces the
// hardware-division modulo.
func (r *Ring[T]) index(i int) int {
	s := r.head + i
	if s >= len(r.buf) {
		s -= len(r.buf)
	}
	return s
}

// PushSlot appends a new youngest entry and returns a pointer for the
// caller to initialize in place, the copy-free push for the engine's
// dispatch path. The slot may hold stale bytes from a previous
// resident (DropFront does not clear), so the caller must assign a complete
// value. It panics when full; callers gate on Full.
func (r *Ring[T]) PushSlot() *T {
	if r.Full() {
		panic("uarch: PushSlot on full ring")
	}
	s := r.index(r.count)
	r.count++
	return &r.buf[s]
}

// DropFront removes the oldest entry without returning or clearing it, the
// copy-free pop for the engine's commit path. The slot's contents are dead
// but uncollected until overwritten. It panics on an empty ring, as that is
// always an engine bug.
func (r *Ring[T]) DropFront() {
	if r.count == 0 {
		panic("uarch: DropFront on empty ring")
	}
	r.head++
	if r.head == len(r.buf) {
		r.head = 0
	}
	r.count--
}

// Front returns a pointer to the oldest entry without the index
// arithmetic of At(0) — the commit path touches it every retirement. It
// panics on an empty ring, as that is always an engine bug.
func (r *Ring[T]) Front() *T {
	if r.count == 0 {
		panic("uarch: Front on empty ring")
	}
	return &r.buf[r.head]
}

// At returns a pointer to the i-th oldest entry (0 = oldest). It panics on
// out-of-range access, as that is always an engine bug.
func (r *Ring[T]) At(i int) *T {
	if i < 0 || i >= r.count {
		panic(fmt.Sprintf("uarch: ring index %d out of %d", i, r.count))
	}
	return &r.buf[r.index(i)]
}

// Views returns the resident entries as at most two backing-array slices in
// age order (first the span from the oldest entry, then the wrapped
// remainder, nil when the content is contiguous) — the allocation-free scan
// the engine's per-cycle LSQ refresh iterates instead of per-element At
// calls. The slices alias the ring; pushes and pops invalidate them.
func (r *Ring[T]) Views() ([]T, []T) {
	if r.head+r.count <= len(r.buf) {
		return r.buf[r.head : r.head+r.count], nil
	}
	n1 := len(r.buf) - r.head
	return r.buf[r.head:], r.buf[:r.count-n1]
}

// Snapshot returns the entries in age order (oldest first) — the ring's
// complete logical content, independent of the internal head position. It is
// the serialization view checkpoints capture.
func (r *Ring[T]) Snapshot() []T {
	out := make([]T, r.count)
	for i := 0; i < r.count; i++ {
		out[i] = r.buf[r.index(i)]
	}
	return out
}

// SetContents replaces the ring's entries with vs in age order (vs[0]
// becomes the oldest), the inverse of Snapshot. It reports an error when vs
// exceeds the capacity; the ring is left cleared in that case.
func (r *Ring[T]) SetContents(vs []T) error {
	r.Clear()
	r.head = 0
	if len(vs) > len(r.buf) {
		return fmt.Errorf("uarch: %d entries exceed ring capacity %d", len(vs), len(r.buf))
	}
	copy(r.buf, vs)
	r.count = len(vs)
	return nil
}

// Clear empties the ring (squash on mis-speculation recovery). Like
// DropFront it leaves the discarded entries' bytes in place until pushes
// overwrite them; the LSQ's entries hold no pointers, so nothing stays
// live.
func (r *Ring[T]) Clear() { r.count = 0 }
