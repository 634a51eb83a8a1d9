// Package uarch provides the simulated micro-architectural structures ReSim
// models (paper Figure 1): the age-ordered ring with squash that holds the
// engine's instruction window (its oldest entries the reorder buffer, the
// rest the instruction fetch queue) and its load/store queue, the rename
// table, the functional-unit pool (4×ALU, 1×MUL, 1×DIV in the evaluated
// configuration) and memory-port accounting.
package uarch

import "fmt"

// Ring is a bounded FIFO with age-indexed access and clearing. The engine
// keeps two: the instruction window, whose oldest entries are the reorder
// buffer and the rest the IFQ, and the LSQ. Index 0 is the oldest entry.
//
// Beyond relative age indexing, every entry also has a stable absolute
// index: the ring counts entries ever removed from the front in base, so an
// entry at age offset i lives at absolute index Base()+i for its whole
// residence, unmoved by DropFront. Absolute indices are the O(1)
// handles the engine stores across structures (a reorder-buffer entry
// holding its LSQ slot, consumer lists naming dependent entries) instead of
// re-searching by sequence number.
type Ring[T any] struct {
	buf   []T
	head  int // index of oldest
	count int
	base  int64 // absolute index of the oldest entry (entries ever popped)
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

// Base returns the absolute index of the oldest entry — the number of
// entries ever removed from the front. It is monotonic across PushSlot,
// DropFront and Clear, and resets to zero only on SetContents
// (whose callers rebuild any stored absolute handles).
func (r *Ring[T]) Base() int64 { return r.base }

// slot maps a logical age offset onto the backing array. head+i never
// reaches twice the capacity, so a conditional subtract replaces the
// hardware-division modulo on the engine's hottest accessor.
func (r *Ring[T]) slot(i int) int {
	s := r.head + i
	if s >= len(r.buf) {
		s -= len(r.buf)
	}
	return s
}

// PushSlot appends a new youngest entry and returns a pointer for the
// caller to initialize in place, the copy-free push for the engine's
// fetch/dispatch path. The slot may hold stale bytes from a previous
// resident (DropFront does not clear), so the caller must assign a complete
// value. It panics when full; callers gate on Full.
func (r *Ring[T]) PushSlot() *T {
	if r.Full() {
		panic("uarch: PushSlot on full ring")
	}
	s := r.slot(r.count)
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
	r.base++
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
	return &r.buf[r.slot(i)]
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
		out[i] = r.buf[r.slot(i)]
	}
	return out
}

// SetContents replaces the ring's entries with vs in age order (vs[0]
// becomes the oldest), the inverse of Snapshot. It reports an error when vs
// exceeds the capacity; the ring is left cleared in that case. The absolute
// index base restarts at zero: callers restoring serialized state rebuild
// any absolute handles afterwards (checkpoints never carry them).
func (r *Ring[T]) SetContents(vs []T) error {
	r.Clear()
	r.head = 0
	r.base = 0
	if len(vs) > len(r.buf) {
		return fmt.Errorf("uarch: %d entries exceed ring capacity %d", len(vs), len(r.buf))
	}
	copy(r.buf, vs)
	r.count = len(vs)
	return nil
}

// Clear empties the ring (squash on mis-speculation recovery), zeroing the
// discarded entries so they hold nothing live. The absolute indices of the
// discarded entries are reassigned to future pushes. Recovery is rare, and
// Clear stays out of line: inlined into the engine's recovery, its loop
// slowed engine replay by 3% on a 2-vCPU x86-64 host.
//
//go:noinline
func (r *Ring[T]) Clear() {
	var zero T
	for j := 0; j < r.count; j++ {
		r.buf[r.slot(j)] = zero
	}
	r.count = 0
}
