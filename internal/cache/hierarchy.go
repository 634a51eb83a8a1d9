package cache

// Hierarchy chains an L1 in front of a lower level (an L2 cache, a shared
// L2, or perfect memory). This extends the paper's single-level memory
// system toward its multi-core future work: private L1s backed by a shared
// L2 give real inter-core cache interference. An access that misses in the
// L1 pays the L1 lookup plus the lower level's access latency; fills are
// write-allocate at both levels.
type Hierarchy struct {
	l1    *Cache
	lower Model
}

// NewHierarchy builds a two-level hierarchy. l1cfg.MissLatency is unused
// (the lower level's latency governs misses); lower may be shared between
// several hierarchies.
func NewHierarchy(l1cfg Config, lower Model) (*Hierarchy, error) {
	if err := l1cfg.Validate(); err != nil {
		return nil, err
	}
	return &Hierarchy{l1: New(l1cfg), lower: lower}, nil
}

// Access implements Model: L1 hit latency on a hit, L1 lookup + lower-level
// latency on a miss.
func (h *Hierarchy) Access(addr uint32, write bool) (bool, int) {
	if hit, lat := h.l1.Access(addr, write); hit {
		return true, lat
	}
	_, lowerLat := h.lower.Access(addr, write)
	return false, h.l1.cfg.HitLatency + lowerLat
}

// Stats implements Model with the L1's counters (what the engine reports as
// its level-1 statistics).
func (h *Hierarchy) Stats() Stats { return h.l1.Stats() }

// LowerStats returns the lower level's counters. For a shared lower level
// these aggregate all cores.
func (h *Hierarchy) LowerStats() Stats { return h.lower.Stats() }

// Reset implements Model. The lower level is reset too; when it is shared,
// reset the cluster through one hierarchy only.
func (h *Hierarchy) Reset() {
	h.l1.Reset()
	h.lower.Reset()
}

// L1 exposes the upper level (for geometry queries).
func (h *Hierarchy) L1() *Cache { return h.l1 }

// CloneCold returns a fully private cold copy: fresh L1 and a cold clone
// of the lower level. Cloning is for isolating independent parallel
// simulations (sweep points), where sharing the lower level would race and
// cross-pollute supposedly independent design points; deliberate sharing
// (the multicore shared-L2 interference channel) never goes through
// CloneCold — the cluster hands each core the same Model instance
// directly. A custom lower level without CloneCold support stays shared.
func (h *Hierarchy) CloneCold() Model { return CloneColdAll(h)[0] }
