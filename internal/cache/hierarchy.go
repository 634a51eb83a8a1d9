package cache

// Hierarchy chains an L1 in front of an L2 (private, or one shared by a
// multicore cluster's cores). This extends the paper's single-level memory
// system toward its multi-core future work: private L1s backed by a shared
// L2 give real inter-core cache interference. An access that misses in the
// L1 pays the L1 lookup plus the L2's access latency; fills are
// write-allocate at both levels. Build one with Side.Build.
type Hierarchy struct {
	l1    *Cache
	lower *Cache
}

// Access implements Model: L1 hit latency on a hit, L1 lookup + L2 latency
// on a miss.
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

// Reset implements Model. The L2 is reset too; when it is shared, reset the
// cluster through one hierarchy only.
func (h *Hierarchy) Reset() {
	h.l1.Reset()
	h.lower.Reset()
}
