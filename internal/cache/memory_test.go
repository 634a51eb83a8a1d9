package cache

import "testing"

// twoLevel is a side with small()'s L1 in front of a 4 KiB L2.
func twoLevel() Side {
	return Side{L1: small(), L2: Config{Name: "l2", SizeBytes: 4 << 10, Assoc: 4, BlockBytes: 64,
		HitLatency: 6, MissLatency: 40}}
}

func TestHierarchyHitDoesNotTouchLower(t *testing.T) {
	h := twoLevel().Build(nil)
	h.Access(0x100, false) // cold: L1 miss -> L2 access
	if h.l2.Stats().Accesses() != 1 {
		t.Fatalf("L2 accesses = %d, want 1", h.l2.Stats().Accesses())
	}
	hit, lat := h.Access(0x100, false) // L1 hit
	if !hit || lat != 1 {
		t.Errorf("L1 hit = %t/%d", hit, lat)
	}
	if h.l2.Stats().Accesses() != 1 {
		t.Errorf("L1 hit leaked to L2: %d accesses", h.l2.Stats().Accesses())
	}
}

func TestHierarchyMissLatencies(t *testing.T) {
	h := twoLevel().Build(nil)
	// Cold: L1 miss + L2 miss -> 1 + 40.
	if hit, lat := h.Access(0x200, false); hit || lat != 41 {
		t.Errorf("cold access = %t/%d, want miss/41", hit, lat)
	}
	// Evict from L1 (2-way set in 1 KB cache: 8 sets) but keep in L2.
	setStride := uint32(8 * 64)
	h.Access(0x200+setStride, false)
	h.Access(0x200+2*setStride, false)
	// L1 miss, L2 hit -> 1 + 6.
	if hit, lat := h.Access(0x200, false); hit || lat != 7 {
		t.Errorf("L2-hit access = %t/%d, want miss/7", hit, lat)
	}
}

func TestHierarchySharedLower(t *testing.T) {
	side := twoLevel()
	l2 := New(side.L2)
	ha, hb := side.Build(l2), side.Build(l2)
	ha.Access(0x300, false) // fills shared L2
	// Core B misses its private L1 but hits the shared L2 warmed by A.
	if hit, lat := hb.Access(0x300, false); hit || lat != 7 {
		t.Errorf("cross-core access = %t/%d, want miss/7 (shared L2 hit)", hit, lat)
	}
	if l2.Stats().Accesses() != 2 {
		t.Errorf("shared L2 saw %d accesses, want 2", l2.Stats().Accesses())
	}
}

func TestHierarchyStats(t *testing.T) {
	h := twoLevel().Build(nil)
	h.Access(0x40, true)
	if h.Stats().Writes != 1 {
		t.Errorf("L1 stats = %+v", h.Stats())
	}
	if h.l2.Stats().Accesses() != 1 {
		t.Errorf("L2 saw %d accesses after an L1 miss, want 1", h.l2.Stats().Accesses())
	}
}

func TestHierarchyRejectsBadL1(t *testing.T) {
	side := twoLevel()
	side.L1 = Config{Name: "bad", SizeBytes: 7}
	if err := side.Validate(); err == nil {
		t.Error("invalid L1 geometry accepted")
	}
}

// TestSideBuildsEachKind: the zero L1 is perfect memory at Latency (0
// means 1), an L1 alone is one cache, and an L2 puts a second level behind
// it — a private one unless the caller passes a shared one.
func TestSideBuildsEachKind(t *testing.T) {
	if m := (Side{}).Build(nil); m.l1 != nil || m.latency != 1 {
		t.Errorf("zero side built %+v, want 1-cycle perfect memory", m)
	}
	if m := (Side{Latency: 3}).Build(nil); m.l1 != nil || m.latency != 3 {
		t.Errorf("Latency 3 built %+v", m)
	}
	if m := (Side{L1: small()}).Build(nil); m.l1 == nil || m.l1.Config() != small() || m.l2 != nil {
		t.Errorf("L1 side built %+v", m)
	}
	if m := twoLevel().Build(nil); m.l1 == nil || m.l2 == nil || m.l2.Config() != twoLevel().L2 {
		t.Errorf("L1+L2 side built %+v", m)
	}
	shared := New(twoLevel().L2)
	if m := twoLevel().Build(shared); m.l2 != shared {
		t.Error("L1+L2 side ignored the shared L2")
	}
}

func TestSideValidate(t *testing.T) {
	for name, s := range map[string]Side{
		"bad L1":             {L1: Config{Name: "bad", SizeBytes: 7}},
		"bad L2":             {L1: small(), L2: Config{Name: "bad", SizeBytes: 7}},
		"L2 without L1":      {L2: small()},
		"negative latency":   {Latency: -1},
		"latency with an L1": {L1: small(), Latency: 2},
	} {
		if err := s.Validate(); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	for name, s := range map[string]Side{"perfect": {}, "slow perfect": {Latency: 4}, "L1": {L1: small()}, "L1+L2": twoLevel()} {
		if err := s.Validate(); err != nil {
			t.Errorf("%s refused: %v", name, err)
		}
	}
}
