// Package cache provides the timing-only cache models ReSim uses. ReSim
// does not store data: "we need to provide only the hit/miss indication and
// simulate the access latency" (paper §V, Table 4 discussion), so a cache
// here is tag state plus latency parameters. The paper evaluates two memory
// systems: a perfect memory system and 32 KByte L1 instruction/data caches
// with associativity 8 and 64-byte blocks (Table 1 caption).
package cache

import (
	"errors"
	"fmt"
)

// Config describes one cache level.
type Config struct {
	Name        string
	SizeBytes   int
	Assoc       int
	BlockBytes  int
	HitLatency  int // cycles for a hit (1 in the evaluated configs)
	MissLatency int // total cycles for a miss (fill from the next level)
}

// Paper configuration helpers.

// L1Config32K returns the 32 KB, 8-way, 64-byte-block configuration used for
// the FAST comparison (Table 1, right portion). The paper does not state the
// miss latency; 20 cycles is an assumed flat penalty standing in for the
// unmodeled next level, so the right portion reproduces in shape rather
// than in absolute miss cost.
func L1Config32K(name string) Config {
	return Config{Name: name, SizeBytes: 32 << 10, Assoc: 8, BlockBytes: 64,
		HitLatency: 1, MissLatency: 20}
}

// maxBlocks bounds a cache's tag state (64 MiB of 64-byte blocks), so a
// mistyped geometry fails validation instead of allocating gigabytes.
const maxBlocks = 1 << 20

// Validate reports geometry errors.
func (c Config) Validate() error {
	pow2 := func(field string, v int) error {
		if v <= 0 || v&(v-1) != 0 {
			return fmt.Errorf("cache %s: %s must be a positive power of two, got %d", c.Name, field, v)
		}
		return nil
	}
	if err := pow2("BlockBytes", c.BlockBytes); err != nil {
		return err
	}
	if c.Assoc <= 0 {
		return fmt.Errorf("cache %s: Assoc must be positive", c.Name)
	}
	// Divide step by step: BlockBytes*Assoc can overflow.
	if c.SizeBytes <= 0 || c.SizeBytes%c.BlockBytes != 0 || (c.SizeBytes/c.BlockBytes)%c.Assoc != 0 {
		return fmt.Errorf("cache %s: size %d not divisible into %d-way sets of %d-byte blocks",
			c.Name, c.SizeBytes, c.Assoc, c.BlockBytes)
	}
	if blocks := c.SizeBytes / c.BlockBytes; blocks > maxBlocks {
		return fmt.Errorf("cache %s: %d blocks, more than the %d a cache may hold", c.Name, blocks, maxBlocks)
	}
	sets := c.SizeBytes / c.BlockBytes / c.Assoc
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache %s: set count %d not a power of two", c.Name, sets)
	}
	if c.HitLatency < 0 || c.MissLatency < c.HitLatency {
		return fmt.Errorf("cache %s: bad latencies hit=%d miss=%d", c.Name, c.HitLatency, c.MissLatency)
	}
	return nil
}

// Sets returns the number of sets implied by the geometry.
func (c Config) Sets() int { return c.SizeBytes / (c.BlockBytes * c.Assoc) }

// Stats are the per-cache event counters ReSim reports ("cache hits etc",
// paper §V.B).
type Stats struct {
	Reads, ReadHits   uint64
	Writes, WriteHits uint64
}

// count records one access.
func (s *Stats) count(write, hit bool) {
	if write {
		s.Writes++
		if hit {
			s.WriteHits++
		}
	} else {
		s.Reads++
		if hit {
			s.ReadHits++
		}
	}
}

// Accesses returns total accesses.
func (s Stats) Accesses() uint64 { return s.Reads + s.Writes }

// Hits returns total hits.
func (s Stats) Hits() uint64 { return s.ReadHits + s.WriteHits }

// Misses returns total misses.
func (s Stats) Misses() uint64 { return s.Accesses() - s.Hits() }

// Add returns the field-wise sum s + d.
func (s Stats) Add(d Stats) Stats {
	return Stats{s.Reads + d.Reads, s.ReadHits + d.ReadHits, s.Writes + d.Writes, s.WriteHits + d.WriteHits}
}

// Sub returns the field-wise difference s − prev.
func (s Stats) Sub(prev Stats) Stats {
	return Stats{s.Reads - prev.Reads, s.ReadHits - prev.ReadHits, s.Writes - prev.Writes, s.WriteHits - prev.WriteHits}
}

// MissRate returns misses per access.
func (s Stats) MissRate() float64 {
	if s.Accesses() == 0 {
		return 0
	}
	return float64(s.Misses()) / float64(s.Accesses())
}

// Side is one side (instruction or data) of a memory system as a value:
// the geometry the engine builds its own memory from. Sides compare with
// ==, so a configuration holding them does too.
type Side struct {
	// L1 is the level-1 cache; the zero Config selects perfect memory.
	L1 Config
	// L2, when set, backs L1: an L1 miss pays L1.HitLatency plus the L2's
	// access latency. The zero Config means an L1 miss pays
	// L1.MissLatency.
	L2 Config
	// Latency is the perfect-memory access latency, used only when L1 is
	// zero; 0 means 1 cycle.
	Latency int
}

// Perfect reports whether s is perfect memory.
func (s Side) Perfect() bool { return s.L1 == Config{} }

// Validate reports errors in the side's geometry.
func (s Side) Validate() error {
	if s.Perfect() {
		if s.L2 != (Config{}) {
			return errors.New("cache: an L2 needs an L1 in front of it")
		}
		if s.Latency < 0 {
			return fmt.Errorf("cache: perfect-memory latency %d", s.Latency)
		}
		return nil
	}
	if s.Latency != 0 {
		return fmt.Errorf("cache %s: Latency applies to perfect memory only", s.L1.Name)
	}
	if err := s.L1.Validate(); err != nil {
		return err
	}
	if s.L2 != (Config{}) {
		return s.L2.Validate()
	}
	return nil
}

// Build returns a cold memory for s, which must be valid: perfect memory,
// an L1, or an L1 in front of an L2. l2, when non-nil, is the L2 instance
// to use instead of a private one built from s.L2 (a multicore cluster's
// shared L2).
func (s Side) Build(l2 *Cache) *Memory {
	switch {
	case s.Perfect():
		return &Memory{latency: max(s.Latency, 1)}
	case s.L2 == Config{}:
		return &Memory{l1: New(s.L1)}
	}
	m := &Memory{l1: New(s.L1), l2: l2, privateL2: l2 == nil}
	if m.privateL2 {
		m.l2 = New(s.L2)
	}
	return m
}

// Memory is one side of the memory system as the engine sees it: an access
// returns the hit/miss indication and the access latency in simulated
// cycles. Without an L1 it is perfect memory (Table 1, left portion): every
// access hits at a fixed latency. Otherwise an access looks up the L1, and
// an L1 miss with an L2 behind it pays the L1 lookup plus the L2's access
// latency; fills are write-allocate at both levels. The L2 may be shared
// by a multicore cluster's cores, which then interfere in its tags.
type Memory struct {
	l1, l2    *Cache // l1 nil: perfect memory; l2 nil: an L1 miss pays L1.MissLatency
	privateL2 bool   //resim:ckpt-exempt Build sets it: l2 is this memory's own, not a cluster's shared one
	latency   int    // perfect-memory access latency
	st        Stats  // perfect memory's counters (a cache keeps its own)
}

// Access performs a timing access at addr; write selects the port type.
func (m *Memory) Access(addr uint32, write bool) (hit bool, latency int) {
	if m.l1 == nil {
		m.st.count(write, true)
		return true, m.latency
	}
	if hit, lat := m.l1.Access(addr, write); hit || m.l2 == nil {
		return hit, lat
	}
	_, lat := m.l2.Access(addr, write)
	return false, m.l1.cfg.HitLatency + lat
}

// Stats returns the level-1 counters (the L1's, or perfect memory's) and a
// private L2's. A shared L2 yields zero l2: its counters mix every core's
// accesses, so only its cluster reports them.
func (m *Memory) Stats() (l1, l2 Stats) {
	if m.l1 == nil {
		return m.st, Stats{}
	}
	if m.privateL2 {
		l2 = m.l2.st
	}
	return m.l1.st, l2
}

// Cache is a set-associative, true-LRU, write-allocate timing cache.
type Cache struct {
	cfg      Config
	setShift uint
	setMask  uint32
	tags     []uint32
	valid    []bool
	lastUsed []uint64
	tick     uint64
	st       Stats
}

// New builds a cache from cfg; it panics on invalid geometry (callers taking
// user input should Validate first).
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	sets := cfg.Sets()
	c := &Cache{cfg: cfg}
	c.setMask = uint32(sets - 1)
	for b := cfg.BlockBytes; b > 1; b >>= 1 {
		c.setShift++
	}
	n := sets * cfg.Assoc
	c.tags = make([]uint32, n)
	c.valid = make([]bool, n)
	c.lastUsed = make([]uint64, n)
	return c
}

// Config returns the cache geometry.
func (c *Cache) Config() Config { return c.cfg }

// Access performs a timing access at addr, returning the hit/miss
// indication and the access latency. Misses allocate (write-allocate for
// stores, demand fill for loads) and evict the true-LRU way.
func (c *Cache) Access(addr uint32, write bool) (bool, int) {
	c.tick++
	set := (addr >> c.setShift) & c.setMask
	tag := addr >> c.setShift
	base := int(set) * c.cfg.Assoc

	for w := 0; w < c.cfg.Assoc; w++ {
		if c.valid[base+w] && c.tags[base+w] == tag {
			c.lastUsed[base+w] = c.tick
			c.st.count(write, true)
			return true, c.cfg.HitLatency
		}
	}
	c.st.count(write, false)

	// Miss: fill into an invalid way, else evict LRU.
	victim := -1
	for w := 0; w < c.cfg.Assoc; w++ {
		if !c.valid[base+w] {
			victim = w
			break
		}
	}
	if victim < 0 {
		victim = 0
		oldest := c.lastUsed[base]
		for w := 1; w < c.cfg.Assoc; w++ {
			if c.lastUsed[base+w] < oldest {
				oldest = c.lastUsed[base+w]
				victim = w
			}
		}
	}
	c.tags[base+victim] = tag
	c.valid[base+victim] = true
	c.lastUsed[base+victim] = c.tick
	return false, c.cfg.MissLatency
}

// Stats returns accumulated counters.
func (c *Cache) Stats() Stats { return c.st }
