// Package cache provides the timing-only cache models ReSim uses. ReSim
// does not store data: "we need to provide only the hit/miss indication and
// simulate the access latency" (paper §V, Table 4 discussion), so a cache
// here is tag state plus latency parameters. The paper evaluates two memory
// systems: a perfect memory system and 32 KByte L1 instruction/data caches
// with associativity 8 and 64-byte blocks (Table 1 caption).
package cache

import (
	"fmt"
	"reflect"
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

// Accesses returns total accesses.
func (s Stats) Accesses() uint64 { return s.Reads + s.Writes }

// Hits returns total hits.
func (s Stats) Hits() uint64 { return s.ReadHits + s.WriteHits }

// Misses returns total misses.
func (s Stats) Misses() uint64 { return s.Accesses() - s.Hits() }

// MissRate returns misses per access.
func (s Stats) MissRate() float64 {
	if s.Accesses() == 0 {
		return 0
	}
	return float64(s.Misses()) / float64(s.Accesses())
}

// Model is the interface the engine uses: an access returns the hit/miss
// indication and the access latency in simulated cycles.
type Model interface {
	// Access performs a timing access at addr. write selects the port type.
	Access(addr uint32, write bool) (hit bool, latency int)
	// Stats returns accumulated counters.
	Stats() Stats
	// Reset clears tag state and counters.
	Reset()
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

// CloneCold returns a new cache with the same geometry and empty tag state
// and counters.
func (c *Cache) CloneCold() Model { return New(c.cfg) }

// Access implements Model. Misses allocate (write-allocate for stores,
// demand fill for loads) and evict the true-LRU way.
func (c *Cache) Access(addr uint32, write bool) (bool, int) {
	c.tick++
	set := (addr >> c.setShift) & c.setMask
	tag := addr >> c.setShift
	base := int(set) * c.cfg.Assoc

	if write {
		c.st.Writes++
	} else {
		c.st.Reads++
	}

	for w := 0; w < c.cfg.Assoc; w++ {
		if c.valid[base+w] && c.tags[base+w] == tag {
			c.lastUsed[base+w] = c.tick
			if write {
				c.st.WriteHits++
			} else {
				c.st.ReadHits++
			}
			return true, c.cfg.HitLatency
		}
	}

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

// Stats implements Model.
func (c *Cache) Stats() Stats { return c.st }

// Reset implements Model. Tags are cleared too (not just invalidated) so a
// reset cache is bit-identical to a newly built one — the property the
// engine's exhaustive per-run Reset and checkpoint tests pin.
func (c *Cache) Reset() {
	for i := range c.valid {
		c.valid[i] = false
		c.tags[i] = 0
		c.lastUsed[i] = 0
	}
	c.tick = 0
	c.st = Stats{}
}

// Perfect is the perfect memory system: every access hits with a fixed
// latency (Table 1, left portion).
type Perfect struct {
	Latency int
	st      Stats
}

// NewPerfect returns a perfect memory model with the given access latency.
func NewPerfect(latency int) *Perfect { return &Perfect{Latency: latency} }

// Access implements Model; it always hits.
func (p *Perfect) Access(addr uint32, write bool) (bool, int) {
	if write {
		p.st.Writes++
		p.st.WriteHits++
	} else {
		p.st.Reads++
		p.st.ReadHits++
	}
	return true, p.Latency
}

// Stats implements Model.
func (p *Perfect) Stats() Stats { return p.st }

// Reset implements Model.
func (p *Perfect) Reset() { p.st = Stats{} }

// CloneCold returns a fresh perfect model with the same latency and zero
// counters.
func (p *Perfect) CloneCold() Model { return NewPerfect(p.Latency) }

// CloneCold returns a cold private copy of m when the model supports it —
// a fresh instance with the same parameters, empty state and counters — so
// parallel simulations never share mutable tag state. Models that do not
// support cloning (custom implementations) are returned as-is; nil stays
// nil.
func CloneCold(m Model) Model {
	type cloner interface{ CloneCold() Model }
	if c, ok := m.(cloner); ok {
		return c.CloneCold()
	}
	return m
}

// CloneColdAll clones a memory system cold, as CloneCold does model by
// model, but keeps the sharing among ms: a pointer-typed model reached
// more than once — one cache in both the I and D fields, or one lower
// level under two hierarchies — maps to a single clone.
func CloneColdAll(ms ...Model) []Model {
	clones := map[Model]Model{}
	out := make([]Model, len(ms))
	for i, m := range ms {
		out[i] = cloneShared(m, clones)
	}
	return out
}

func cloneShared(m Model, clones map[Model]Model) Model {
	// Only pointer-typed models are safe map keys; value-typed custom
	// models cannot be shared anyway.
	if m == nil || reflect.TypeOf(m).Kind() != reflect.Pointer {
		return CloneCold(m)
	}
	if c, ok := clones[m]; ok {
		return c
	}
	var c Model
	if h, ok := m.(*Hierarchy); ok {
		c = &Hierarchy{l1: New(h.l1.cfg), lower: cloneShared(h.lower, clones)}
	} else {
		c = CloneCold(m)
	}
	clones[m] = c
	return c
}
