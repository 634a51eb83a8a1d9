package cache

import (
	"errors"
	"fmt"
)

// State kinds, the Kind discriminator of a serialized memory.
const (
	StateKindCache     = "cache"     // an L1 alone: tag arrays + counters
	StateKindPerfect   = "perfect"   // perfect memory: counters only
	StateKindHierarchy = "hierarchy" // an L1 in front of an L2
)

// State is the self-describing serialized form of a Memory's mutable state:
// tag arrays, LRU clocks and counters, plus enough geometry to reject a
// checkpoint taken under a different configuration. Capture it with
// Memory.State and reinstall it with Memory.SetState; the round trip is
// lossless, so a restored memory produces bit-identical hit/miss sequences.
type State struct {
	Kind string `json:"kind"`
	St   Stats  `json:"stats"`

	// Set-associative (StateKindCache) fields. The geometry (and for
	// StateKindPerfect the Latency) guards the restore: a checkpoint taken
	// under a differently parameterized memory system fails loudly instead
	// of resuming a subtly different machine.
	Name     string   `json:"name,omitempty"`
	Geometry Config   `json:"geometry,omitempty"`
	Latency  int      `json:"latency,omitempty"`
	Tags     []uint32 `json:"tags,omitempty"`
	Valid    []bool   `json:"valid,omitempty"`
	LastUsed []uint64 `json:"last_used,omitempty"`
	Tick     uint64   `json:"tick,omitempty"`

	// Hierarchy fields: the L1's state plus the L2's.
	L1    *State `json:"l1,omitempty"`
	Lower *State `json:"lower,omitempty"`
}

// State serializes the memory's mutable state.
func (m *Memory) State() *State {
	switch {
	case m.l1 == nil:
		return &State{Kind: StateKindPerfect, St: m.st, Latency: m.latency}
	case m.l2 == nil:
		return m.l1.state()
	}
	return &State{Kind: StateKindHierarchy, L1: m.l1.state(), Lower: m.l2.state()}
}

// SetState reinstalls state captured by State into a memory of the same
// kind and geometry. Mismatches (a different kind, a different geometry)
// are errors; a failed restore leaves the memory unusable for resumption
// (the caller discards the engine either way).
func (m *Memory) SetState(s *State) error {
	switch {
	case s == nil:
		return errors.New("cache: no state for the memory")
	case m.l1 == nil:
		if s.Kind != StateKindPerfect {
			return fmt.Errorf("cache: state kind %q cannot restore into perfect memory", s.Kind)
		}
		if s.Latency != m.latency {
			return fmt.Errorf("cache: state latency %d, perfect memory has %d", s.Latency, m.latency)
		}
		m.st = s.St
		return nil
	case m.l2 == nil:
		return m.l1.setState(s)
	}
	if s.Kind != StateKindHierarchy {
		return fmt.Errorf("cache: state kind %q cannot restore into a hierarchy", s.Kind)
	}
	if err := m.l1.setState(s.L1); err != nil {
		return err
	}
	return m.l2.setState(s.Lower)
}

// state serializes the cache's tag arrays and counters.
func (c *Cache) state() *State {
	return &State{
		Kind: StateKindCache, St: c.st,
		Name: c.cfg.Name, Geometry: c.cfg,
		Tags: cpSlice(c.tags), Valid: cpSlice(c.valid), LastUsed: cpSlice(c.lastUsed),
		Tick: c.tick,
	}
}

// setState reinstalls state captured by state; the cache is left unchanged
// on error.
func (c *Cache) setState(s *State) error {
	if s == nil {
		return fmt.Errorf("cache %s: no state", c.cfg.Name)
	}
	if s.Kind != StateKindCache {
		return fmt.Errorf("cache: state kind %q cannot restore into a set-associative cache", s.Kind)
	}
	if s.Geometry != c.cfg {
		return fmt.Errorf("cache %s: state geometry %+v, cache is %+v", c.cfg.Name, s.Geometry, c.cfg)
	}
	n := c.cfg.Sets() * c.cfg.Assoc
	if len(s.Tags) != n || len(s.Valid) != n || len(s.LastUsed) != n {
		return fmt.Errorf("cache %s: state arrays %d/%d/%d, want %d entries",
			c.cfg.Name, len(s.Tags), len(s.Valid), len(s.LastUsed), n)
	}
	copy(c.tags, s.Tags)
	copy(c.valid, s.Valid)
	copy(c.lastUsed, s.LastUsed)
	c.tick = s.Tick
	c.st = s.St
	return nil
}

// cpSlice returns a copy of s.
func cpSlice[T any](s []T) []T {
	out := make([]T, len(s))
	copy(out, s)
	return out
}
