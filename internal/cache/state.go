package cache

import "fmt"

// State kinds, the Kind discriminator of a serialized cache model.
const (
	StateKindCache     = "cache"     // set-associative Cache: tag arrays + counters
	StateKindPerfect   = "perfect"   // Perfect memory: counters only
	StateKindHierarchy = "hierarchy" // two-level Hierarchy: L1 + lower level
)

// State is the self-describing serialized form of a built-in cache model's
// mutable state: tag arrays, LRU clocks and counters, plus enough geometry
// to reject a checkpoint taken under a different configuration. Capture it
// with CaptureState and reinstall it with RestoreState; the round trip is
// lossless, so a restored model produces bit-identical hit/miss sequences.
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

	// Hierarchy fields: the L1's state plus the lower level's.
	L1    *State `json:"l1,omitempty"`
	Lower *State `json:"lower,omitempty"`
}

// CaptureState serializes the mutable state of a built-in model (Cache,
// Perfect or Hierarchy; nil maps to nil). Custom Model implementations have
// no generic serialization and make the capture fail — the caller decides
// whether checkpointing without them is acceptable.
func CaptureState(m Model) (*State, error) {
	switch c := m.(type) {
	case nil:
		return nil, nil
	case *Cache:
		return &State{
			Kind: StateKindCache, St: c.st,
			Name: c.cfg.Name, Geometry: c.cfg,
			Tags: cpSlice(c.tags), Valid: cpSlice(c.valid), LastUsed: cpSlice(c.lastUsed),
			Tick: c.tick,
		}, nil
	case *Perfect:
		return &State{Kind: StateKindPerfect, St: c.st, Latency: c.Latency}, nil
	case *Hierarchy:
		l1, err := CaptureState(c.l1)
		if err != nil {
			return nil, err
		}
		lower, err := CaptureState(c.lower)
		if err != nil {
			return nil, err
		}
		return &State{Kind: StateKindHierarchy, L1: l1, Lower: lower}, nil
	default:
		return nil, fmt.Errorf("cache: model %T has no serializable state (checkpointing needs the built-in models)", m)
	}
}

// RestoreState reinstalls state captured by CaptureState into a model of the
// same kind and geometry. Mismatches (different model kind, different
// geometry) are errors; a leaf model is left unchanged on error, and a
// failed hierarchy restore leaves the model unusable for resumption (the
// caller discards the engine either way).
func RestoreState(m Model, s *State) error {
	if s == nil {
		if m == nil {
			return nil
		}
		return fmt.Errorf("cache: no state for model %T", m)
	}
	switch c := m.(type) {
	case *Cache:
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
	case *Perfect:
		if s.Kind != StateKindPerfect {
			return fmt.Errorf("cache: state kind %q cannot restore into perfect memory", s.Kind)
		}
		if s.Latency != c.Latency {
			return fmt.Errorf("cache: state latency %d, perfect memory has %d", s.Latency, c.Latency)
		}
		c.st = s.St
		return nil
	case *Hierarchy:
		if s.Kind != StateKindHierarchy {
			return fmt.Errorf("cache: state kind %q cannot restore into a hierarchy", s.Kind)
		}
		if err := RestoreState(c.l1, s.L1); err != nil {
			return err
		}
		return RestoreState(c.lower, s.Lower)
	default:
		return fmt.Errorf("cache: model %T has no serializable state", m)
	}
}

// cpSlice returns a copy of s.
func cpSlice[T any](s []T) []T {
	out := make([]T, len(s))
	copy(out, s)
	return out
}
