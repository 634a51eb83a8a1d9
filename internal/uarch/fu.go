package uarch

import "fmt"

// FUClass selects a functional-unit pool.
type FUClass uint8

// Functional unit classes. Branches and store address generation use the
// ALU pool, as in sim-outorder; loads occupy a memory read port instead of
// a functional unit once their address is known.
const (
	FUALU FUClass = iota
	FUMult
	FUDiv

	numFUClasses
)

// String names the class.
func (c FUClass) String() string {
	switch c {
	case FUALU:
		return "alu"
	case FUMult:
		return "mult"
	case FUDiv:
		return "div"
	}
	return fmt.Sprintf("FUClass(%d)", uint8(c))
}

// FUSpec describes one pool of identical units.
type FUSpec struct {
	Count     int
	Latency   int
	Pipelined bool // pipelined units accept one operation per cycle
}

// FUConfig is the per-class pool specification.
type FUConfig [numFUClasses]FUSpec

// DefaultFUConfig returns the paper's evaluated mix: "four ALUs, one
// Multiplier and one Divider with one, three and ten cycle latency
// respectively" (§V.C). The divider is modeled unpipelined, the ALUs and
// multiplier pipelined, matching sim-outorder's resource definitions.
func DefaultFUConfig() FUConfig {
	var c FUConfig
	c[FUALU] = FUSpec{Count: 4, Latency: 1, Pipelined: true}
	c[FUMult] = FUSpec{Count: 1, Latency: 3, Pipelined: true}
	c[FUDiv] = FUSpec{Count: 1, Latency: 10, Pipelined: false}
	return c
}

// Validate reports configuration errors.
func (c FUConfig) Validate() error {
	for cls := FUClass(0); cls < numFUClasses; cls++ {
		s := c[cls]
		if s.Count < 0 || s.Latency < 1 {
			return fmt.Errorf("uarch: %v pool count=%d latency=%d invalid", cls, s.Count, s.Latency)
		}
	}
	return nil
}

// FUPool tracks per-unit availability.
type FUPool struct {
	cfg  FUConfig
	busy [numFUClasses][]int64 // per unit: first cycle it can accept again
}

// NewFUPool builds a pool from cfg; it panics on invalid configuration.
func NewFUPool(cfg FUConfig) *FUPool {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	p := &FUPool{cfg: cfg}
	for cls := range p.busy {
		p.busy[cls] = make([]int64, cfg[cls].Count)
	}
	return p
}

// Config returns the pool configuration.
func (p *FUPool) Config() FUConfig { return p.cfg }

// TryIssue allocates a unit of class cls at cycle now. On success it returns
// the operation latency. Pipelined units accept one operation per cycle;
// unpipelined units are busy for the full latency.
func (p *FUPool) TryIssue(cls FUClass, now int64) (latency int, ok bool) {
	spec := p.cfg[cls]
	units := p.busy[cls]
	for i := range units {
		if units[i] <= now {
			if spec.Pipelined {
				units[i] = now + 1
			} else {
				units[i] = now + int64(spec.Latency)
			}
			return spec.Latency, true
		}
	}
	return 0, false
}

// BusyUntil returns, per class, each unit's first cycle of renewed
// availability — the serialization view checkpoints capture.
func (p *FUPool) BusyUntil() [][]int64 {
	out := make([][]int64, len(p.busy))
	for cls := range p.busy {
		out[cls] = make([]int64, len(p.busy[cls]))
		copy(out[cls], p.busy[cls])
	}
	return out
}

// SetBusyUntil restores per-unit availability captured by BusyUntil. The
// shape must match the pool's configuration exactly.
func (p *FUPool) SetBusyUntil(busy [][]int64) error {
	if len(busy) != len(p.busy) {
		return fmt.Errorf("uarch: %d FU classes, pool has %d", len(busy), len(p.busy))
	}
	for cls := range p.busy {
		if len(busy[cls]) != len(p.busy[cls]) {
			return fmt.Errorf("uarch: %d %v units, pool has %d", len(busy[cls]), FUClass(cls), len(p.busy[cls]))
		}
	}
	for cls := range p.busy {
		copy(p.busy[cls], busy[cls])
	}
	return nil
}

// MemPorts tracks per-major-cycle memory port usage. "Loads ... a read port
// is allocated if their value has not been forwarded in the LSQ" and
// "Commit commits the oldest RB entry releasing Store Operations to memory,
// if a memory write port is available" (paper §III).
type MemPorts struct {
	ReadPorts  int
	WritePorts int
	readsUsed  int
	writesUsed int
}

// NewMemPorts returns a port tracker.
func NewMemPorts(read, write int) *MemPorts {
	return &MemPorts{ReadPorts: read, WritePorts: write}
}

// NewCycle resets per-cycle usage; call at each major-cycle boundary.
func (m *MemPorts) NewCycle() { m.readsUsed, m.writesUsed = 0, 0 }

// TryRead allocates a read port for this cycle.
func (m *MemPorts) TryRead() bool {
	if m.readsUsed >= m.ReadPorts {
		return false
	}
	m.readsUsed++
	return true
}

// TryWrite allocates a write port for this cycle.
func (m *MemPorts) TryWrite() bool {
	if m.writesUsed >= m.WritePorts {
		return false
	}
	m.writesUsed++
	return true
}
