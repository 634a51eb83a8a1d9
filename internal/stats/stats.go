// Package stats provides the 64-bit statistics counters ReSim maintains
// during simulation, mirroring the sim-outorder style of named counters,
// derived rates and occupancy distributions (paper §V.B: "To avoid overflow
// problems we use 64-bits registers for statistics").
package stats

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// Counter is a named 64-bit event counter.
type Counter struct {
	Name string
	Desc string
	v    uint64
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { c.v += n }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v++ }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v }

// Set overwrites the counter value; used when restoring checkpoints.
func (c *Counter) Set(n uint64) { c.v = n }

// Occupancy accumulates a per-cycle occupancy sample for a buffering
// structure (IFQ, RB, LSQ) so that average occupancy and a coarse
// distribution can be reported.
type Occupancy struct {
	Name    string
	Desc    string
	Cap     int
	samples uint64
	sum     uint64
	full    uint64 // samples at capacity
	empty   uint64 // samples at zero
}

// Sample records one cycle's occupancy n.
func (o *Occupancy) Sample(n int) {
	o.samples++
	o.sum += uint64(n)
	if n == 0 {
		o.empty++
	}
	if o.Cap > 0 && n >= o.Cap {
		o.full++
	}
}

// SampleN records count consecutive cycles of constant occupancy v in one
// accumulator update — the bulk form the engine's idle-cycle fast-forward
// uses. SampleN(v, n) leaves the accumulator byte-identical to n calls of
// Sample(v).
func (o *Occupancy) SampleN(v int, count uint64) {
	o.samples += count
	o.sum += uint64(v) * count
	if v == 0 {
		o.empty += count
	}
	if o.Cap > 0 && v >= o.Cap {
		o.full += count
	}
}

// Mean returns the average occupancy over all samples.
func (o *Occupancy) Mean() float64 {
	if o.samples == 0 {
		return 0
	}
	return float64(o.sum) / float64(o.samples)
}

// FullFrac returns the fraction of sampled cycles the structure was full.
func (o *Occupancy) FullFrac() float64 {
	if o.samples == 0 {
		return 0
	}
	return float64(o.full) / float64(o.samples)
}

// Sub returns the accumulator delta o − prev, keeping o's identity fields
// (Name, Desc, Cap). With prev a snapshot of the same accumulator taken
// earlier in the run, the difference describes exactly the cycles sampled
// in between — the per-interval window form engine telemetry streams.
func (o Occupancy) Sub(prev Occupancy) Occupancy {
	o.samples -= prev.samples
	o.sum -= prev.sum
	o.full -= prev.full
	o.empty -= prev.empty
	return o
}

// Add returns the accumulator sum o + d; the identity fields are taken from
// o unless o is the zero Occupancy, in which case d's are adopted. Summing a
// run's interval windows in order with Add reconstructs the run's final
// accumulator exactly (the inverse of Sub).
func (o Occupancy) Add(d Occupancy) Occupancy {
	if o.Name == "" && o.Desc == "" && o.Cap == 0 {
		o.Name, o.Desc, o.Cap = d.Name, d.Desc, d.Cap
	}
	o.samples += d.samples
	o.sum += d.sum
	o.full += d.full
	o.empty += d.empty
	return o
}

// occupancyJSON is the wire form of an Occupancy: the accumulator state is
// unexported to keep Sample the only mutation path in-process, but a
// distributed sweep has to ship completed occupancy statistics between
// hosts, so the JSON codec exposes it losslessly.
type occupancyJSON struct {
	Name    string `json:"name,omitempty"`
	Desc    string `json:"desc,omitempty"`
	Cap     int    `json:"cap,omitempty"`
	Samples uint64 `json:"samples,omitempty"`
	Sum     uint64 `json:"sum,omitempty"`
	Full    uint64 `json:"full,omitempty"`
	Empty   uint64 `json:"empty,omitempty"`
}

// MarshalJSON encodes the complete accumulator state, so a decoded
// Occupancy holds the same accumulator, so it reports the same Mean and
// FullFrac as the original.
func (o Occupancy) MarshalJSON() ([]byte, error) {
	return json.Marshal(occupancyJSON{
		Name: o.Name, Desc: o.Desc, Cap: o.Cap,
		Samples: o.samples, Sum: o.sum, Full: o.full, Empty: o.empty,
	})
}

// UnmarshalJSON restores an Occupancy encoded by MarshalJSON.
func (o *Occupancy) UnmarshalJSON(b []byte) error {
	var j occupancyJSON
	if err := json.Unmarshal(b, &j); err != nil {
		return err
	}
	*o = Occupancy{Name: j.Name, Desc: j.Desc, Cap: j.Cap,
		samples: j.Samples, sum: j.Sum, full: j.Full, empty: j.Empty}
	return nil
}

// Registry holds an ordered collection of counters and derived formulas and
// can render a sim-outorder-like report.
type Registry struct {
	order    []string
	counters map[string]*Counter
	formulas []formula
}

type formula struct {
	name string
	desc string
	fn   func() float64
}

// NewRegistry returns an empty statistics registry.
func NewRegistry() *Registry {
	return &Registry{counters: make(map[string]*Counter)}
}

// Counter registers (or returns the existing) counter with the given name.
func (r *Registry) Counter(name, desc string) *Counter {
	if c, ok := r.counters[name]; ok {
		return c
	}
	c := &Counter{Name: name, Desc: desc}
	r.counters[name] = c
	r.order = append(r.order, name)
	return c
}

// Formula registers a derived statistic computed at report time.
func (r *Registry) Formula(name, desc string, fn func() float64) {
	r.formulas = append(r.formulas, formula{name, desc, fn})
	r.order = append(r.order, name)
}

// Write renders the registry in a fixed-width, sim-outorder-like format.
func (r *Registry) Write(w io.Writer) error {
	width := 0
	for _, n := range r.order {
		if len(n) > width {
			width = len(n)
		}
	}
	for _, name := range r.order {
		var err error
		if c := r.counters[name]; c != nil {
			_, err = fmt.Fprintf(w, "%-*s %16d # %s\n", width, c.Name, c.v, c.Desc)
		} else {
			for _, f := range r.formulas {
				if f.name == name {
					_, err = fmt.Fprintf(w, "%-*s %16.4f # %s\n", width, f.name, f.fn(), f.desc)
					break
				}
			}
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// String renders the registry report as a string.
func (r *Registry) String() string {
	var sb strings.Builder
	_ = r.Write(&sb)
	return sb.String()
}

// Ratio is a convenience for x/y guarding against division by zero.
func Ratio(x, y uint64) float64 {
	if y == 0 {
		return 0
	}
	return float64(x) / float64(y)
}
