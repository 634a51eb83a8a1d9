package stats

import (
	"encoding/json"
	"strings"
	"testing"
)

func TestCounterBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("sim_num_insn", "total instructions committed")
	c.Inc()
	c.Add(9)
	if c.Value() != 10 {
		t.Errorf("value = %d, want 10", c.Value())
	}
	// Re-registering returns the same counter.
	if r.Counter("sim_num_insn", "x") != c {
		t.Error("duplicate registration created a new counter")
	}
}

func TestOccupancyStats(t *testing.T) {
	o := &Occupancy{Name: "ifq", Cap: 4}
	for _, n := range []int{0, 2, 4, 4, 2} {
		o.Sample(n)
	}
	if got := o.Mean(); got != 2.4 {
		t.Errorf("mean = %v, want 2.4", got)
	}
	if got := o.FullFrac(); got != 0.4 {
		t.Errorf("full = %v, want 0.4", got)
	}
	if o.empty != 1 || o.samples != 5 {
		t.Errorf("empty = %d of %d samples, want 1 of 5", o.empty, o.samples)
	}
}

func TestOccupancyEmpty(t *testing.T) {
	o := &Occupancy{Name: "x", Cap: 8}
	if o.Mean() != 0 || o.FullFrac() != 0 {
		t.Error("zero-sample occupancy should report zeros")
	}
}

func TestReportFormat(t *testing.T) {
	r := NewRegistry()
	insn := r.Counter("sim_num_insn", "instructions")
	insn.Add(1234)
	r.Formula("sim_IPC", "instructions per cycle", func() float64 {
		return float64(insn.Value()) / 1000
	})
	out := r.String()
	for _, want := range []string{"sim_num_insn", "1234", "sim_IPC", "1.2340"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
	// Registration order is preserved.
	if i, j := strings.Index(out, "sim_num_insn"), strings.Index(out, "sim_IPC"); i > j {
		t.Error("report out of registration order")
	}
}

func TestRatio(t *testing.T) {
	if Ratio(1, 0) != 0 {
		t.Error("Ratio with zero denominator should be 0")
	}
	if Ratio(3, 4) != 0.75 {
		t.Error("Ratio(3,4) != 0.75")
	}
}

func TestCounterSet(t *testing.T) {
	var c Counter
	c.Set(99)
	if c.Value() != 99 {
		t.Errorf("Set: value = %d", c.Value())
	}
}

// TestOccupancyJSONGolden pins the occupancy wire/checkpoint form byte for
// byte: engine checkpoints and sweepd results both ship it, so an
// accidental encoding change must fail loudly here.
func TestOccupancyJSONGolden(t *testing.T) {
	o := Occupancy{Name: "RB_occupancy", Desc: "reorder buffer", Cap: 16}
	for _, n := range []int{0, 4, 16, 16, 7} {
		o.Sample(n)
	}
	data, err := json.Marshal(o)
	if err != nil {
		t.Fatal(err)
	}
	const golden = `{"name":"RB_occupancy","desc":"reorder buffer","cap":16,"samples":5,"sum":43,"full":2,"empty":1}`
	if string(data) != golden {
		t.Errorf("occupancy encoding changed:\ngot  %s\nwant %s", data, golden)
	}
	var back Occupancy
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back != o {
		t.Errorf("occupancy round trip lost accumulator state: %+v vs %+v", back, o)
	}
}

// TestOccupancySampleN: the bulk form must leave the accumulator
// byte-identical to the equivalent sequence of single samples — the
// contract the engine's idle-cycle fast-forward rests on.
func TestOccupancySampleN(t *testing.T) {
	single := Occupancy{Name: "RB_occupancy", Cap: 8}
	bulk := single
	for _, v := range []int{0, 3, 8, 8, 0, 5} {
		for i := 0; i < 7; i++ {
			single.Sample(v)
		}
		bulk.SampleN(v, 7)
	}
	if single != bulk {
		t.Errorf("SampleN diverged from repeated Sample:\n single: %+v\n   bulk: %+v", single, bulk)
	}
	bulk.SampleN(2, 0)
	if single != bulk {
		t.Error("SampleN(v, 0) must be a no-op")
	}
}
