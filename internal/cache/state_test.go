package cache

import (
	"encoding/json"
	"reflect"
	"testing"
)

// stateTestL1 is a tiny 2-set / 2-way cache so the golden encoding stays
// reviewable.
func stateTestL1() Config {
	return Config{Name: "t", SizeBytes: 128, Assoc: 2, BlockBytes: 32,
		HitLatency: 1, MissLatency: 9}
}

// fillDeterministic drives a fixed access pattern with hits, misses and an
// LRU eviction.
func fillDeterministic(m *Memory) {
	for _, a := range []uint32{0x000, 0x040, 0x100, 0x000, 0x200, 0x040} {
		m.Access(a, false)
	}
	m.Access(0x80, true)
}

// TestCacheStateRoundTrip: State -> JSON -> SetState reproduces
// bit-identical hit/miss behavior and counters for every kind of memory.
func TestCacheStateRoundTrip(t *testing.T) {
	sides := map[string]Side{
		"cache":   {L1: stateTestL1()},
		"perfect": {Latency: 2},
		"hierarchy": {
			L1: Config{Name: "l1", SizeBytes: 128, Assoc: 2, BlockBytes: 32, HitLatency: 1, MissLatency: 9},
			L2: Config{Name: "l2", SizeBytes: 512, Assoc: 2, BlockBytes: 32, HitLatency: 4, MissLatency: 30},
		},
	}
	for name, side := range sides {
		orig, fresh := side.Build(nil), side.Build(nil)
		fillDeterministic(orig)
		st := orig.State()
		if st.Kind != name {
			t.Errorf("%s: state kind %q", name, st.Kind)
		}
		data, err := json.Marshal(st)
		if err != nil {
			t.Fatal(err)
		}
		var decoded State
		if err := json.Unmarshal(data, &decoded); err != nil {
			t.Fatal(err)
		}
		if err := fresh.SetState(&decoded); err != nil {
			t.Fatalf("%s: restore: %v", name, err)
		}
		f1, f2 := fresh.Stats()
		o1, o2 := orig.Stats()
		if f1 != o1 || f2 != o2 {
			t.Errorf("%s: restored counters differ: %+v/%+v vs %+v/%+v", name, f1, f2, o1, o2)
		}
		// Behavioral equivalence: the same subsequent accesses produce the
		// same hits and latencies (tag state and LRU clocks restored).
		for _, a := range []uint32{0x000, 0x040, 0x100, 0x200, 0x300, 0x80} {
			hitA, latA := orig.Access(a, false)
			hitB, latB := fresh.Access(a, false)
			if hitA != hitB || latA != latB {
				t.Errorf("%s: access %#x diverged after restore: %t/%d vs %t/%d",
					name, a, hitA, latA, hitB, latB)
			}
		}
		if !reflect.DeepEqual(orig.State(), fresh.State()) {
			t.Errorf("%s: post-restore states diverged", name)
		}
	}
}

// TestCacheStateGoldenEncoding pins the serialized cache-array form byte
// for byte: an accidental change breaks stored checkpoints and must fail
// loudly here.
func TestCacheStateGoldenEncoding(t *testing.T) {
	c := Side{L1: stateTestL1()}.Build(nil)
	fillDeterministic(c)
	data, err := json.Marshal(c.State())
	if err != nil {
		t.Fatal(err)
	}
	const golden = `{"kind":"cache","stats":{"Reads":6,"ReadHits":0,"Writes":1,"WriteHits":0},"name":"t","geometry":{"Name":"t","SizeBytes":128,"Assoc":2,"BlockBytes":32,"HitLatency":1,"MissLatency":9},"tags":[4,2,0,0],"valid":[true,true,false,false],"last_used":[7,6,0,0],"tick":7}`
	if string(data) != golden {
		t.Errorf("cache state encoding changed:\ngot  %s\nwant %s", data, golden)
	}
}

// TestCacheStateRejectsMismatches: wrong kinds, wrong geometry, a wrong
// latency and a missing state fail.
func TestCacheStateRejectsMismatches(t *testing.T) {
	l1 := Side{L1: stateTestL1()}
	l2 := Config{Name: "l2", SizeBytes: 512, Assoc: 2, BlockBytes: 32, HitLatency: 4, MissLatency: 30}
	hier := Side{L1: stateTestL1(), L2: l2}
	st := l1.Build(nil).State()
	if err := (Side{}).Build(nil).SetState(st); err == nil {
		t.Error("cache state restored into perfect memory")
	}
	if err := hier.Build(nil).SetState(st); err == nil {
		t.Error("cache state restored into a hierarchy")
	}
	other := Side{L1: Config{Name: "t", SizeBytes: 256, Assoc: 2, BlockBytes: 32,
		HitLatency: 1, MissLatency: 9}}
	if err := other.Build(nil).SetState(st); err == nil {
		t.Error("cache state restored into different geometry")
	}
	if err := (Side{}).Build(nil).SetState((Side{Latency: 3}).Build(nil).State()); err == nil {
		t.Error("perfect state restored under a different latency")
	}
	hst := hier.Build(nil).State()
	if err := l1.Build(nil).SetState(hst); err == nil {
		t.Error("hierarchy state restored into an L1 alone")
	}
	hst.Lower = nil
	if err := hier.Build(nil).SetState(hst); err == nil {
		t.Error("hierarchy state without an L2 restored")
	}
	if err := l1.Build(nil).SetState(nil); err == nil {
		t.Error("nil state restored")
	}
}
