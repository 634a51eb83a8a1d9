package cache

import (
	"encoding/json"
	"reflect"
	"testing"
)

// stateTestCache is a tiny 2-set / 2-way cache so the golden encoding stays
// reviewable.
func stateTestCache() *Cache {
	return New(Config{Name: "t", SizeBytes: 128, Assoc: 2, BlockBytes: 32,
		HitLatency: 1, MissLatency: 9})
}

// fillDeterministic drives a fixed access pattern with hits, misses and an
// LRU eviction.
func fillDeterministic(m Model) {
	for _, a := range []uint32{0x000, 0x040, 0x100, 0x000, 0x200, 0x040} {
		m.Access(a, false)
	}
	m.Access(0x80, true)
}

// TestCacheStateRoundTrip: CaptureState -> JSON -> RestoreState reproduces
// bit-identical hit/miss behavior and counters for every built-in model.
func TestCacheStateRoundTrip(t *testing.T) {
	hier := Side{
		L1: Config{Name: "l1", SizeBytes: 128, Assoc: 2, BlockBytes: 32, HitLatency: 1, MissLatency: 9},
		L2: Config{Name: "l2", SizeBytes: 512, Assoc: 2, BlockBytes: 32, HitLatency: 4, MissLatency: 30},
	}
	models := map[string]struct {
		orig, fresh Model
	}{
		"cache":     {stateTestCache(), stateTestCache()},
		"perfect":   {NewPerfect(2), NewPerfect(2)},
		"hierarchy": {hier.Build(nil), hier.Build(nil)},
	}
	for name, mm := range models {
		fillDeterministic(mm.orig)
		st, err := CaptureState(mm.orig)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		data, err := json.Marshal(st)
		if err != nil {
			t.Fatal(err)
		}
		var decoded State
		if err := json.Unmarshal(data, &decoded); err != nil {
			t.Fatal(err)
		}
		if err := RestoreState(mm.fresh, &decoded); err != nil {
			t.Fatalf("%s: restore: %v", name, err)
		}
		if mm.fresh.Stats() != mm.orig.Stats() {
			t.Errorf("%s: restored counters differ: %+v vs %+v", name, mm.fresh.Stats(), mm.orig.Stats())
		}
		// Behavioral equivalence: the same subsequent accesses produce the
		// same hits and latencies (tag state and LRU clocks restored).
		for _, a := range []uint32{0x000, 0x040, 0x100, 0x200, 0x300, 0x80} {
			hitA, latA := mm.orig.Access(a, false)
			hitB, latB := mm.fresh.Access(a, false)
			if hitA != hitB || latA != latB {
				t.Errorf("%s: access %#x diverged after restore: %t/%d vs %t/%d",
					name, a, hitA, latA, hitB, latB)
			}
		}
		rec, err := CaptureState(mm.orig)
		if err != nil {
			t.Fatal(err)
		}
		rec2, err := CaptureState(mm.fresh)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(rec, rec2) {
			t.Errorf("%s: post-restore states diverged", name)
		}
	}
}

// TestCacheStateGoldenEncoding pins the serialized cache-array form byte
// for byte: an accidental change breaks stored checkpoints and must fail
// loudly here.
func TestCacheStateGoldenEncoding(t *testing.T) {
	c := stateTestCache()
	fillDeterministic(c)
	st, err := CaptureState(c)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	const golden = `{"kind":"cache","stats":{"Reads":6,"ReadHits":0,"Writes":1,"WriteHits":0},"name":"t","geometry":{"Name":"t","SizeBytes":128,"Assoc":2,"BlockBytes":32,"HitLatency":1,"MissLatency":9},"tags":[4,2,0,0],"valid":[true,true,false,false],"last_used":[7,6,0,0],"tick":7}`
	if string(data) != golden {
		t.Errorf("cache state encoding changed:\ngot  %s\nwant %s", data, golden)
	}
}

// TestCacheStateRejectsMismatches: wrong kinds and wrong geometry fail.
func TestCacheStateRejectsMismatches(t *testing.T) {
	c := stateTestCache()
	st, err := CaptureState(c)
	if err != nil {
		t.Fatal(err)
	}
	if err := RestoreState(NewPerfect(1), st); err == nil {
		t.Error("cache state restored into perfect memory")
	}
	other := New(Config{Name: "t", SizeBytes: 256, Assoc: 2, BlockBytes: 32,
		HitLatency: 1, MissLatency: 9})
	if err := RestoreState(other, st); err == nil {
		t.Error("cache state restored into different geometry")
	}
	pst, err := CaptureState(NewPerfect(3))
	if err != nil {
		t.Fatal(err)
	}
	if err := RestoreState(NewPerfect(1), pst); err == nil {
		t.Error("perfect state restored under a different latency")
	}
	type custom struct{ Model }
	if _, err := CaptureState(custom{c}); err == nil {
		t.Error("custom model captured without error")
	}
}
