package cache

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func small() Config {
	return Config{Name: "t", SizeBytes: 1024, Assoc: 2, BlockBytes: 64,
		HitLatency: 1, MissLatency: 20}
}

func TestValidate(t *testing.T) {
	if err := small().Validate(); err != nil {
		t.Fatal(err)
	}
	if err := L1Config32K("il1").Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{Name: "x", SizeBytes: 1000, Assoc: 2, BlockBytes: 64, MissLatency: 1},
		{Name: "x", SizeBytes: 1024, Assoc: 0, BlockBytes: 64, MissLatency: 1},
		{Name: "x", SizeBytes: 1024, Assoc: 2, BlockBytes: 60, MissLatency: 1},
		{Name: "x", SizeBytes: 1024, Assoc: 2, BlockBytes: 64, HitLatency: 5, MissLatency: 1},
		{Name: "x", SizeBytes: 1536, Assoc: 2, BlockBytes: 64, MissLatency: 1},      // 12 sets
		{Name: "x", SizeBytes: 1024, Assoc: 4, BlockBytes: 1 << 62, MissLatency: 1}, // BlockBytes*Assoc overflows to 0
		{Name: "x", SizeBytes: 1 << 40, Assoc: 1, BlockBytes: 64, MissLatency: 1},   // 2^34 blocks of tag state
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted: %+v", i, c)
		}
	}
}

func TestPaperL1Geometry(t *testing.T) {
	c := L1Config32K("dl1")
	if c.SizeBytes != 32<<10 || c.Assoc != 8 || c.BlockBytes != 64 {
		t.Errorf("L1 geometry: %+v", c)
	}
	if c.Sets() != 64 {
		t.Errorf("sets = %d, want 64", c.Sets())
	}
}

func TestColdMissThenHit(t *testing.T) {
	c := New(small())
	hit, lat := c.Access(0x1000, false)
	if hit || lat != 20 {
		t.Errorf("cold access: hit=%t lat=%d", hit, lat)
	}
	hit, lat = c.Access(0x1000, false)
	if !hit || lat != 1 {
		t.Errorf("second access: hit=%t lat=%d", hit, lat)
	}
	// Same block, different offset also hits.
	if hit, _ := c.Access(0x103C, false); !hit {
		t.Error("same-block access missed")
	}
	st := c.Stats()
	if st.Reads != 3 || st.ReadHits != 2 || st.Misses() != 1 {
		t.Errorf("stats: %+v", st)
	}
}

func TestLRUReplacement(t *testing.T) {
	c := New(small()) // 8 sets, 2 ways
	setStride := uint32(8 * 64)
	a, b, x := uint32(0), setStride, 2*setStride // all map to set 0
	c.Access(a, false)
	c.Access(b, false)
	c.Access(a, false) // a is now MRU
	c.Access(x, false) // evicts b (LRU)
	if hit, _ := c.Access(a, false); !hit {
		t.Error("a evicted despite being MRU")
	}
	if hit, _ := c.Access(b, false); hit {
		t.Error("b survived despite being LRU")
	}
}

func TestWriteAllocate(t *testing.T) {
	c := New(small())
	if hit, _ := c.Access(0x2000, true); hit {
		t.Error("cold write hit")
	}
	if hit, _ := c.Access(0x2000, false); !hit {
		t.Error("write did not allocate")
	}
	st := c.Stats()
	if st.Writes != 1 || st.WriteHits != 0 || st.ReadHits != 1 {
		t.Errorf("stats: %+v", st)
	}
}

func TestMissRate(t *testing.T) {
	c := New(small())
	c.Access(0, false)
	c.Access(0, false)
	c.Access(64, false)
	c.Access(64, false)
	if mr := c.Stats().MissRate(); mr != 0.5 {
		t.Errorf("miss rate = %v, want 0.5", mr)
	}
	var empty Stats
	if empty.MissRate() != 0 {
		t.Error("empty MissRate should be 0")
	}
}

func TestPerfect(t *testing.T) {
	p := (Side{}).Build(nil)
	for i := uint32(0); i < 100; i++ {
		hit, lat := p.Access(i*4096, i%2 == 0)
		if !hit || lat != 1 {
			t.Fatalf("perfect access missed: hit=%t lat=%d", hit, lat)
		}
	}
	st, l2 := p.Stats()
	if st.Misses() != 0 || st.Accesses() != 100 || l2 != (Stats{}) {
		t.Errorf("stats: %+v, L2 %+v", st, l2)
	}
}

func TestWorkingSetFitsCache(t *testing.T) {
	// A working set smaller than the cache converges to a 100% hit rate
	// after the cold pass.
	c := New(L1Config32K("dl1"))
	for pass := 0; pass < 4; pass++ {
		for addr := uint32(0); addr < 16<<10; addr += 64 {
			c.Access(addr, false)
		}
	}
	st := c.Stats()
	wantCold := uint64((16 << 10) / 64)
	if st.Misses() != wantCold {
		t.Errorf("misses = %d, want %d (cold only)", st.Misses(), wantCold)
	}
}

func TestThrashingWorkingSet(t *testing.T) {
	// A working set that exceeds capacity with an LRU-hostile cyclic access
	// pattern misses every time.
	cfg := small() // 1 KB total
	c := New(cfg)
	for pass := 0; pass < 3; pass++ {
		for addr := uint32(0); addr < 2048; addr += 64 {
			c.Access(addr, false)
		}
	}
	if st := c.Stats(); st.Hits() != 0 {
		t.Errorf("cyclic thrash produced %d hits", st.Hits())
	}
}

// Property: the model never reports more hits than accesses, and hit latency
// is HitLatency / miss latency is MissLatency, for any access sequence.
func TestQuickLatencyContract(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	f := func() bool {
		c := New(small())
		for i := 0; i < 500; i++ {
			addr := uint32(rng.Intn(1 << 14))
			hit, lat := c.Access(addr, rng.Intn(2) == 0)
			if hit && lat != c.cfg.HitLatency {
				return false
			}
			if !hit && lat != c.cfg.MissLatency {
				return false
			}
		}
		st := c.Stats()
		return st.Hits() <= st.Accesses()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: a direct-mapped cache of S sets holds exactly the last block per
// set (reference model comparison).
func TestQuickDirectMappedMatchesModel(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	f := func() bool {
		cfg := Config{Name: "dm", SizeBytes: 512, Assoc: 1, BlockBytes: 32,
			HitLatency: 1, MissLatency: 10}
		c := New(cfg)
		model := map[uint32]uint32{} // set -> tag
		for i := 0; i < 400; i++ {
			addr := uint32(rng.Intn(1 << 13))
			set := (addr / 32) % 16
			tag := addr / 32
			wantHit := model[set] == tag && model[set] != 0
			hit, _ := c.Access(addr, false)
			if hit != wantHit && model[set] != 0 {
				return false
			}
			model[set] = tag
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestStatsAddSub(t *testing.T) {
	a, d := Stats{5, 3, 2, 1}, Stats{9, 4, 7, 6}
	sum := a.Add(d)
	if sum != (Stats{14, 7, 9, 7}) || sum.Sub(d) != a {
		t.Errorf("%+v + %+v = %+v, minus %+v = %+v", a, d, sum, d, sum.Sub(d))
	}
}
