package multicore

import (
	"context"
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/fpga"
	"repro/internal/funcsim"
	"repro/internal/tracecache"
	"repro/internal/workload"
)

func source(t *testing.T, name string, limit uint64, cfg core.Config) *funcsim.Source {
	t.Helper()
	p, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	src, err := p.NewSource(cfg.TraceConfig(), limit)
	if err != nil {
		t.Fatal(err)
	}
	return src
}

func TestLockstepMatchesIndependentRuns(t *testing.T) {
	// With private memory systems, lockstep execution must produce exactly
	// the same per-core results as running each engine alone, and the
	// cluster finishes when the slowest core does.
	cfg := core.DefaultConfig()
	const limit = 15000

	var solo []core.Result
	for _, name := range []string{"gzip", "parser"} {
		eng, err := core.New(cfg, source(t, name, limit, cfg), funcsim.CodeBase)
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.Run()
		if err != nil {
			t.Fatal(err)
		}
		solo = append(solo, res)
	}

	cl, err := New([]CoreSpec{
		{Name: "gzip", Config: cfg, Source: source(t, "gzip", limit, cfg), StartPC: funcsim.CodeBase},
		{Name: "parser", Config: cfg, Source: source(t, "parser", limit, cfg), StartPC: funcsim.CodeBase},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := cl.Run(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range solo {
		if res.PerCore[i].Committed != solo[i].Committed {
			t.Errorf("core %d committed %d, solo %d", i, res.PerCore[i].Committed, solo[i].Committed)
		}
		if res.PerCore[i].Cycles != solo[i].Cycles {
			t.Errorf("core %d cycles %d, solo %d", i, res.PerCore[i].Cycles, solo[i].Cycles)
		}
	}
	slowest := solo[0].Cycles
	if solo[1].Cycles > slowest {
		slowest = solo[1].Cycles
	}
	if res.Cycles != slowest {
		t.Errorf("cluster cycles = %d, want slowest core %d", res.Cycles, slowest)
	}
	wantAgg := (float64(solo[0].Committed) + float64(solo[1].Committed)) / float64(slowest)
	if got := res.AggregateIPC(); got != wantAgg {
		t.Errorf("aggregate IPC = %v, want %v", got, wantAgg)
	}
}

func TestSharedL2Interference(t *testing.T) {
	// Two cores with tiny private L1s sharing a small L2 must see more L2
	// misses than one core running alone with the same L2: the shared tags
	// are a real interference channel.
	cfg := core.DefaultConfig()
	cfg.DCache = cache.Side{
		L1: cache.Config{Name: "dl1", SizeBytes: 1 << 10, Assoc: 2, BlockBytes: 64,
			HitLatency: 1, MissLatency: 20},
		L2: cache.Config{Name: "l2", SizeBytes: 8 << 10, Assoc: 4, BlockBytes: 64,
			HitLatency: 6, MissLatency: 40},
	}
	const limit = 15000
	l2Misses := func(names ...string) uint64 {
		var specs []CoreSpec
		for _, name := range names {
			specs = append(specs, CoreSpec{
				Name: name, Config: cfg,
				Source: source(t, name, limit, cfg), StartPC: funcsim.CodeBase,
			})
		}
		cl, err := New(specs)
		if err != nil {
			t.Fatal(err)
		}
		res, err := cl.Run(context.Background(), 0)
		if err != nil {
			t.Fatal(err)
		}
		return res.SharedL2.Misses()
	}
	soloMisses := l2Misses("bzip2")
	sharedMisses := l2Misses("bzip2", "vortex")
	if sharedMisses <= soloMisses {
		t.Errorf("shared L2 misses %d not above solo %d", sharedMisses, soloMisses)
	}
}

// TestSharedL2GeometryMustAgree: the cluster builds one L2, so cores naming
// different L2 geometries are refused.
func TestSharedL2GeometryMustAgree(t *testing.T) {
	a := core.DefaultConfig()
	a.DCache = cache.Side{
		L1: cache.Config{Name: "dl1", SizeBytes: 1 << 10, Assoc: 2, BlockBytes: 64, HitLatency: 1, MissLatency: 20},
		L2: cache.Config{Name: "l2", SizeBytes: 8 << 10, Assoc: 4, BlockBytes: 64, HitLatency: 6, MissLatency: 40},
	}
	b := a
	b.DCache.L2.SizeBytes = 16 << 10
	_, err := New([]CoreSpec{
		{Name: "a", Config: a, Source: source(t, "gzip", 1000, a), StartPC: funcsim.CodeBase},
		{Name: "b", Config: b, Source: source(t, "gzip", 1000, b), StartPC: funcsim.CodeBase},
	})
	if err == nil {
		t.Error("cores with different L2 geometries shared one L2")
	}
}

func TestAggregateMIPSModel(t *testing.T) {
	cfg := core.DefaultConfig()
	cl, err := New([]CoreSpec{
		{Name: "vpr", Config: cfg, Source: source(t, "vpr", 10000, cfg), StartPC: funcsim.CodeBase},
		{Name: "gzip", Config: cfg, Source: source(t, "gzip", 10000, cfg), StartPC: funcsim.CodeBase},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := cl.Run(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	k := cfg.MinorCyclesPerMajor()
	want := fpga.Virtex5.MinorClockMHz / float64(k) * res.AggregateIPC()
	if got := res.AggregateMIPS(fpga.Virtex5, k); got != want {
		t.Errorf("aggregate MIPS = %v, want %v", got, want)
	}
	// Two cores in lockstep must beat one core's throughput.
	if res.AggregateIPC() <= res.PerCore[0].IPC() {
		t.Error("aggregate IPC not above single-core IPC")
	}
}

func TestRunRespectsMaxCycles(t *testing.T) {
	cfg := core.DefaultConfig()
	cl, err := New([]CoreSpec{
		{Config: cfg, Source: source(t, "gzip", 100000, cfg), StartPC: funcsim.CodeBase},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := cl.Run(context.Background(), 50)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles != 50 {
		t.Errorf("cycles = %d, want 50", res.Cycles)
	}
	if res.Names[0] != "core0" {
		t.Errorf("default name = %q", res.Names[0])
	}
}

func TestEmptyClusterRejected(t *testing.T) {
	if _, err := New(nil); err == nil {
		t.Error("empty cluster accepted")
	}
	bad := core.DefaultConfig()
	bad.Width = 0
	if _, err := New([]CoreSpec{{Config: bad}}); err == nil {
		t.Error("invalid core config accepted")
	}
}

// TestClusterSharesCachedTrace builds a homogeneous cluster whose cores
// consume independent snapshots of one cached trace — the session-level
// wiring — and checks the lockstep outcome matches cores that each
// regenerated the trace themselves.
func TestClusterSharesCachedTrace(t *testing.T) {
	p, err := workload.ByName("gzip")
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	const limit = 5000

	traces := tracecache.New(tracecache.Config{})
	var cachedSpecs, freshSpecs []CoreSpec
	for i := 0; i < 2; i++ {
		tr, err := traces.Get(context.Background(), p, cfg.TraceConfig(), limit)
		if err != nil {
			t.Fatal(err)
		}
		cachedSpecs = append(cachedSpecs, CoreSpec{
			Name: "cached", Config: cfg, Source: tr.Source(), StartPC: tr.StartPC(),
		})
		src, err := p.NewSource(cfg.TraceConfig(), limit)
		if err != nil {
			t.Fatal(err)
		}
		freshSpecs = append(freshSpecs, CoreSpec{
			Name: "fresh", Config: cfg, Source: src, StartPC: funcsim.CodeBase,
		})
	}
	if got := traces.Stats().Generations; got != 1 {
		t.Fatalf("generations = %d, want 1", got)
	}

	cachedCl, err := New(cachedSpecs)
	if err != nil {
		t.Fatal(err)
	}
	freshCl, err := New(freshSpecs)
	if err != nil {
		t.Fatal(err)
	}
	a, err := cachedCl.Run(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := freshCl.Run(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if a.Cycles != b.Cycles {
		t.Errorf("cycles: cached cluster %d, fresh cluster %d", a.Cycles, b.Cycles)
	}
	for i := range a.PerCore {
		if a.PerCore[i].Counters != b.PerCore[i].Counters {
			t.Errorf("core %d: cached snapshot run differs from regeneration", i)
		}
	}
}
