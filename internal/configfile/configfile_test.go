package configfile

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/bpred"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/sched"
)

func TestRoundTripDefault(t *testing.T) {
	want := core.DefaultConfig()
	got, err := FromConfig(want).ToConfig()
	if err != nil {
		t.Fatal(err)
	}
	if got.Width != want.Width || got.RBSize != want.RBSize ||
		got.LSQSize != want.LSQSize || got.IFQSize != want.IFQSize {
		t.Errorf("structure mismatch: %+v", got)
	}
	if got.Organization != want.Organization {
		t.Errorf("organization = %v", got.Organization)
	}
	if got.Predictor != want.Predictor {
		t.Errorf("predictor mismatch:\n%+v\n%+v", got.Predictor, want.Predictor)
	}
	if got.ICache != (cache.Side{}) || got.DCache != (cache.Side{}) {
		t.Error("perfect memory did not round-trip")
	}
}

func TestRoundTripFASTConfig(t *testing.T) {
	want := core.FASTComparisonConfig()
	got, err := FromConfig(want).ToConfig()
	if err != nil {
		t.Fatal(err)
	}
	if !got.PerfectBP {
		t.Error("PerfectBP lost")
	}
	if got.Organization != sched.OrgImproved {
		t.Errorf("organization = %v", got.Organization)
	}
	if got.ICache != want.ICache || got.DCache != want.DCache {
		t.Errorf("memory system = %+v / %+v, want %+v / %+v", got.ICache, got.DCache, want.ICache, want.DCache)
	}
}

// TestRoundTripMemorySystems: every kind of side — perfect memory at a
// latency, an L1, an L1 with an L2 — survives the file exactly when its
// caches carry the names ToConfig gives them.
func TestRoundTripMemorySystems(t *testing.T) {
	level := func(name string, size int) cache.Config {
		return cache.Config{Name: name, SizeBytes: size, Assoc: 4, BlockBytes: 64, HitLatency: 2, MissLatency: 30}
	}
	for _, sides := range [][2]cache.Side{
		{{Latency: 3}, {Latency: 1}},
		{{L1: level("il1", 8<<10)}, {L1: level("dl1", 16<<10), L2: level("dl2", 256<<10)}},
		{{L1: level("il1", 8<<10), L2: level("il2", 64<<10)}, {}},
	} {
		want := core.DefaultConfig()
		want.ICache, want.DCache = sides[0], sides[1]
		got, err := FromConfig(want).ToConfig()
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("round trip changed the memory system:\ngot  %+v / %+v\nwant %+v / %+v",
				got.ICache, got.DCache, want.ICache, want.DCache)
		}
	}
}

func TestSaveLoadFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cfg.json")
	want := core.DefaultConfig()
	want.Width = 2
	want.RBSize = 32
	want.Organization = sched.OrgImproved
	want.Predictor.Dir = bpred.DirCombined
	want.Predictor.MetaSize = 1024
	want.MemReadPorts = 1
	if err := Save(path, want); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Width != 2 || got.RBSize != 32 || got.Organization != sched.OrgImproved {
		t.Errorf("loaded %+v", got)
	}
	if got.Predictor.Dir != bpred.DirCombined || got.Predictor.MetaSize != 1024 {
		t.Errorf("predictor %+v", got.Predictor)
	}
}

func TestLoadErrors(t *testing.T) {
	if _, err := Load("/nonexistent/cfg.json"); err == nil {
		t.Error("missing file accepted")
	}
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(bad); err == nil {
		t.Error("malformed JSON accepted")
	}
}

func TestToConfigRejectsBadValues(t *testing.T) {
	f := FromConfig(core.DefaultConfig())
	f.Organization = "pipelined"
	if _, err := f.ToConfig(); err == nil {
		t.Error("unknown organization accepted")
	}
	f = FromConfig(core.DefaultConfig())
	f.Predictor.Kind = "neural"
	if _, err := f.ToConfig(); err == nil {
		t.Error("unknown predictor accepted")
	}
	f = FromConfig(core.DefaultConfig())
	f.Width = 0
	if _, err := f.ToConfig(); err == nil {
		t.Error("invalid width accepted")
	}
	f = FromConfig(core.DefaultConfig())
	f.ICache = &CacheSpec{SizeBytes: 100, Assoc: 1, BlockBytes: 64, HitLatency: 1, MissLatency: 2}
	if _, err := f.ToConfig(); err == nil {
		t.Error("invalid cache geometry accepted")
	}
	l2 := &CacheSpec{SizeBytes: 64 << 10, Assoc: 4, BlockBytes: 64, HitLatency: 6, MissLatency: 40}
	f.ICache = &CacheSpec{HitLatency: 1, L2: l2}
	if _, err := f.ToConfig(); err == nil {
		t.Error("an L2 behind perfect memory accepted")
	}
	f.ICache = &CacheSpec{SizeBytes: 1 << 10, Assoc: 1, BlockBytes: 64, HitLatency: 1, MissLatency: 2,
		L2: &CacheSpec{SizeBytes: 64 << 10, Assoc: 4, BlockBytes: 64, HitLatency: 6, MissLatency: 40, L2: l2}}
	if _, err := f.ToConfig(); err == nil {
		t.Error("an L2 with an l2 of its own accepted")
	}
}

func TestDefaultsFillIn(t *testing.T) {
	// Empty organization and predictor kind default to the paper's.
	f := FromConfig(core.DefaultConfig())
	f.Organization = ""
	f.Predictor.Kind = ""
	cfg, err := f.ToConfig()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Organization != sched.OrgOptimized {
		t.Error("empty organization did not default to optimized")
	}
	if cfg.Predictor.Dir != bpred.DirTwoLevel {
		t.Error("empty predictor kind did not default to 2lev")
	}
}
