package gen

import (
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/fpga"
)

func TestGenerateDefaultConfig(t *testing.T) {
	out, err := Generate(core.DefaultConfig(), fpga.Virtex4)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"entity resim_top",
		"WIDTH            : integer := 4",
		"RB_ENTRIES       : integer := 16",
		"LSQ_ENTRIES      : integer := 8",
		"MINOR_PER_MAJOR  : integer := 7",
		"u_fetch: fetch_stage",
		"u_lsq_refresh: lsq_refresh_stage",
		"u_bpred: branch_predictor",
		"entity branch_predictor",
		"PHT_SIZE",
		"perfect memory configuration",
		"holds 1 instance(s)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestGeneratePerfectBPAndCaches(t *testing.T) {
	cfg := core.FASTComparisonConfig()
	out, err := Generate(cfg, fpga.Virtex5)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "branch predictor omitted") {
		t.Error("perfect-BP configuration still instantiates a predictor")
	}
	if strings.Contains(out, "entity branch_predictor") {
		t.Error("predictor entity emitted for perfect BP")
	}
	if !strings.Contains(out, "32KB, 8-way, 64B blocks") {
		t.Errorf("cache description missing:\n%s", out)
	}
	if !strings.Contains(out, "MINOR_PER_MAJOR  : integer := 6") {
		t.Error("K for 2-wide improved organization should be 6")
	}
}

// TestGenerateHierarchyCache: an L2 behind the D-side L1 is outside the
// generated design, so the L1's tag unit is listed and the modeled total
// is the one without the L2.
func TestGenerateHierarchyCache(t *testing.T) {
	l1Only := core.DefaultConfig()
	l1Only.DCache = cache.Side{L1: cache.L1Config32K("dl1")}
	withL2 := l1Only
	withL2.DCache.L2 = cache.Config{Name: "dl2", SizeBytes: 256 << 10, Assoc: 8, BlockBytes: 64,
		HitLatency: 6, MissLatency: 40}
	want, err := Generate(l1Only, fpga.Virtex4)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Generate(withL2, fpga.Virtex4)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "u_dcache_tags: cache_tag_unit") {
		t.Error("hierarchy L1 not described")
	}
	if out != want {
		t.Errorf("an L2 behind the L1 changed the generated design:\n%s\nwant\n%s", out, want)
	}
}

func TestGenerateRejectsInvalid(t *testing.T) {
	bad := core.DefaultConfig()
	bad.RBSize = 0
	if _, err := Generate(bad, fpga.Virtex4); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(core.DefaultConfig(), fpga.Virtex4)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(core.DefaultConfig(), fpga.Virtex4)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("generation is not deterministic")
	}
}
