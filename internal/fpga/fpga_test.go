package fpga

import (
	"math"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
)

func TestDeviceConstants(t *testing.T) {
	if Virtex4.MinorClockMHz != 84 || Virtex5.MinorClockMHz != 105 {
		t.Errorf("minor clocks: V4=%v V5=%v, want 84/105 (paper §V.C)",
			Virtex4.MinorClockMHz, Virtex5.MinorClockMHz)
	}
	if !strings.Contains(Virtex4.String(), "xc4vlx40") {
		t.Error("device String missing part name")
	}
}

func TestSimulationMIPSMatchesPaperModel(t *testing.T) {
	// Back out the implied IPC from a published number and check the model
	// is self-consistent across devices: Table 1 reports bzip2 at
	// 27.55 MIPS (V4) and 34.44 MIPS (V5) with K=7, so the same IPC must
	// reproduce both within rounding.
	ipcV4 := 27.55 * 7 / 84
	ipcV5 := 34.44 * 7 / 105
	if math.Abs(ipcV4-ipcV5) > 0.01 {
		t.Fatalf("paper-implied IPCs inconsistent: %v vs %v", ipcV4, ipcV5)
	}
	if got := SimulationMIPS(Virtex4, 7, ipcV4); math.Abs(got-27.55) > 0.01 {
		t.Errorf("V4 MIPS = %v, want 27.55", got)
	}
	if got := SimulationMIPS(Virtex5, 7, ipcV4); math.Abs(got-34.44) > 0.05 {
		t.Errorf("V5 MIPS = %v, want ~34.44", got)
	}
	if SimulationMIPS(Virtex4, 0, 1) != 0 {
		t.Error("K=0 should yield 0")
	}
}

func TestTraceBandwidth(t *testing.T) {
	// Table 3, gzip row: 26.37 MIPS x 41.74 bits -> 137.56 MB/s.
	got := TraceBandwidthMBps(26.37, 41.74)
	if math.Abs(got-137.59) > 0.5 {
		t.Errorf("gzip trace bandwidth = %.2f MB/s, want ~137.6", got)
	}
	// Average 25.51 MIPS x 43.44 bits ~ 1.1 Gb/s (paper text).
	gbps := TraceBandwidthGbps(25.51, 43.44)
	if gbps < 1.0 || gbps > 1.25 {
		t.Errorf("average trace bandwidth = %.2f Gb/s, want ~1.1", gbps)
	}
}

func TestParallelFetchFactors(t *testing.T) {
	// §IV: 4-wide parallel fetch costs 4x and is 22% slower.
	area, freq := ParallelFetchFactors(4)
	if area != 4 {
		t.Errorf("area factor = %v, want 4", area)
	}
	if math.Abs(freq-0.78) > 1e-9 {
		t.Errorf("freq factor = %v, want 0.78", freq)
	}
	// 1-wide is the serial baseline.
	area, freq = ParallelFetchFactors(1)
	if area != 1 || freq != 1 {
		t.Errorf("1-wide factors = %v/%v", area, freq)
	}
	if a, f := ParallelFetchFactors(0); a != 0 || f != 0 {
		t.Error("invalid width not rejected")
	}
	if got := ParallelMinorClockMHz(Virtex4, 4); math.Abs(got-84*0.78) > 1e-9 {
		t.Errorf("parallel V4 clock = %v", got)
	}
}

func TestAreaReproducesTable4Totals(t *testing.T) {
	b, err := EstimateArea(referenceConfig())
	if err != nil {
		t.Fatal(err)
	}
	total := b.Total()
	if math.Abs(float64(total.Slices-refTotalSlices)) > 0.01*refTotalSlices {
		t.Errorf("total slices = %d, want ~%d", total.Slices, refTotalSlices)
	}
	if math.Abs(float64(total.LUTs-refTotalLUTs)) > 0.01*refTotalLUTs {
		t.Errorf("total LUTs = %d, want ~%d", total.LUTs, refTotalLUTs)
	}
	if total.BRAMs != 7 {
		t.Errorf("total BRAMs = %d, want 7", total.BRAMs)
	}
}

func TestAreaStageOrderingMatchesTable4(t *testing.T) {
	// Fetch is the largest logic stage; wb and cmt are among the smallest
	// (Table 4 row ordering by slice share).
	b, err := EstimateArea(referenceConfig())
	if err != nil {
		t.Fatal(err)
	}
	get := func(name string) Area {
		for _, s := range b.Stages {
			if s.Name == name {
				return s.Area
			}
		}
		t.Fatalf("missing stage %s", name)
		return Area{}
	}
	if !(get("fetch").Slices > get("RB").Slices &&
		get("RB").Slices > get("LSQ").Slices &&
		get("LSQ").Slices > get("wb").Slices &&
		get("wb").Slices > get("cmt").Slices) {
		t.Error("per-stage slice ordering does not match Table 4")
	}
	// BP holds 5 of the 7 BRAMs (71%), I-C the other 2 (29%).
	if get("BP").BRAMs != 5 {
		t.Errorf("BP BRAMs = %d, want 5", get("BP").BRAMs)
	}
	if get("I-C").BRAMs != 2 {
		t.Errorf("I-C BRAMs = %d, want 2", get("I-C").BRAMs)
	}
	if get("D-C").BRAMs != 0 {
		t.Errorf("D-C BRAMs = %d, want 0 (distributed tags)", get("D-C").BRAMs)
	}
}

func TestPerfectMemoryFitsInTenKSlices(t *testing.T) {
	// Conclusions: ReSim "fits within about 10K Xilinx FPGA slices" —
	// the perfect-memory configuration without caches.
	b, err := EstimateArea(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	total := b.Total()
	if total.Slices < 9000 || total.Slices > 11000 {
		t.Errorf("perfect-memory total = %d slices, want ~10K", total.Slices)
	}
	if total.BRAMs != 5 {
		t.Errorf("perfect-memory BRAMs = %d, want 5 (BP only)", total.BRAMs)
	}
}

func TestAreaScalesWithStructures(t *testing.T) {
	small := core.DefaultConfig()
	big := core.DefaultConfig()
	big.RBSize, big.LSQSize, big.IFQSize = 64, 32, 16
	bs, err := EstimateArea(small)
	if err != nil {
		t.Fatal(err)
	}
	bb, err := EstimateArea(big)
	if err != nil {
		t.Fatal(err)
	}
	if bb.Total().Slices <= bs.Total().Slices {
		t.Errorf("bigger windows did not grow area: %d <= %d",
			bb.Total().Slices, bs.Total().Slices)
	}
}

// TestDCacheRowIgnoresL2: the D-C row is the L1's tag state, so an L2
// behind a 32K L1 leaves it (and the whole breakdown) unchanged rather
// than dropping the row to zero.
func TestDCacheRowIgnoresL2(t *testing.T) {
	l1Only := referenceConfig()
	withL2 := l1Only
	withL2.DCache.L2 = cache.Config{Name: "dl2", SizeBytes: 256 << 10, Assoc: 8, BlockBytes: 64,
		HitLatency: 6, MissLatency: 40}
	want, err := EstimateArea(l1Only)
	if err != nil {
		t.Fatal(err)
	}
	got, err := EstimateArea(withL2)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range got.Stages {
		if s != want.Stages[i] {
			t.Errorf("stage %s: %+v with an L2, %+v without", s.Name, s.Area, want.Stages[i].Area)
		}
		if s.Name == "D-C" && s.Area.Slices == 0 {
			t.Error("D-C row charged nothing for a 32K L1")
		}
	}
}

func TestAreaRejectsInvalidConfig(t *testing.T) {
	bad := core.DefaultConfig()
	bad.Width = 0
	if _, err := EstimateArea(bad); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestMulticoreInstancesFit(t *testing.T) {
	b, err := EstimateArea(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	fits, n := b.FitsIn(Virtex4)
	if !fits || n < 1 {
		t.Fatalf("reference design does not fit xc4vlx40: %d instances", n)
	}
	// The paper's conclusions anticipate multiple instances per device;
	// the xc4vlx40 should hold the ~10K-slice perfect-memory core once,
	// and a larger device more than once.
	huge := Device{Name: "big", Slices: 10 * b.Total().Slices, BRAMs: 10 * b.Total().BRAMs}
	if _, n := b.FitsIn(huge); n < 10 {
		t.Errorf("10x device holds %d instances, want >= 10", n)
	}
}

func TestFASTAreaComparison(t *testing.T) {
	// §V: FAST is 29230 slices and 172 BRAMs — "2.4 times and 24 times
	// larger than ReSim". Verify our reference estimate keeps those ratios.
	b, err := EstimateArea(referenceConfig())
	if err != nil {
		t.Fatal(err)
	}
	t4 := b.Total()
	sliceRatio := 29230.0 / float64(t4.Slices)
	bramRatio := 172.0 / float64(t4.BRAMs)
	if sliceRatio < 2.2 || sliceRatio > 2.6 {
		t.Errorf("FAST/ReSim slice ratio = %.2f, want ~2.4", sliceRatio)
	}
	if bramRatio < 22 || bramRatio > 26 {
		t.Errorf("FAST/ReSim BRAM ratio = %.2f, want ~24", bramRatio)
	}
}

func TestRenderLooksLikeTable4(t *testing.T) {
	b, err := EstimateArea(referenceConfig())
	if err != nil {
		t.Fatal(err)
	}
	out := b.Render()
	for _, want := range []string{"fetch", "disp", "BP", "Slices", "4-input LUTs", "BRAMs", "Total excluding"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}
