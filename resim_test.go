package resim_test

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	resim "repro"
)

// mustSession builds a Session from opts, failing the test on a
// validation error.
func mustSession(tb testing.TB, opts ...resim.Option) *resim.Session {
	tb.Helper()
	ses, err := resim.New(opts...)
	if err != nil {
		tb.Fatal(err)
	}
	return ses
}

func TestSimulateWorkloadQuickstart(t *testing.T) {
	cfg := resim.DefaultConfig()
	res, err := mustSession(t, resim.WithConfig(cfg)).RunWorkload(context.Background(), "gzip", 30_000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Committed == 0 || res.Cycles == 0 {
		t.Fatalf("empty result: %+v", res.Counters)
	}
	if ipc := res.IPC(); ipc < 0.5 || ipc > 4 {
		t.Errorf("IPC = %.2f out of plausible range", ipc)
	}
	mips := resim.SimulationMIPS(resim.Virtex5, cfg, res)
	if mips <= 0 {
		t.Errorf("modeled MIPS = %v", mips)
	}
	// Virtex-5 runs 105/84 faster than Virtex-4.
	v4 := resim.SimulationMIPS(resim.Virtex4, cfg, res)
	if ratio := mips / v4; ratio < 1.24 || ratio > 1.26 {
		t.Errorf("V5/V4 ratio = %.3f, want 1.25", ratio)
	}
}

func TestUnknownWorkloadRejected(t *testing.T) {
	if _, err := mustSession(t).RunWorkload(context.Background(), "mcf", 1000); err == nil {
		t.Error("unknown workload accepted")
	}
	if _, err := resim.WorkloadByName("nope"); err == nil {
		t.Error("WorkloadByName accepted unknown name")
	}
}

func TestWorkloadsRoster(t *testing.T) {
	ws := resim.Workloads()
	if len(ws) != 5 {
		t.Fatalf("workloads = %d, want 5", len(ws))
	}
	if ws[0].Name != "gzip" || ws[4].Name != "vpr" {
		t.Errorf("unexpected order: %s..%s", ws[0].Name, ws[4].Name)
	}
}

func TestTraceFileRoundTripThroughPublicAPI(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "vpr.trace")
	ses := mustSession(t)
	ctx := context.Background()

	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	st, err := ses.WriteTrace(ctx, f, "vpr", 20_000, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if st.Records < 20_000 {
		t.Fatalf("trace stats: %+v", st)
	}
	if st.BitsPerInstr < 24 || st.BitsPerInstr > 89 {
		t.Errorf("bits/instr = %.2f", st.BitsPerInstr)
	}

	// Off-line simulation of the file must equal on-the-fly simulation.
	offline, err := ses.RunTrace(ctx, path)
	if err != nil {
		t.Fatal(err)
	}
	online, err := ses.RunWorkload(ctx, "vpr", 20_000)
	if err != nil {
		t.Fatal(err)
	}
	if offline.Cycles != online.Cycles || offline.Committed != online.Committed {
		t.Errorf("offline %d/%d differs from online %d/%d (cycles/committed)",
			offline.Cycles, offline.Committed, online.Cycles, online.Committed)
	}
}

func TestCompressedTraceFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	ses := mustSession(t)
	ctx := context.Background()
	rawPath := filepath.Join(dir, "raw.trace")
	compPath := filepath.Join(dir, "comp.trace")

	fr, err := os.Create(rawPath)
	if err != nil {
		t.Fatal(err)
	}
	rawStats, err := ses.WriteTrace(ctx, fr, "gzip", 15_000, false)
	if err != nil {
		t.Fatal(err)
	}
	_ = fr.Close()
	fc, err := os.Create(compPath)
	if err != nil {
		t.Fatal(err)
	}
	compStats, err := ses.WriteTrace(ctx, fc, "gzip", 15_000, true)
	if err != nil {
		t.Fatal(err)
	}
	_ = fc.Close()

	if compStats.Records != rawStats.Records {
		t.Errorf("record counts differ: %d vs %d", compStats.Records, rawStats.Records)
	}
	if compStats.Bits >= rawStats.Bits {
		t.Errorf("compression did not shrink the trace: %d >= %d bits", compStats.Bits, rawStats.Bits)
	}
	// Both containers simulate identically (format auto-detected).
	a, err := ses.RunTrace(ctx, rawPath)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ses.RunTrace(ctx, compPath)
	if err != nil {
		t.Fatal(err)
	}
	if a.Counters != b.Counters {
		t.Error("raw and compressed containers produced different results")
	}
}

func TestCustomCacheConfig(t *testing.T) {
	cfg := resim.DefaultConfig()
	cfg.DCache = resim.CacheSide{L1: resim.CacheConfig{
		Name: "dl1", SizeBytes: 8 << 10, Assoc: 2, BlockBytes: 32,
		HitLatency: 1, MissLatency: 12,
	}}
	res, err := mustSession(t, resim.WithConfig(cfg)).RunWorkload(context.Background(), "parser", 20_000)
	if err != nil {
		t.Fatal(err)
	}
	if res.DCache.Accesses() == 0 {
		t.Error("custom D-cache saw no accesses")
	}
	cfg.DCache = resim.CacheSide{L1: resim.CacheConfig{Name: "bad", SizeBytes: 100}}
	if _, err := resim.New(resim.WithConfig(cfg)); err == nil {
		t.Error("invalid cache config accepted")
	}
}

func TestEstimateAreaPublicAPI(t *testing.T) {
	b, err := resim.EstimateArea(resim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if b.Total().Slices == 0 {
		t.Error("empty area estimate")
	}
}

func TestRenderPipelinePublicAPI(t *testing.T) {
	for _, org := range []resim.Organization{resim.OrgSimple, resim.OrgImproved, resim.OrgOptimized} {
		out, err := resim.RenderPipeline(org, 4)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(out, "minor") {
			t.Errorf("render for %v missing grid", org)
		}
	}
	if _, err := resim.RenderPipeline(resim.OrgSimple, -1); err == nil {
		t.Error("negative width accepted")
	}
}

func TestSimulateMulticoreFacade(t *testing.T) {
	cfg := resim.DefaultConfig()
	ses := mustSession(t, resim.WithConfig(cfg))
	ctx := context.Background()
	res, err := ses.Multicore(ctx, resim.MulticoreOptions{
		Workloads: []string{"gzip", "vpr"},
		Limit:     10_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerCore) != 2 {
		t.Fatalf("cores = %d", len(res.PerCore))
	}
	if res.AggregateIPC() <= res.PerCore[0].IPC() {
		t.Error("aggregate IPC should exceed a single core's")
	}
	if mips := resim.AggregateMIPS(resim.Virtex5, cfg, res); mips <= 0 {
		t.Errorf("aggregate MIPS = %v", mips)
	}
	// Shared-L2 variant runs and interferes.
	shared, err := ses.Multicore(ctx, resim.MulticoreOptions{
		Workloads: []string{"gzip", "bzip2"},
		Limit:     10_000,
		L1: &resim.CacheConfig{Name: "dl1", SizeBytes: 4 << 10, Assoc: 2,
			BlockBytes: 64, HitLatency: 1, MissLatency: 20},
		SharedL2: &resim.CacheConfig{Name: "l2", SizeBytes: 32 << 10, Assoc: 8,
			BlockBytes: 64, HitLatency: 6, MissLatency: 40},
	})
	if err != nil {
		t.Fatal(err)
	}
	if shared.PerCore[0].DCache.Accesses() == 0 {
		t.Error("shared-L2 cluster saw no D-cache traffic")
	}
	// Error paths.
	if _, err := ses.Multicore(ctx, resim.MulticoreOptions{}); err == nil {
		t.Error("empty workload list accepted")
	}
	if _, err := ses.Multicore(ctx, resim.MulticoreOptions{
		Workloads: []string{"gzip"},
		SharedL2:  &resim.CacheConfig{Name: "l2", SizeBytes: 32 << 10, Assoc: 8, BlockBytes: 64, HitLatency: 6, MissLatency: 40},
	}); err == nil {
		t.Error("SharedL2 without L1 accepted")
	}
	if _, err := ses.Multicore(ctx, resim.MulticoreOptions{
		Workloads: []string{"gzip"},
		L1:        &resim.CacheConfig{Name: "dl1", SizeBytes: 4 << 10, Assoc: 2, BlockBytes: 64, HitLatency: 1, MissLatency: 20},
	}); err == nil {
		t.Error("L1 without SharedL2 accepted")
	}
}

func TestResultReport(t *testing.T) {
	res, err := mustSession(t).RunWorkload(context.Background(), "bzip2", 10_000)
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Registry().String()
	for _, want := range []string{"sim_num_insn", "sim_IPC", "bpred_lookups"} {
		if !strings.Contains(rep, want) {
			t.Errorf("report missing %q", want)
		}
	}
}
