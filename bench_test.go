// Benchmarks regenerating every table and figure of the paper's evaluation
// (run `go test -bench=. -benchmem`). Each BenchmarkTableN/BenchmarkFigureN
// corresponds to one artifact; reported custom metrics carry the reproduced
// quantities (IPC, modeled FPGA MIPS, bits/instruction, slices, K), while
// ns/op measures this reproduction's own speed on the host.
// cmd/resim-bench renders the same artifacts as formatted tables.
package resim_test

import (
	"bytes"
	"context"
	"io"
	"net/http/httptest"
	"strconv"
	"testing"

	resim "repro"
	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/fpga"
	"repro/internal/funcsim"
	"repro/internal/jobd"
	"repro/internal/sched"
	"repro/internal/sweepd"
	"repro/internal/tables"
	"repro/internal/trace"
	"repro/internal/tracecache"
	"repro/internal/workload"
)

// benchInstrs is the per-iteration simulated instruction budget.
const benchInstrs = 50_000

// BenchmarkTable1PerfectMemory regenerates Table 1's left portion: 4-issue,
// two-level branch predictor, perfect memory, K = N+3 = 7.
func BenchmarkTable1PerfectMemory(b *testing.B) {
	for _, w := range resim.Workloads() {
		b.Run(w.Name, func(b *testing.B) {
			cfg := resim.DefaultConfig()
			var res resim.Result
			var err error
			for i := 0; i < b.N; i++ {
				res, err = mustSession(b, resim.WithConfig(cfg)).RunWorkload(context.Background(), w.Name, benchInstrs)
				if err != nil {
					b.Fatal(err)
				}
			}
			reportSim(b, cfg, res)
		})
	}
}

// BenchmarkTable1CacheConfig regenerates Table 1's right portion: 2-issue,
// perfect branch prediction, 32K 8-way L1 caches, K = N+4 = 6.
func BenchmarkTable1CacheConfig(b *testing.B) {
	for _, w := range resim.Workloads() {
		b.Run(w.Name, func(b *testing.B) {
			var res resim.Result
			var err error
			cfg := resim.FASTComparisonConfig()
			for i := 0; i < b.N; i++ {
				cfg = resim.FASTComparisonConfig() // fresh cache state per run
				res, err = mustSession(b, resim.WithConfig(cfg)).RunWorkload(context.Background(), w.Name, benchInstrs)
				if err != nil {
					b.Fatal(err)
				}
			}
			reportSim(b, cfg, res)
			b.ReportMetric(res.DCache.MissRate(), "dl1_missrate")
		})
	}
}

func reportSim(b *testing.B, cfg resim.Config, res resim.Result) {
	b.Helper()
	b.ReportMetric(res.IPC(), "IPC")
	b.ReportMetric(resim.SimulationMIPS(resim.Virtex4, cfg, res), "V4_MIPS")
	b.ReportMetric(resim.SimulationMIPS(resim.Virtex5, cfg, res), "V5_MIPS")
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(res.Committed)*float64(b.N)/sec/1e6, "host_MIPS")
	}
}

// BenchmarkTable2Simulators regenerates the simulator comparison. The
// per-iteration work measures this repository's own software engine in
// execution-driven (sim-outorder-style) mode; the modeled ReSim speeds are
// reported as metrics alongside the paper's reported comparison points.
func BenchmarkTable2Simulators(b *testing.B) {
	p, err := workload.ByName("gzip")
	if err != nil {
		b.Fatal(err)
	}
	prog, err := p.Build()
	if err != nil {
		b.Fatal(err)
	}
	cfg := core.DefaultConfig()
	var res core.Result
	var hs baseline.HostStats
	for i := 0; i < b.N; i++ {
		res, hs, err = baseline.ExecutionDriven(context.Background(), cfg, prog, benchInstrs)
		if err != nil {
			b.Fatal(err)
		}
		prog, _ = p.Build() // fresh machine state per run
	}
	b.ReportMetric(hs.HostMIPS, "go_engine_MIPS")
	b.ReportMetric(fpga.SimulationMIPS(fpga.Virtex5, cfg.MinorCyclesPerMajor(), res.IPC()), "ReSim_V5_MIPS")
	b.ReportMetric(0.30, "sim_outorder_reported_MIPS")
	b.ReportMetric(2.79, "FAST_reported_MIPS")
	b.ReportMetric(4.70, "APorts_reported_MIPS")
}

// BenchmarkTable3TraceThroughput regenerates the trace-demand statistics:
// average record bits per instruction and the implied trace bandwidth at
// the Virtex-4 simulation rate.
func BenchmarkTable3TraceThroughput(b *testing.B) {
	for _, w := range resim.Workloads() {
		b.Run(w.Name, func(b *testing.B) {
			cfg := core.DefaultConfig()
			tc := funcsim.TraceConfig{Predictor: cfg.Predictor, WrongPathLen: cfg.WrongPathLen()}
			p, err := workload.ByName(w.Name)
			if err != nil {
				b.Fatal(err)
			}
			var bits, n uint64
			for i := 0; i < b.N; i++ {
				bits, n = 0, 0
				src, err := p.NewSource(tc, benchInstrs)
				if err != nil {
					b.Fatal(err)
				}
				for {
					r, err := src.Next()
					if err == io.EOF {
						break
					}
					if err != nil {
						b.Fatal(err)
					}
					bits += uint64(r.BitLen())
					n++
				}
			}
			bpi := float64(bits) / float64(n)
			b.ReportMetric(bpi, "bits_per_instr")
			// Table 3 pairs bits/instr with the V4 throughput including
			// wrong-path instructions; reuse the Table 1 IPC model.
			res, err := mustSession(b).RunWorkload(context.Background(), w.Name, benchInstrs)
			if err != nil {
				b.Fatal(err)
			}
			thr := fpga.SimulationMIPS(fpga.Virtex4, resim.DefaultConfig().MinorCyclesPerMajor(), res.TotalIPC())
			b.ReportMetric(thr, "thruput_MIPS")
			b.ReportMetric(fpga.TraceBandwidthMBps(thr, bpi), "trace_MBps")
		})
	}
}

// BenchmarkTable4Area regenerates the per-stage area estimate for the
// reference configuration (4-wide with 32K L1 caches on xc4vlx40).
func BenchmarkTable4Area(b *testing.B) {
	var bd fpga.Breakdown
	var err error
	for i := 0; i < b.N; i++ {
		bd, err = tables.Table4()
		if err != nil {
			b.Fatal(err)
		}
	}
	t := bd.Total()
	b.ReportMetric(float64(t.Slices), "slices")
	b.ReportMetric(float64(t.LUTs), "LUTs")
	b.ReportMetric(float64(t.BRAMs), "BRAMs")
	b.ReportMetric(29230/float64(t.Slices), "FAST_slice_ratio")
}

// benchFigure builds and validates one internal pipeline organization and
// reports its major-cycle latency K.
func benchFigure(b *testing.B, org sched.Organization) {
	b.Helper()
	var s sched.Schedule
	var err error
	for i := 0; i < b.N; i++ {
		s, err = sched.Build(org, 4)
		if err != nil {
			b.Fatal(err)
		}
		if err := s.Validate(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(s.MinorCycles()), "K_minor_cycles")
}

// BenchmarkFigure2SimplePipeline: simple serial execution, 2N+3.
func BenchmarkFigure2SimplePipeline(b *testing.B) { benchFigure(b, sched.OrgSimple) }

// BenchmarkFigure3ImprovedPipeline: improved serial execution, N+4.
func BenchmarkFigure3ImprovedPipeline(b *testing.B) { benchFigure(b, sched.OrgImproved) }

// BenchmarkFigure4OptimizedPipeline: optimized organization, N+3; also
// verifies cycle-for-cycle timing equivalence against the improved
// organization on a live workload (the §IV.B claim).
func BenchmarkFigure4OptimizedPipeline(b *testing.B) {
	benchFigure(b, sched.OrgOptimized)
	impr := resim.DefaultConfig()
	impr.Organization = resim.OrgImproved
	opt := resim.DefaultConfig()
	ctx := context.Background()
	a, err := mustSession(b, resim.WithConfig(impr)).RunWorkload(ctx, "vpr", 20_000)
	if err != nil {
		b.Fatal(err)
	}
	c, err := mustSession(b, resim.WithConfig(opt)).RunWorkload(ctx, "vpr", 20_000)
	if err != nil {
		b.Fatal(err)
	}
	if a.Cycles != c.Cycles {
		b.Fatalf("organizations disagree: improved %d vs optimized %d cycles", a.Cycles, c.Cycles)
	}
}

// BenchmarkAblationParallelFetch reproduces the §IV design measurement: a
// 4-wide parallel datapath costs ~4x the area and runs 22% slower, so the
// serial organization wins on throughput per area.
func BenchmarkAblationParallelFetch(b *testing.B) {
	var areaF, freqF float64
	for i := 0; i < b.N; i++ {
		areaF, freqF = fpga.ParallelFetchFactors(4)
	}
	b.ReportMetric(areaF, "area_factor")
	b.ReportMetric(freqF, "freq_factor")
	serial := fpga.Virtex4.MinorClockMHz / float64(sched.OrgOptimized.MinorCyclesPerMajor(4))
	parallel := fpga.ParallelMinorClockMHz(fpga.Virtex4, 4) / 4
	b.ReportMetric(parallel/serial/areaF, "perf_per_area_vs_serial")
}

// BenchmarkEngineTraceDriven measures the raw timing-engine speed over a
// pre-generated in-memory trace (no generation cost), the number that
// corresponds to "how fast is this software ReSim on the host".
func BenchmarkEngineTraceDriven(b *testing.B) {
	p, err := workload.ByName("gzip")
	if err != nil {
		b.Fatal(err)
	}
	cfg := core.DefaultConfig()
	tc := funcsim.TraceConfig{Predictor: cfg.Predictor, WrongPathLen: cfg.WrongPathLen()}
	src, err := p.NewSource(tc, benchInstrs)
	if err != nil {
		b.Fatal(err)
	}
	var recs []trace.Record
	for {
		r, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			b.Fatal(err)
		}
		recs = append(recs, r)
	}
	slice := trace.NewSliceSource(recs)
	b.ResetTimer()
	var committed uint64
	for i := 0; i < b.N; i++ {
		slice.Reset()
		eng, err := core.New(cfg, slice, funcsim.CodeBase)
		if err != nil {
			b.Fatal(err)
		}
		res, err := eng.Run()
		if err != nil {
			b.Fatal(err)
		}
		committed = res.Committed
	}
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(committed)*float64(b.N)/sec/1e6, "host_MIPS")
	}
}

// benchStreamEngine runs the engine over a synthesized record stream —
// the controlled stimulus for targeting one part of the cycle loop.
func benchStreamEngine(b *testing.B, cfg core.Config, sp workload.StreamProfile) {
	b.Helper()
	recs, err := sp.Records(benchInstrs)
	if err != nil {
		b.Fatal(err)
	}
	slice := trace.NewSliceSource(recs)
	b.ResetTimer()
	var committed uint64
	for i := 0; i < b.N; i++ {
		slice.Reset()
		eng, err := core.New(cfg, slice, 0x1000)
		if err != nil {
			b.Fatal(err)
		}
		res, err := eng.Run()
		if err != nil {
			b.Fatal(err)
		}
		committed = res.Committed
	}
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(committed)*float64(b.N)/sec/1e6, "host_MIPS")
	}
}

// BenchmarkEngineWakeHeavy stresses the wakeup/issue path: long register
// dependency chains (every instruction's operands come from the last few
// producers) keep most of the window waiting on broadcasts, so writeback
// wakeup and ready-queue maintenance dominate. Gated in CI.
func BenchmarkEngineWakeHeavy(b *testing.B) {
	sp := workload.DefaultStreamProfile(0xAE)
	sp.LoadFrac, sp.StoreFrac = 0.05, 0.03
	sp.BranchFrac = 0.02
	sp.MulFrac, sp.DivFrac = 0.10, 0.02
	sp.DepWindow = 2 // tight chains: low ILP, wakeup-bound
	benchStreamEngine(b, core.DefaultConfig(), sp)
}

// BenchmarkEngineMemHeavy stresses the LSQ path: two thirds of the stream
// are loads and stores over a small address range, exercising refresh,
// disambiguation, store-to-load forwarding and the LSQ handles. Gated in
// CI.
func BenchmarkEngineMemHeavy(b *testing.B) {
	sp := workload.DefaultStreamProfile(0x3E3)
	sp.LoadFrac, sp.StoreFrac = 0.45, 0.22
	sp.BranchFrac = 0.05
	sp.MemRange = 1 << 10 // dense aliasing: forwarding and partial overlaps
	benchStreamEngine(b, core.DefaultConfig(), sp)
}

// BenchmarkEngineMispredictHeavy stresses mis-speculation recovery: a
// quarter of the stream are branches, half of them mispredicted, so commit
// keeps squashing the instruction window and fetch keeps waiting out
// penalties. Gated in CI.
func BenchmarkEngineMispredictHeavy(b *testing.B) {
	sp := workload.DefaultStreamProfile(0x5B)
	sp.BranchFrac, sp.TakenProb, sp.MispredProb = 0.25, 0.7, 0.5
	benchStreamEngine(b, core.DefaultConfig(), sp)
}

// BenchmarkFunctionalSimulator measures the trace-generation substrate.
func BenchmarkFunctionalSimulator(b *testing.B) {
	p, err := workload.ByName("bzip2")
	if err != nil {
		b.Fatal(err)
	}
	prog, err := p.Build()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var n uint64
	for i := 0; i < b.N; i++ {
		m, err := funcsim.NewMachine(prog, 0)
		if err != nil {
			b.Fatal(err)
		}
		n, err = m.Run(benchInstrs)
		if err != nil {
			b.Fatal(err)
		}
	}
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(n)*float64(b.N)/sec/1e6, "host_MIPS")
	}
}

// codecRecords is the 10k-record vpr stream the trace codec benchmarks
// encode and decode.
func codecRecords(b *testing.B) []trace.Record {
	b.Helper()
	p, err := workload.ByName("vpr")
	if err != nil {
		b.Fatal(err)
	}
	src, err := p.NewSource(funcsim.TraceConfig{PerfectBP: true}, 10_000)
	if err != nil {
		b.Fatal(err)
	}
	var recs []trace.Record
	for {
		r, err := src.Next()
		if err == io.EOF {
			return recs
		}
		if err != nil {
			b.Fatal(err)
		}
		recs = append(recs, r)
	}
}

// BenchmarkTraceCodec measures raw container encode bandwidth.
func BenchmarkTraceCodec(b *testing.B) {
	recs := codecRecords(b)
	b.ResetTimer()
	var size int64
	for i := 0; i < b.N; i++ {
		var sink countingWriter
		w, err := trace.NewWriter(&sink, trace.Header{StartPC: funcsim.CodeBase}, false)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range recs {
			if err := w.Write(r); err != nil {
				b.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			b.Fatal(err)
		}
		size = sink.n
	}
	b.SetBytes(size)
}

// BenchmarkTraceDecode measures container decode bandwidth through
// trace.Open to the checked trailer, for the raw and the delta coder: the
// path every spill-tier load, Seed and trace-file run takes.
func BenchmarkTraceDecode(b *testing.B) {
	recs := codecRecords(b)
	for _, mode := range []struct {
		name     string
		compress bool
	}{{"raw", false}, {"delta", true}} {
		b.Run(mode.name, func(b *testing.B) {
			var buf bytes.Buffer
			w, err := trace.NewWriter(&buf, trace.Header{StartPC: funcsim.CodeBase}, mode.compress)
			if err != nil {
				b.Fatal(err)
			}
			for _, r := range recs {
				if err := w.Write(r); err != nil {
					b.Fatal(err)
				}
			}
			if err := w.Close(); err != nil {
				b.Fatal(err)
			}
			data := buf.Bytes()
			b.SetBytes(int64(len(data)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rd, err := trace.Open(bytes.NewReader(data))
				if err != nil {
					b.Fatal(err)
				}
				n := 0
				for {
					if _, err := rd.Next(); err == io.EOF {
						break
					} else if err != nil {
						b.Fatal(err)
					}
					n++
				}
				if n != len(recs) {
					b.Fatalf("decoded %d records, want %d", n, len(recs))
				}
			}
		})
	}
}

type countingWriter struct{ n int64 }

func (c *countingWriter) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return len(p), nil
}

// BenchmarkAblationPredictorSweep runs the direction-predictor design-space
// sweep (the exploration workload ReSim is built to accelerate) and reports
// the accuracy spread between the paper's 2-level configuration and perfect
// prediction.
func BenchmarkAblationPredictorSweep(b *testing.B) {
	var rows []tables.PredictorRow
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = tables.PredictorSweep(context.Background(), tables.Options{Instructions: 20_000}, "gzip")
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		switch r.Predictor {
		case "2lev (paper)":
			b.ReportMetric(r.MispredRate, "2lev_mispred_rate")
		case "perfect":
			b.ReportMetric(r.IPC, "perfect_IPC")
		}
	}
}

// BenchmarkAblationWrongPathLen runs the wrong-path block sizing sweep and
// reports the trace-volume cost of the paper's conservative RB+IFQ choice.
func BenchmarkAblationWrongPathLen(b *testing.B) {
	var rows []tables.WrongPathRow
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = tables.WrongPathSweep(context.Background(), tables.Options{Instructions: 20_000}, "parser")
		if err != nil {
			b.Fatal(err)
		}
	}
	if len(rows) >= 4 {
		b.ReportMetric(float64(rows[3].TotalBits)/float64(rows[0].TotalBits), "trace_growth_vs_no_wp")
		b.ReportMetric(float64(rows[3].StarvedCycles), "starved_cycles")
	}
}

// BenchmarkExtensionCompressedCodec measures the delta-coded trace writer
// and reports the compression ratio against the raw format.
func BenchmarkExtensionCompressedCodec(b *testing.B) {
	p, err := workload.ByName("vortex")
	if err != nil {
		b.Fatal(err)
	}
	cfg := core.DefaultConfig()
	src, err := p.NewSource(funcsim.TraceConfig{
		Predictor: cfg.Predictor, WrongPathLen: cfg.WrongPathLen(),
	}, 20_000)
	if err != nil {
		b.Fatal(err)
	}
	var recs []trace.Record
	var rawBits uint64
	for {
		r, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			b.Fatal(err)
		}
		rawBits += uint64(r.BitLen())
		recs = append(recs, r)
	}
	b.ResetTimer()
	var compBits uint64
	for i := 0; i < b.N; i++ {
		var sink countingWriter
		w, err := trace.NewWriter(&sink, trace.Header{}, true)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range recs {
			if err := w.Write(r); err != nil {
				b.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			b.Fatal(err)
		}
		compBits = w.BitsWritten()
	}
	b.ReportMetric(float64(rawBits)/float64(compBits), "compression_ratio")
	b.ReportMetric(float64(compBits)/float64(len(recs)), "comp_bits_per_instr")
}

// BenchmarkExtensionMulticore runs the lockstep two-core cluster (paper
// future work) and reports aggregate throughput.
func BenchmarkExtensionMulticore(b *testing.B) {
	cfg := resim.DefaultConfig()
	var res resim.MulticoreResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = mustSession(b, resim.WithConfig(cfg)).Multicore(context.Background(), resim.MulticoreOptions{
			Workloads: []string{"gzip", "bzip2"},
			Limit:     20_000,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.AggregateIPC(), "aggregate_IPC")
	b.ReportMetric(resim.AggregateMIPS(resim.Virtex5, cfg, res), "aggregate_V5_MIPS")
}

// BenchmarkMulticoreColdStart measures a first-ever cluster run: a fresh
// trace cache per iteration, so each iteration generates four traces and
// then steps the bench `multicore` machine (private 16 KiB L1 data caches
// over one shared 512 KiB L2) in lockstep. Gated in CI: it is the cold
// cluster path, trace generation fanned out over the cores included.
func BenchmarkMulticoreColdStart(b *testing.B) {
	opts := resim.MulticoreOptions{
		Workloads: []string{"gzip", "bzip2", "parser", "vpr"},
		Limit:     benchInstrs,
		L1: &resim.CacheConfig{Name: "dl1", SizeBytes: 16 << 10, Assoc: 4,
			BlockBytes: 64, HitLatency: 1, MissLatency: 20},
		SharedL2: &resim.CacheConfig{Name: "l2", SizeBytes: 512 << 10, Assoc: 8,
			BlockBytes: 64, HitLatency: 6, MissLatency: 40},
	}
	for i := 0; i < b.N; i++ {
		ses := mustSession(b, resim.WithTraceCache(resim.NewTraceCache(resim.TraceCacheConfig{})))
		if _, err := ses.Multicore(context.Background(), opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInOrderBaseline measures the scalar in-order comparison model.
func BenchmarkInOrderBaseline(b *testing.B) {
	p, err := workload.ByName("gzip")
	if err != nil {
		b.Fatal(err)
	}
	cfg := core.DefaultConfig()
	tc := funcsim.TraceConfig{Predictor: cfg.Predictor, WrongPathLen: cfg.WrongPathLen()}
	src, err := p.NewSource(tc, benchInstrs)
	if err != nil {
		b.Fatal(err)
	}
	var recs []trace.Record
	for {
		r, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			b.Fatal(err)
		}
		recs = append(recs, r)
	}
	slice := trace.NewSliceSource(recs)
	b.ResetTimer()
	var res baseline.InOrderResult
	for i := 0; i < b.N; i++ {
		slice.Reset()
		res, err = baseline.InOrder(baseline.DefaultInOrderConfig(), slice)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.IPC(), "IPC")
}

// --- sweep / trace-cache benchmarks ----------------------------------------

// benchSweepPoints is a 4-point engine-parameter grid (LSQ depth) whose
// points share one trace configuration — the common shape of a design-space
// sweep, and the case the trace cache amortizes to a single generation.
func benchSweepPoints() []resim.SweepPoint {
	return resim.SweepGrid("lsq", resim.DefaultConfig(), []int{4, 8, 16, 32},
		func(c *resim.Config, v int) { c.LSQSize = v })
}

// BenchmarkSweepUncached is the pre-cache behavior: every point regenerates
// the workload trace from the functional simulator.
func BenchmarkSweepUncached(b *testing.B) {
	ses, err := resim.New(resim.WithTraceCache(nil))
	if err != nil {
		b.Fatal(err)
	}
	pts := benchSweepPoints()
	for i := 0; i < b.N; i++ {
		res, err := ses.Sweep(context.Background(), "gzip", benchInstrs, pts)
		if err != nil {
			b.Fatal(err)
		}
		for _, pr := range res {
			if pr.Err != nil {
				b.Fatal(pr.Err)
			}
		}
	}
}

// BenchmarkSweepColdCache measures a first-ever sweep: a fresh cache per
// iteration, so each iteration pays one generation plus four replays.
func BenchmarkSweepColdCache(b *testing.B) {
	pts := benchSweepPoints()
	for i := 0; i < b.N; i++ {
		ses, err := resim.New(resim.WithTraceCache(resim.NewTraceCache(resim.TraceCacheConfig{})))
		if err != nil {
			b.Fatal(err)
		}
		res, err := ses.Sweep(context.Background(), "gzip", benchInstrs, pts)
		if err != nil {
			b.Fatal(err)
		}
		for _, pr := range res {
			if pr.Err != nil {
				b.Fatal(pr.Err)
			}
		}
	}
}

// BenchmarkSweepColdRBGrid measures a first-ever sweep over the
// benchmark's sweep_cold grid, RB{16,32,48,64} x LSQ{8,16,32,64} on gzip,
// with a fresh cache per iteration. RB sets the wrong-path length, so the
// grid is four trace keys of one family: each iteration generates the
// RB-64 trace, derives the other three from it, and simulates the points
// its LSQ ladders do not answer.
func BenchmarkSweepColdRBGrid(b *testing.B) {
	var pts []resim.SweepPoint
	for _, rb := range []int{16, 32, 48, 64} {
		base := resim.DefaultConfig()
		base.RBSize = rb
		pts = append(pts, resim.SweepGrid("rb="+strconv.Itoa(rb)+",lsq", base, []int{8, 16, 32, 64},
			func(c *resim.Config, v int) { c.LSQSize = v })...)
	}
	for i := 0; i < b.N; i++ {
		ses, err := resim.New(resim.WithTraceCache(resim.NewTraceCache(resim.TraceCacheConfig{})))
		if err != nil {
			b.Fatal(err)
		}
		res, err := ses.Sweep(context.Background(), "gzip", benchInstrs, pts)
		if err != nil {
			b.Fatal(err)
		}
		for _, pr := range res {
			if pr.Err != nil {
				b.Fatal(pr.Err)
			}
		}
	}
}

// BenchmarkSweepWarmCache measures the steady state of iterative design
// exploration: the trace is already cached and every point only replays.
func BenchmarkSweepWarmCache(b *testing.B) {
	ses, err := resim.New(resim.WithTraceCache(resim.NewTraceCache(resim.TraceCacheConfig{})))
	if err != nil {
		b.Fatal(err)
	}
	pts := benchSweepPoints()
	// Warm the cache outside the timed region.
	if _, err := ses.Sweep(context.Background(), "gzip", benchInstrs, pts[:1]); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := ses.Sweep(context.Background(), "gzip", benchInstrs, pts)
		if err != nil {
			b.Fatal(err)
		}
		for _, pr := range res {
			if pr.Err != nil {
				b.Fatal(pr.Err)
			}
		}
	}
}

// BenchmarkSweepRemoteLoopback measures a remote sweep end to end on
// localhost: Session.SweepRemote submits the standard 4-point sweep to the
// job service over HTTP, which schedules it onto a coordinator's two TCP
// workers and streams the results back. The workers share one warm trace
// cache (the job service picks workers by load, so per-worker caches would
// leave cold generation noise in the timed region). The delta against
// BenchmarkSweepWarmCache is the full service overhead — HTTP, admission
// and scheduling, framing, JSON and result streaming. Gated in CI against
// the same benchmark at the parent commit (cmd/benchguard).
func BenchmarkSweepRemoteLoopback(b *testing.B) {
	traces := tracecache.New(tracecache.Config{})
	server := startClusterWith(b, []*tracecache.Cache{traces, traces})
	ses, err := resim.New()
	if err != nil {
		b.Fatal(err)
	}
	pts := benchSweepPoints()
	// Warm the shared cache outside the timed region, like the local
	// warm-cache benchmark.
	if _, err := ses.SweepRemote(context.Background(), server, "gzip", benchInstrs, pts); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := ses.SweepRemote(context.Background(), server, "gzip", benchInstrs, pts)
		if err != nil {
			b.Fatal(err)
		}
		for _, pr := range res {
			if pr.Err != nil {
				b.Fatal(pr.Err)
			}
		}
	}
}

// BenchmarkJobSubmitThroughput measures the multi-tenant job platform end
// to end through its HTTP front door: two tenants alternate submitting
// single-point jobs against a loopback worker pool and stream each job to
// completion. The delta against BenchmarkSweepWarmCache's per-point cost is
// the platform overhead — admission, journal-free queueing, fair
// scheduling, JSON framing and the NDJSON result stream. Gated in CI
// against the same benchmark at the parent commit (cmd/benchguard).
func BenchmarkJobSubmitThroughput(b *testing.B) {
	// One shared cache: worker pick is load-based, so a per-worker cache
	// would leave cold generation noise in the timed region.
	traces := tracecache.New(tracecache.Config{})
	pool := jobd.StaticPool{
		sweepd.NewLoopbackWorker(sweepd.LoopbackOptions{Traces: traces}),
		sweepd.NewLoopbackWorker(sweepd.LoopbackOptions{Traces: traces}),
	}
	p, err := jobd.New(jobd.Options{Pool: pool, Tenants: []jobd.Tenant{
		{Name: "alice", Token: "tok-a"},
		{Name: "bob", Token: "tok-b"},
	}})
	if err != nil {
		b.Fatal(err)
	}
	defer p.Close()
	srv := httptest.NewServer(p.Handler())
	defer srv.Close()
	clients := [2]*jobd.Client{
		{Server: srv.URL, Token: "tok-a", HTTPClient: srv.Client()},
		{Server: srv.URL, Token: "tok-b", HTTPClient: srv.Client()},
	}
	spec, err := sweepd.SpecOf(resim.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	req := jobd.SubmitRequest{Workload: "gzip", Instructions: benchInstrs,
		Points: []sweepd.WirePoint{{Name: "base", Config: spec}}}
	ctx := context.Background()
	runOne := func(c *jobd.Client) {
		st, err := c.Submit(ctx, req)
		if err != nil {
			b.Fatal(err)
		}
		state, err := c.Results(ctx, st.ID, nil)
		if err != nil {
			b.Fatal(err)
		}
		if state != jobd.StateDone {
			b.Fatalf("job %s ended %s", st.ID, state)
		}
	}
	// Warm both workers' trace caches outside the timed region, like the
	// other service benchmarks.
	runOne(clients[0])
	runOne(clients[1])
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runOne(clients[i%2])
	}
}

// BenchmarkCheckpointOverhead measures the engine running with periodic
// state serialization (every 8192 cycles, a far tighter cadence than the
// 65536-cycle default) against BenchmarkEngineTraceDriven's plain run — the
// delta is the full checkpoint cost: capture of every subsystem plus the
// versioned JSON encoding. Reported metrics: checkpoints taken per run and
// encoded bytes per checkpoint.
func BenchmarkCheckpointOverhead(b *testing.B) {
	p, err := workload.ByName("gzip")
	if err != nil {
		b.Fatal(err)
	}
	cfg := core.DefaultConfig()
	tc := funcsim.TraceConfig{Predictor: cfg.Predictor, WrongPathLen: cfg.WrongPathLen()}
	src, err := p.NewSource(tc, benchInstrs)
	if err != nil {
		b.Fatal(err)
	}
	var recs []trace.Record
	for {
		r, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			b.Fatal(err)
		}
		recs = append(recs, r)
	}
	slice := trace.NewSliceSource(recs)
	var ckpts, size int
	hooks := core.Hooks{CheckpointEvery: 8192, Checkpoint: func(cp *core.Checkpoint) error {
		data, err := cp.Encode()
		if err != nil {
			return err
		}
		ckpts++
		size += len(data)
		return nil
	}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ckpts, size = 0, 0
		slice.Reset()
		eng, err := core.New(cfg, slice, funcsim.CodeBase)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := eng.RunHooks(context.Background(), hooks); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(ckpts), "checkpoints")
	if ckpts > 0 {
		b.ReportMetric(float64(size)/float64(ckpts), "bytes_per_ckpt")
	}
}

// BenchmarkTraceGeneration isolates the cost the cache saves: one full
// trace materialization through the functional simulator.
func BenchmarkTraceGeneration(b *testing.B) {
	p, err := workload.ByName("gzip")
	if err != nil {
		b.Fatal(err)
	}
	tc := resim.DefaultConfig().TraceConfig()
	for i := 0; i < b.N; i++ {
		c := resim.NewTraceCache(resim.TraceCacheConfig{})
		tr, err := c.Get(context.Background(), p, tc, benchInstrs)
		if err != nil {
			b.Fatal(err)
		}
		if tr.Records() == 0 {
			b.Fatal("empty trace")
		}
	}
}
