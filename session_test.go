package resim_test

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	resim "repro"
)

func TestSessionOptionComposition(t *testing.T) {
	ses, err := resim.New(
		resim.WithWidth(2),
		resim.WithIFQSize(2),
		resim.WithRBSize(32),
		resim.WithLSQSize(16),
		resim.WithOrganization(resim.OrgImproved),
		resim.WithPerfectBP(),
		resim.WithPenalties(2, 5),
		resim.WithMaxCycles(123),
	)
	if err != nil {
		t.Fatal(err)
	}
	cfg := ses.Config()
	if cfg.Width != 2 || cfg.IFQSize != 2 || cfg.RBSize != 32 || cfg.LSQSize != 16 {
		t.Errorf("structure options not applied: %+v", cfg)
	}
	if cfg.Organization != resim.OrgImproved || !cfg.PerfectBP {
		t.Errorf("organization/predictor options not applied")
	}
	if cfg.MisfetchPenalty != 2 || cfg.MispredPenalty != 5 || cfg.MaxCycles != 123 {
		t.Errorf("penalty/cycle options not applied")
	}

	// Later options override earlier ones.
	ses, err = resim.New(resim.WithWidth(8), resim.WithWidth(4))
	if err != nil {
		t.Fatal(err)
	}
	if ses.Config().Width != 4 {
		t.Errorf("width = %d, want last option to win", ses.Config().Width)
	}

	// ... including across the two cache option families: a later WithDCache
	// replaces the WithL1Caches data side but keeps its instruction side.
	custom, err := resim.NewL1Cache(resim.CacheConfig{
		Name: "custom", SizeBytes: 1 << 10, Assoc: 1, BlockBytes: 32,
		HitLatency: 1, MissLatency: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	ses, err = resim.New(
		resim.WithL1Caches(resim.CacheConfig{
			SizeBytes: 8 << 10, Assoc: 2, BlockBytes: 64, HitLatency: 1, MissLatency: 20,
		}),
		resim.WithDCache(custom),
	)
	if err != nil {
		t.Fatal(err)
	}
	got := ses.Config()
	if got.DCache != resim.CacheModel(custom) {
		t.Error("later WithDCache did not override WithL1Caches")
	}
	if got.ICache == nil {
		t.Error("WithL1Caches instruction side lost after WithDCache")
	}
	// And WithConfig wipes earlier cache geometry entirely.
	ses, err = resim.New(
		resim.WithL1Caches(resim.CacheConfig{
			SizeBytes: 8 << 10, Assoc: 2, BlockBytes: 64, HitLatency: 1, MissLatency: 20,
		}),
		resim.WithConfig(resim.DefaultConfig()),
	)
	if err != nil {
		t.Fatal(err)
	}
	if cfg := ses.Config(); cfg.ICache != nil || cfg.DCache != nil {
		t.Error("WithConfig did not clear earlier WithL1Caches geometry")
	}
}

func TestSessionAutoClampsReadPorts(t *testing.T) {
	// The default configuration has 2 read ports; under the Optimized
	// organization a 2-wide machine allows only N-1 = 1. Without an explicit
	// port option New clamps instead of failing.
	ses, err := resim.New(resim.WithWidth(2))
	if err != nil {
		t.Fatal(err)
	}
	if got := ses.Config().MemReadPorts; got != 1 {
		t.Errorf("MemReadPorts = %d, want clamped to 1", got)
	}
	// An explicit choice is validated, not clamped.
	if _, err := resim.New(resim.WithWidth(2), resim.WithMemoryPorts(2, 1)); err == nil {
		t.Error("explicit illegal port count accepted")
	}
}

func TestSessionValidationErrors(t *testing.T) {
	cases := []struct {
		name string
		opts []resim.Option
	}{
		{"zero width", []resim.Option{resim.WithWidth(0)}},
		{"huge width", []resim.Option{resim.WithWidth(64)}},
		{"bad cache geometry", []resim.Option{resim.WithL1Caches(resim.CacheConfig{SizeBytes: 100})}},
		{"zero RB", []resim.Option{resim.WithRBSize(0)}},
		{"negative penalty", []resim.Option{resim.WithPenalties(-1, 3)}},
	}
	for _, tc := range cases {
		if _, err := resim.New(tc.opts...); err == nil {
			t.Errorf("%s: New accepted an invalid configuration", tc.name)
		}
	}
}

func TestSessionL1CachesOption(t *testing.T) {
	ses, err := resim.New(resim.WithL1Caches(resim.CacheConfig{
		SizeBytes: 8 << 10, Assoc: 2, BlockBytes: 64, HitLatency: 1, MissLatency: 20,
	}))
	if err != nil {
		t.Fatal(err)
	}
	res, err := ses.RunWorkload(context.Background(), "parser", 20_000)
	if err != nil {
		t.Fatal(err)
	}
	if res.ICache.Accesses() == 0 || res.DCache.Accesses() == 0 {
		t.Error("session caches saw no traffic")
	}
}

// TestSessionCachedRunsAreIndependent pins the WithL1Caches contract: every
// run gets fresh cache instances, so repeated and concurrent runs are
// deterministic and race-free (run with -race to check the latter).
func TestSessionCachedRunsAreIndependent(t *testing.T) {
	ses, err := resim.New(resim.WithL1Caches(resim.CacheConfig{
		SizeBytes: 4 << 10, Assoc: 2, BlockBytes: 64, HitLatency: 1, MissLatency: 20,
	}))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	first, err := ses.RunWorkload(ctx, "gzip", 15_000)
	if err != nil {
		t.Fatal(err)
	}
	second, err := ses.RunWorkload(ctx, "gzip", 15_000)
	if err != nil {
		t.Fatal(err)
	}
	if first.Counters != second.Counters ||
		first.DCache.Misses() != second.DCache.Misses() {
		t.Error("second run saw state warmed by the first (caches shared across runs)")
	}

	results := make(chan resim.Result, 2)
	for i := 0; i < 2; i++ {
		go func() {
			res, err := ses.RunWorkload(ctx, "gzip", 15_000)
			if err != nil {
				t.Error(err)
			}
			results <- res
		}()
	}
	a, b := <-results, <-results
	if a.Counters != b.Counters {
		t.Error("concurrent runs diverged (shared engine state)")
	}
}

// TestSweepWithSharedBaseCachesIsDeterministic pins the per-point cache
// isolation: SweepGrid copies one Config (and thus one cache-model pair)
// into every point, and parallel workers must not share that state. Run
// with -race to check the data-race half; the counter comparison catches
// cross-point warming either way.
func TestSweepWithSharedBaseCachesIsDeterministic(t *testing.T) {
	ses, err := resim.New(resim.WithL1Caches(resim.CacheConfig{
		SizeBytes: 4 << 10, Assoc: 2, BlockBytes: 64, HitLatency: 1, MissLatency: 20,
	}))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	run := func() []resim.SweepResult {
		points := resim.SweepGrid("rb", ses.Config(), []int{8, 16, 32}, func(c *resim.Config, v int) {
			c.RBSize = v
		})
		res, err := ses.Sweep(ctx, "gzip", 10_000, points)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	for i := range a {
		if a[i].Err != nil || b[i].Err != nil {
			t.Fatalf("point %d errs: %v / %v", i, a[i].Err, b[i].Err)
		}
		if a[i].Res.Counters != b[i].Res.Counters ||
			a[i].Res.DCache.Misses() != b[i].Res.DCache.Misses() {
			t.Errorf("point %s not deterministic across sweeps (shared cache state)", a[i].Name)
		}
	}
}

func TestNilContextRunsLikeBackground(t *testing.T) {
	ses, err := resim.New()
	if err != nil {
		t.Fatal(err)
	}
	res, err := ses.RunWorkload(nil, "gzip", 5_000) //nolint:staticcheck // nil ctx tolerated by contract
	if err != nil {
		t.Fatal(err)
	}
	if res.Committed == 0 {
		t.Error("nil-context run produced no result")
	}
}

func TestRunWorkloadCancellation(t *testing.T) {
	ses, err := resim.New()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ses.RunWorkload(ctx, "gzip", 5_000_000); !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

func TestRunWorkloadCancellationMidRun(t *testing.T) {
	// The observer must receive a terminal non-Final snapshot on the
	// cancellation path — the callback that stops sweepd clients and
	// dashboards from hanging on the last interval. The first callback
	// cancels the run, so the cancel provably lands mid-run and not before
	// the engine starts.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var mu sync.Mutex
	var last resim.Progress
	var calls, afterCancel, finals int
	ses, err := resim.New(resim.WithObserver(resim.ObserverFunc(func(p resim.Progress) {
		mu.Lock()
		defer mu.Unlock()
		if calls > 0 {
			afterCancel++
		}
		calls++
		last = p
		if p.Final {
			finals++
		}
		cancel()
	}), 1024))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	var res resim.Result
	go func() {
		// Effectively unbounded budget; only cancellation stops it promptly.
		var err error
		res, err = ses.RunWorkload(ctx, "gzip", 1<<62)
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("err = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run did not stop after cancellation")
	}
	mu.Lock()
	defer mu.Unlock()
	if calls == 0 {
		t.Fatal("cancelled run delivered no observer callbacks")
	}
	if afterCancel == 0 {
		t.Fatal("no observer callback arrived after the cancel")
	}
	if finals != 0 {
		t.Errorf("cancelled run delivered %d Final callbacks, want 0", finals)
	}
	if last.Final || last.Cycles != res.Cycles {
		t.Errorf("terminal snapshot = %+v, want non-Final at the returned %d cycles", last, res.Cycles)
	}
}

func TestWriteTraceCancellation(t *testing.T) {
	ses, err := resim.New()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ses.WriteTrace(ctx, discard{}, "gzip", 5_000_000, false); !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

// TestSweepCancellationNoLeaks proves an in-flight sweep aborts via the
// context without leaking worker goroutines (issue acceptance criterion).
func TestSweepCancellationNoLeaks(t *testing.T) {
	before := runtime.NumGoroutine()

	ses, err := resim.New()
	if err != nil {
		t.Fatal(err)
	}
	base := ses.Config()
	points := resim.SweepGrid("rb", base, []int{4, 8, 12, 16, 24, 32, 48, 64}, func(c *resim.Config, v int) {
		c.RBSize = v
	})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := ses.Sweep(ctx, "gzip", 1<<62, points)
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("err = %v, want context.Canceled", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("sweep did not stop after cancellation")
	}

	// Workers must all have drained; give the runtime a moment to reap.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+1 {
			return
		}
		runtime.Gosched()
		time.Sleep(20 * time.Millisecond)
	}
	t.Errorf("goroutines: before %d, after %d (leak)", before, runtime.NumGoroutine())
}

func TestMulticoreCancellation(t *testing.T) {
	ses, err := resim.New()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = ses.Multicore(ctx, resim.MulticoreOptions{
		Workloads: []string{"gzip", "vpr"}, Limit: 5_000_000,
	})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

func TestObserverDelivery(t *testing.T) {
	var (
		calls     int
		lastCycle uint64
		finals    int
	)
	ses, err := resim.New(resim.WithObserver(resim.ObserverFunc(func(p resim.Progress) {
		calls++
		if p.Cycles < lastCycle {
			t.Errorf("cycles went backwards: %d after %d", p.Cycles, lastCycle)
		}
		lastCycle = p.Cycles
		if p.Final {
			finals++
		}
	}), 1024))
	if err != nil {
		t.Fatal(err)
	}
	res, err := ses.RunWorkload(context.Background(), "gzip", 30_000)
	if err != nil {
		t.Fatal(err)
	}
	if calls < 2 {
		t.Errorf("observer called %d times over %d cycles (interval 1024)", calls, res.Cycles)
	}
	if finals != 1 {
		t.Errorf("final callbacks = %d, want exactly 1", finals)
	}
	if lastCycle != res.Cycles {
		t.Errorf("final callback at cycle %d, result has %d", lastCycle, res.Cycles)
	}
}

func TestSweepObserverPerPoint(t *testing.T) {
	var calls, finals atomic.Int64
	ses, err := resim.New(resim.WithObserver(resim.ObserverFunc(func(p resim.Progress) {
		calls.Add(1)
		if p.Final {
			finals.Add(1)
		}
		if p.Core < 0 || p.Core > 2 {
			t.Errorf("point index %d out of range", p.Core)
		}
	}), 0))
	if err != nil {
		t.Fatal(err)
	}
	points := resim.SweepGrid("rb", ses.Config(), []int{8, 16, 32}, func(c *resim.Config, v int) {
		c.RBSize = v
	})
	if _, err := ses.Sweep(context.Background(), "gzip", 8_000, points); err != nil {
		t.Fatal(err)
	}
	if got := calls.Load(); got != 3 {
		t.Errorf("observer calls = %d, want one per point", got)
	}
	if got := finals.Load(); got != 1 {
		t.Errorf("final callbacks = %d, want exactly 1", got)
	}
}

func TestMulticoreHonorsMaxCycles(t *testing.T) {
	ses, err := resim.New(resim.WithMaxCycles(50))
	if err != nil {
		t.Fatal(err)
	}
	res, err := ses.Multicore(context.Background(), resim.MulticoreOptions{
		Workloads: []string{"gzip", "vpr"}, Limit: 100_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles != 50 {
		t.Errorf("cluster ran %d lockstep cycles, want the WithMaxCycles bound of 50", res.Cycles)
	}
}

func TestMulticoreObserverAggregates(t *testing.T) {
	var finals int
	var lastCommitted uint64
	ses, err := resim.New(resim.WithObserver(resim.ObserverFunc(func(p resim.Progress) {
		if p.Core != -1 {
			t.Errorf("cluster progress Core = %d, want -1", p.Core)
		}
		lastCommitted = p.Committed
		if p.Final {
			finals++
		}
	}), 2048))
	if err != nil {
		t.Fatal(err)
	}
	res, err := ses.Multicore(context.Background(), resim.MulticoreOptions{
		Workloads: []string{"gzip", "vpr"}, Limit: 10_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	var committed uint64
	for _, pc := range res.PerCore {
		committed += pc.Committed
	}
	if finals != 1 {
		t.Errorf("final callbacks = %d, want exactly 1", finals)
	}
	if lastCommitted != committed {
		t.Errorf("final aggregate committed %d, cluster total %d", lastCommitted, committed)
	}
}

// TestSessionTraceRoundTrip drives the WriteTrace -> RunTrace pair through
// the Session and checks it matches the on-the-fly run, mirroring the
// legacy free-function test at the Session layer.
func TestSessionTraceRoundTrip(t *testing.T) {
	ses, err := resim.New()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	path := filepath.Join(t.TempDir(), "vpr.trace")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ses.WriteTrace(ctx, f, "vpr", 15_000, true); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	offline, err := ses.RunTrace(ctx, path)
	if err != nil {
		t.Fatal(err)
	}
	online, err := ses.RunWorkload(ctx, "vpr", 15_000)
	if err != nil {
		t.Fatal(err)
	}
	if offline.Counters != online.Counters {
		t.Error("offline trace run differs from on-the-fly run")
	}
}

// --- checkpoint / resume ----------------------------------------------------

// TestCheckpointKillResumeByteIdentical is the issue's acceptance
// criterion at the public API: a run checkpointed at an interval boundary
// and killed (via ctx, as a process death would) resumes through ResumeFrom
// to final statistics byte-identical to the uninterrupted run — rendered
// registry report included.
func TestCheckpointKillResumeByteIdentical(t *testing.T) {
	const workload = "gzip"
	const instrs = 120_000

	ses, err := resim.New()
	if err != nil {
		t.Fatal(err)
	}
	want, err := ses.RunWorkload(context.Background(), workload, instrs)
	if err != nil {
		t.Fatal(err)
	}

	// Checkpointed run, killed right after the third checkpoint lands.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var mu sync.Mutex
	var latest *resim.Checkpoint
	var captured int
	killed, err := resim.New(resim.WithCheckpointEvery(8192, func(cp *resim.Checkpoint) error {
		mu.Lock()
		defer mu.Unlock()
		latest = cp
		if captured++; captured == 3 {
			cancel()
		}
		return nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := killed.RunWorkload(ctx, workload, instrs); !errors.Is(err, context.Canceled) {
		t.Fatalf("killed run err = %v, want context.Canceled", err)
	}
	mu.Lock()
	cp := latest
	mu.Unlock()
	if cp == nil {
		t.Fatal("sink never received a checkpoint")
	}
	if cp.Cycles() != 3*8192 {
		t.Fatalf("latest checkpoint at cycle %d, want the 3rd 8192 boundary", cp.Cycles())
	}

	resumed, err := resim.New(resim.ResumeFrom(cp))
	if err != nil {
		t.Fatal(err)
	}
	got, err := resumed.RunWorkload(context.Background(), workload, instrs)
	if err != nil {
		t.Fatal(err)
	}
	if got.Counters != want.Counters || got.ICache != want.ICache || got.DCache != want.DCache {
		t.Errorf("resumed run counters differ from the uninterrupted run")
	}
	if a, b := got.Registry().String(), want.Registry().String(); a != b {
		t.Errorf("resumed statistics report not byte-identical:\n--- resumed\n%s\n--- uninterrupted\n%s", a, b)
	}

	// Resuming against a different input must fail loudly, never produce a
	// plausible wrong report: different workload, and different budget.
	if _, err := resumed.RunWorkload(context.Background(), "parser", instrs); err == nil {
		t.Error("gzip checkpoint resumed against the parser workload")
	}
	if _, err := resumed.RunWorkload(context.Background(), workload, instrs/2); err == nil {
		t.Error("checkpoint resumed against a different instruction budget")
	}
}

// TestCheckpointResumeTraceFile: the same property over a trace container
// (RunTrace re-attaches the file reader at the checkpointed record).
func TestCheckpointResumeTraceFile(t *testing.T) {
	ses, err := resim.New()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	path := filepath.Join(t.TempDir(), "parser.trace")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ses.WriteTrace(ctx, f, "parser", 60_000, true); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	want, err := ses.RunTrace(ctx, path)
	if err != nil {
		t.Fatal(err)
	}

	kctx, cancel := context.WithCancel(ctx)
	defer cancel()
	ckptPath := filepath.Join(t.TempDir(), "parser.ckpt")
	killed, err := resim.New(resim.WithCheckpointEvery(16384, func(cp *resim.Checkpoint) error {
		if err := resim.SaveCheckpoint(ckptPath, cp); err != nil {
			return err
		}
		cancel() // die after the first saved checkpoint
		return nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := killed.RunTrace(kctx, path); !errors.Is(err, context.Canceled) {
		t.Fatalf("killed run err = %v, want context.Canceled", err)
	}
	cp, err := resim.LoadCheckpoint(ckptPath)
	if err != nil {
		t.Fatal(err)
	}
	if cp.Cycles() == 0 {
		t.Fatal("checkpoint at cycle 0")
	}
	resumed, err := resim.New(resim.ResumeFrom(cp))
	if err != nil {
		t.Fatal(err)
	}
	got, err := resumed.RunTrace(ctx, path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Counters != want.Counters {
		t.Error("trace-file resume differs from the uninterrupted run")
	}
	if a, b := got.Registry().String(), want.Registry().String(); a != b {
		t.Error("trace-file resume statistics report not byte-identical")
	}
}

// TestSessionSweepWithCheckpointingMatchesPlain: a checkpointing session's
// sweeps (whose loopback workers capture and ship per-point checkpoints to
// the scheduler) return results identical to a plain session's — capture is
// invisible in the output. The actual worker-death resume is exercised at
// the scheduler level in internal/sweepd.
func TestSessionSweepWithCheckpointingMatchesPlain(t *testing.T) {
	ses, err := resim.New(resim.WithCheckpointEvery(4096, func(*resim.Checkpoint) error { return nil }))
	if err != nil {
		t.Fatal(err)
	}
	plain, err := resim.New()
	if err != nil {
		t.Fatal(err)
	}
	points := resim.SweepGrid("rb", plain.Config(), []int{8, 16}, func(c *resim.Config, v int) {
		c.RBSize = v
	})
	ctx := context.Background()
	want, err := plain.Sweep(ctx, "gzip", 60_000, points)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ses.Sweep(ctx, "gzip", 60_000, points)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if want[i].Err != nil || got[i].Err != nil {
			t.Fatalf("point %d errs: %v / %v", i, want[i].Err, got[i].Err)
		}
		if want[i].Res.Counters != got[i].Res.Counters {
			t.Errorf("point %s: checkpointing sweep differs from plain sweep", want[i].Name)
		}
	}
}

// --- trace cache integration -----------------------------------------------

// TestRunWorkloadCacheGeneratesOnce: repeated runs through one session share
// a single generated trace and produce identical results.
func TestRunWorkloadCacheGeneratesOnce(t *testing.T) {
	priv := resim.NewTraceCache(resim.TraceCacheConfig{})
	ses, err := resim.New(resim.WithTraceCache(priv))
	if err != nil {
		t.Fatal(err)
	}
	a, err := ses.RunWorkload(context.Background(), "gzip", 9000)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ses.RunWorkload(context.Background(), "gzip", 9000)
	if err != nil {
		t.Fatal(err)
	}
	if priv.Generations() != 1 {
		t.Errorf("generations = %d, want 1", priv.Generations())
	}
	if a.Counters != b.Counters {
		t.Error("repeated cached runs disagree")
	}
}

// TestRunWorkloadCachedMatchesUncached: the cache must be invisible in the
// result — WithTraceCache(nil) disables it and every counter still matches.
func TestRunWorkloadCachedMatchesUncached(t *testing.T) {
	cached, err := resim.New(resim.WithTraceCache(resim.NewTraceCache(resim.TraceCacheConfig{})))
	if err != nil {
		t.Fatal(err)
	}
	plain, err := resim.New(resim.WithTraceCache(nil))
	if err != nil {
		t.Fatal(err)
	}
	a, err := cached.RunWorkload(context.Background(), "parser", 9000)
	if err != nil {
		t.Fatal(err)
	}
	b, err := plain.RunWorkload(context.Background(), "parser", 9000)
	if err != nil {
		t.Fatal(err)
	}
	if a.Counters != b.Counters {
		t.Error("cached run differs from uncached run")
	}
}

// TestMulticoreHomogeneousSharesTrace: a homogeneous cluster generates its
// workload trace once and each core replays a private snapshot.
func TestMulticoreHomogeneousSharesTrace(t *testing.T) {
	priv := resim.NewTraceCache(resim.TraceCacheConfig{})
	ses, err := resim.New(resim.WithTraceCache(priv))
	if err != nil {
		t.Fatal(err)
	}
	opts := resim.MulticoreOptions{Workloads: []string{"gzip", "gzip", "gzip"}, Limit: 6000}
	res, err := ses.Multicore(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if priv.Generations() != 1 {
		t.Errorf("generations = %d, want 1 for a homogeneous cluster", priv.Generations())
	}
	if len(res.PerCore) != 3 {
		t.Fatalf("cores = %d", len(res.PerCore))
	}
	// Identical cores over identical snapshots behave identically.
	for i := 1; i < len(res.PerCore); i++ {
		if res.PerCore[i].Counters != res.PerCore[0].Counters {
			t.Errorf("core %d diverged from core 0", i)
		}
	}
	// And the cached cluster matches an uncached one.
	plain, err := resim.New(resim.WithTraceCache(nil))
	if err != nil {
		t.Fatal(err)
	}
	res2, err := plain.Multicore(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.PerCore {
		if res.PerCore[i].Counters != res2.PerCore[i].Counters {
			t.Errorf("core %d: cached cluster differs from uncached", i)
		}
	}
}

// TestWriteTraceCachedBytesIdentical: trace files written through the cache
// are byte-for-byte what the streaming path writes, and writing the same
// workload in both container formats costs one generation.
func TestWriteTraceCachedBytesIdentical(t *testing.T) {
	priv := resim.NewTraceCache(resim.TraceCacheConfig{})
	cached, err := resim.New(resim.WithTraceCache(priv))
	if err != nil {
		t.Fatal(err)
	}
	plain, err := resim.New(resim.WithTraceCache(nil))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, compress := range []bool{false, true} {
		var a, b bytes.Buffer
		sa, err := cached.WriteTrace(ctx, &a, "vpr", 5000, compress)
		if err != nil {
			t.Fatal(err)
		}
		sb, err := plain.WriteTrace(ctx, &b, "vpr", 5000, compress)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Errorf("compress=%t: cached container differs from streamed", compress)
		}
		if sa != sb {
			t.Errorf("compress=%t: stats differ: %+v vs %+v", compress, sa, sb)
		}
	}
	if priv.Generations() != 1 {
		t.Errorf("generations = %d, want 1 across raw+compressed writes", priv.Generations())
	}
}

// TestSweepThroughSessionSharesCache: the session's cache carries across
// separate Sweep calls, and a sweep over engine-only knobs generates once.
func TestSweepThroughSessionSharesCache(t *testing.T) {
	priv := resim.NewTraceCache(resim.TraceCacheConfig{})
	ses, err := resim.New(resim.WithTraceCache(priv))
	if err != nil {
		t.Fatal(err)
	}
	pts := resim.SweepGrid("lsq", resim.DefaultConfig(), []int{4, 8, 16, 32}, func(c *resim.Config, v int) {
		c.LSQSize = v
	})
	ctx := context.Background()
	res, err := ses.Sweep(ctx, "gzip", 7000, pts)
	if err != nil {
		t.Fatal(err)
	}
	for _, pr := range res {
		if pr.Err != nil {
			t.Fatalf("%s: %v", pr.Name, pr.Err)
		}
	}
	if priv.Generations() != 1 {
		t.Errorf("generations = %d, want 1 after first sweep", priv.Generations())
	}
	if _, err := ses.Sweep(ctx, "gzip", 7000, pts[:2]); err != nil {
		t.Fatal(err)
	}
	if priv.Generations() != 1 {
		t.Errorf("generations = %d, want still 1 after second sweep", priv.Generations())
	}
}
