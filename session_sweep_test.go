package resim_test

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"

	resim "repro"
)

// telemetryLog collects streamed snapshots; sweeps deliver them
// concurrently across points.
type telemetryLog struct {
	mu    sync.Mutex
	snaps []resim.IntervalSnapshot
}

func (l *telemetryLog) sink(s resim.IntervalSnapshot) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.snaps = append(l.snaps, s)
	return nil
}

// sumsTo reports whether the given snapshots, folded with Accumulate,
// reproduce res's counters, cache statistics and occupancies exactly.
func sumsTo(snaps []resim.IntervalSnapshot, res resim.Result) bool {
	var sum resim.Result
	for _, s := range snaps {
		s.Accumulate(&sum)
	}
	return sum.Counters == res.Counters && sum.ICache == res.ICache && sum.DCache == res.DCache &&
		sum.IFQ == res.IFQ && sum.RB == res.RB && sum.LSQ == res.LSQ
}

// TestSweepTelemetrySumsToResults: a telemetry session's sweep over two
// trace-key groups tags every snapshot with its point's index, and each
// point's snapshots sum to that point's returned result.
func TestSweepTelemetrySumsToResults(t *testing.T) {
	var log telemetryLog
	ses := mustSession(t, resim.WithTelemetry(log.sink, 4096),
		resim.WithTraceCache(resim.NewTraceCache(resim.TraceCacheConfig{})))
	// RBSize feeds the wrong-path block length, so it splits the trace
	// key; LSQSize does not, so each key-group holds two points.
	var points []resim.SweepPoint
	for _, rb := range []int{8, 16} {
		base := ses.Config()
		base.RBSize = rb
		points = append(points, resim.SweepGrid("lsq", base, []int{8, 16}, func(c *resim.Config, v int) {
			c.LSQSize = v
		})...)
	}
	res, err := ses.Sweep(context.Background(), "gzip", 30_000, points)
	if err != nil {
		t.Fatal(err)
	}
	byPoint := make([][]resim.IntervalSnapshot, len(points))
	for _, s := range log.snaps {
		if s.Core < 0 || s.Core >= len(points) {
			t.Fatalf("snapshot Core = %d, want a point index in [0,%d)", s.Core, len(points))
		}
		byPoint[s.Core] = append(byPoint[s.Core], s)
	}
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("point %d: %v", i, r.Err)
		}
		if len(byPoint[i]) == 0 {
			t.Errorf("point %d streamed no snapshots", i)
			continue
		}
		if !sumsTo(byPoint[i], r.Res) {
			t.Errorf("point %d (%s): snapshots do not sum to its result", i, r.Name)
		}
	}
}

// TestRunWorkloadTelemetrySumsToResult: a single-engine run streams
// snapshots tagged Core 0 that sum to the returned result.
func TestRunWorkloadTelemetrySumsToResult(t *testing.T) {
	var log telemetryLog
	res, err := mustSession(t, resim.WithTelemetry(log.sink, 4096)).RunWorkload(context.Background(), "gzip", 30_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(log.snaps) == 0 {
		t.Fatal("run streamed no snapshots")
	}
	for _, s := range log.snaps {
		if s.Core != 0 {
			t.Fatalf("snapshot Core = %d, want 0", s.Core)
		}
	}
	if !sumsTo(log.snaps, res) {
		t.Error("snapshots do not sum to the result")
	}
}

// TestSweepLadderTelemetry: with eight host threads a single-ladder sweep
// still runs one rung at a time, so every rep simulates exactly the rungs
// a serial sweep does — up to the first whose LSQ never filled — and
// answers the rest. Each point's results equal a serial sweep's, and its
// windows — its own run's or its source's — carry its own index and LSQ
// capacity, number from 0, end Final and sum to its result. Cancelling the
// sweep mid-ladder returns ctx.Err() without leaking goroutines.
func TestSweepLadderTelemetry(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	base := resim.DefaultConfig()
	points := resim.SweepGrid("lsq", base, []int{2, 4, 8, 16, 24, 32, 40, 48, 56, 64, 72, 80, 88, 96, 112, 128},
		func(c *resim.Config, v int) { c.LSQSize = v })
	ctx := context.Background()
	want, err := mustSession(t).Sweep(ctx, "gzip", 40_000, points)
	if err != nil {
		t.Fatal(err)
	}
	// A serial sweep simulates the rungs up to its first unfilled one.
	var serial uint64
	for _, r := range want {
		serial++
		if r.Res.LSQ.FullFrac() == 0 {
			break
		}
	}

	if serial == uint64(len(points)) {
		t.Fatal("the test needs a rung whose LSQ never fills before the last")
	}
	runtime.GOMAXPROCS(8)
	for rep := 0; rep < 3; rep++ {
		var log telemetryLog
		traces := resim.NewTraceCache(resim.TraceCacheConfig{})
		ses := mustSession(t, resim.WithTelemetry(log.sink, 2048), resim.WithTraceCache(traces))
		got, err := ses.Sweep(ctx, "gzip", 40_000, points)
		if err != nil {
			t.Fatal(err)
		}
		st := traces.Stats()
		simulated := st.Hits + st.Generations
		if simulated != serial {
			t.Errorf("rep %d: simulated %d of %d points, want %d as in a serial sweep", rep, simulated, len(points), serial)
		}
		byPoint := make([][]resim.IntervalSnapshot, len(points))
		for _, s := range log.snaps {
			if s.Core < 0 || s.Core >= len(points) {
				t.Fatalf("snapshot Core = %d, want a point index in [0,%d)", s.Core, len(points))
			}
			byPoint[s.Core] = append(byPoint[s.Core], s)
		}
		for i, r := range got {
			if r.Err != nil {
				t.Fatalf("point %d: %v", i, r.Err)
			}
			if r.Res.Counters != want[i].Res.Counters || r.Res.LSQ != want[i].Res.LSQ {
				t.Errorf("rep %d point %s: result differs from the serial sweep", rep, r.Name)
			}
			snaps := byPoint[i]
			if len(snaps) == 0 || !snaps[len(snaps)-1].Final {
				t.Errorf("rep %d point %s: %d windows, want a run ending Final", rep, r.Name, len(snaps))
				continue
			}
			for k, s := range snaps {
				if s.Seq != uint64(k) || s.LSQ.Cap != points[i].Config.LSQSize {
					t.Errorf("rep %d point %s window %d: seq %d, LSQ cap %d", rep, r.Name, k, s.Seq, s.LSQ.Cap)
					break
				}
			}
			if !sumsTo(snaps, r.Res) {
				t.Errorf("rep %d point %s: windows do not sum to its result", rep, r.Name)
			}
		}
	}

	before := runtime.NumGoroutine()
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var once sync.Once
	ses := mustSession(t, resim.WithTelemetry(func(resim.IntervalSnapshot) error {
		once.Do(cancel)
		return nil
	}, 2048))
	if _, err := ses.Sweep(cctx, "gzip", 1<<62, points); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled sweep: err = %v, want context.Canceled", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: before %d, after %d (leak)", before, runtime.NumGoroutine())
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestSweepColdGridDerivesShorterWrongPaths: the RB x LSQ grid of the
// benchmark's sweep_cold workload, swept on a fresh trace cache, is one
// trace family. RB sets the wrong-path length (RB + IFQ), so the sweep
// generates the RB-64 trace once and derives the RB-16, 32 and 48 traces
// from it, and every point equals a direct run that streams its own
// trace.
func TestSweepColdGridDerivesShorterWrongPaths(t *testing.T) {
	const n = 20_000
	var points []resim.SweepPoint
	for _, rb := range []int{16, 32, 48, 64} {
		base := resim.DefaultConfig()
		base.RBSize = rb
		points = append(points, resim.SweepGrid("rb="+strconv.Itoa(rb)+",lsq", base, []int{8, 16, 32, 64},
			func(c *resim.Config, v int) { c.LSQSize = v })...)
	}
	traces := resim.NewTraceCache(resim.TraceCacheConfig{})
	ctx := context.Background()
	got, err := mustSession(t, resim.WithTraceCache(traces)).Sweep(ctx, "gzip", n, points)
	if err != nil {
		t.Fatal(err)
	}
	if st := traces.Stats(); st.Generations != 1 || st.Derivations != 3 {
		t.Errorf("%d generations, %d derivations; want 1 and 3", st.Generations, st.Derivations)
	}
	for i, r := range got {
		if r.Err != nil {
			t.Fatalf("%s: %v", r.Name, r.Err)
		}
		want, err := mustSession(t, resim.WithConfig(points[i].Config), resim.WithTraceCache(nil)).RunWorkload(ctx, "gzip", n)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(r.Res, want) {
			t.Errorf("%s: sweep result differs from the direct run", r.Name)
		}
	}
}
