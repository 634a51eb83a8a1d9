package resim_test

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

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

// countingPipe counts pipeline events; atomic so a wrongly shared
// instance fails the assertion rather than racing.
type countingPipe struct{ n atomic.Int64 }

func (c *countingPipe) Fetched(int64, int64, uint32, string, bool) { c.n.Add(1) }
func (c *countingPipe) Stage(int64, int64, string)                 { c.n.Add(1) }

// TestSweepClearsCrossGroupPipeTracer: with two host threads, a PipeTracer
// shared by points in different trace-key groups is cleared (the groups'
// engines run concurrently and the tracer is unsynchronized), a tracer
// unique to one point keeps tracing, and tracing changes no counter.
func TestSweepClearsCrossGroupPipeTracer(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	ses := mustSession(t, resim.WithTraceCache(resim.NewTraceCache(resim.TraceCacheConfig{})))
	base := ses.Config()
	// Groups: {rb=8} and {rb=16, rb=16 lsq=32}.
	points := resim.SweepGrid("rb", base, []int{8, 16, 16}, func(c *resim.Config, v int) { c.RBSize = v })
	points[2].Config.LSQSize = 32
	ctx := context.Background()
	want, err := ses.Sweep(ctx, "gzip", 20_000, points)
	if err != nil {
		t.Fatal(err)
	}

	shared, unique := &countingPipe{}, &countingPipe{}
	traced := append([]resim.SweepPoint(nil), points...)
	traced[0].Config.PipeTracer = shared
	traced[1].Config.PipeTracer = shared
	traced[2].Config.PipeTracer = unique
	got, err := ses.Sweep(ctx, "gzip", 20_000, traced)
	if err != nil {
		t.Fatal(err)
	}
	if n := shared.n.Load(); n != 0 {
		t.Errorf("shared tracer saw %d events, want 0", n)
	}
	if unique.n.Load() == 0 {
		t.Error("unique tracer saw no events")
	}
	for i := range want {
		if want[i].Err != nil || got[i].Err != nil {
			t.Fatalf("point %d errs: %v / %v", i, want[i].Err, got[i].Err)
		}
		if want[i].Res.Counters != got[i].Res.Counters {
			t.Errorf("point %d: traced sweep differs from tracer-free sweep", i)
		}
	}
}
