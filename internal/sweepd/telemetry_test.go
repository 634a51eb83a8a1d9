package sweepd_test

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/sweep"
	"repro/internal/sweepd"
)

// telemetryCollector gathers forwarded snapshots per job-wide point index.
// Snapshots for different points interleave arbitrarily (groups run
// concurrently); within one point they must arrive in emission order.
type telemetryCollector struct {
	mu    sync.Mutex
	snaps map[int][]core.IntervalSnapshot
}

func newTelemetryCollector() *telemetryCollector {
	return &telemetryCollector{snaps: make(map[int][]core.IntervalSnapshot)}
}

func (c *telemetryCollector) add(index int, snap core.IntervalSnapshot) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.snaps[index] = append(c.snaps[index], snap)
}

// verify folds each point's streamed windows back into a Result and checks
// they reconstruct that point's final statistics exactly — the sweepd-level
// form of the core equivalence test, proving nothing is lost or duplicated
// crossing the scheduler (and, for remote runs, the wire).
func (c *telemetryCollector) verify(t *testing.T, every uint64, results []sweep.Result) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	for idx, res := range results {
		if res.Err != nil {
			t.Fatalf("point %d failed: %v", idx, res.Err)
		}
		snaps := c.snaps[idx]
		if len(snaps) == 0 {
			t.Fatalf("point %d: no telemetry snapshots forwarded", idx)
		}
		var sum core.Result
		for i, s := range snaps {
			if s.Core != idx {
				t.Fatalf("point %d snapshot %d: Core = %d, want job-wide index %d", idx, i, s.Core, idx)
			}
			if s.Seq != uint64(i) {
				t.Fatalf("point %d snapshot %d: Seq = %d, want %d", idx, i, s.Seq, i)
			}
			if i > 0 && s.StartCycle != snaps[i-1].EndCycle {
				t.Fatalf("point %d snapshot %d: window [%d,%d) not contiguous with previous end %d",
					idx, i, s.StartCycle, s.EndCycle, snaps[i-1].EndCycle)
			}
			if !s.Final && s.EndCycle%every != 0 {
				t.Fatalf("point %d snapshot %d: non-final EndCycle %d not a multiple of %d",
					idx, i, s.EndCycle, every)
			}
			s.Accumulate(&sum)
		}
		last := snaps[len(snaps)-1]
		if !last.Final {
			t.Fatalf("point %d: last snapshot not Final", idx)
		}
		if snaps[0].StartCycle != 0 || last.EndCycle != res.Res.Cycles {
			t.Fatalf("point %d: windows span [%d,%d), want [0,%d)",
				idx, snaps[0].StartCycle, last.EndCycle, res.Res.Cycles)
		}
		if !reflect.DeepEqual(sum.Counters, res.Res.Counters) {
			t.Fatalf("point %d: accumulated counters differ from final result", idx)
		}
		if !reflect.DeepEqual(sum.ICache, res.Res.ICache) || !reflect.DeepEqual(sum.DCache, res.Res.DCache) {
			t.Fatalf("point %d: accumulated cache stats differ from final result", idx)
		}
		if !reflect.DeepEqual(sum.IFQ, res.Res.IFQ) || !reflect.DeepEqual(sum.RB, res.Res.RB) ||
			!reflect.DeepEqual(sum.LSQ, res.Res.LSQ) {
			t.Fatalf("point %d: accumulated occupancies differ from final result", idx)
		}
	}
}

// TestLoopbackTelemetryEquivalence: a telemetry-streaming job over loopback
// workers returns results identical to the plain runner, and each point's
// streamed windows sum back to its final statistics.
func TestLoopbackTelemetryEquivalence(t *testing.T) {
	job := testJob(t)
	want := reference(t, job)
	const every = 2048
	col := newTelemetryCollector()
	job.TelemetryEvery = every
	job.OnTelemetry = col.add
	ws, _ := loopbackWorkers(2)
	got, err := sweepd.Run(context.Background(), job, ws, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("telemetry-streaming results differ from the plain runner's")
	}
	col.verify(t, every, got)
}

// TestRemoteTelemetryEquivalence: the same guarantee across a real TCP
// cluster — snapshots ride the worker→coordinator wire tagged with
// job-wide point indices, and the results stay byte-identical to a
// non-telemetry run.
func TestRemoteTelemetryEquivalence(t *testing.T) {
	coord, _ := cluster(t, 2, nil)
	job := testJob(t)
	want := reference(t, job)
	const every = 2048
	col := newTelemetryCollector()
	job.TelemetryEvery = every
	job.OnTelemetry = col.add
	got, err := sweepd.Run(context.Background(), job, coord.Workers(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("remote telemetry-streaming results differ from the plain runner's")
	}
	col.verify(t, every, got)
}
