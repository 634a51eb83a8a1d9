package jobd

import (
	"context"
	"fmt"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/sweepd"
)

// snapsByPoint groups a telemetry stream's snapshots by job-wide point
// index (snap.Core), preserving arrival order within each point.
func snapsByPoint(snaps []core.IntervalSnapshot) map[int][]core.IntervalSnapshot {
	by := make(map[int][]core.IntervalSnapshot)
	for _, s := range snaps {
		by[s.Core] = append(by[s.Core], s)
	}
	return by
}

// verifyFullSequence checks that one client's stream carried every point's
// complete interval sequence and that each point's windows sum back to its
// final result exactly.
func verifyFullSequence(t *testing.T, who string, snaps []core.IntervalSnapshot, results []*sweepd.WireResult, cfgOf func(int) core.Result) {
	t.Helper()
	by := snapsByPoint(snaps)
	for idx := range results {
		ss := by[idx]
		if len(ss) == 0 {
			t.Fatalf("%s: point %d has no snapshots", who, idx)
		}
		var sum core.Result
		for i, s := range ss {
			if s.Seq != uint64(i) {
				t.Fatalf("%s: point %d snapshot %d has Seq %d (gap or reorder)", who, idx, i, s.Seq)
			}
			if i > 0 && s.StartCycle != ss[i-1].EndCycle {
				t.Fatalf("%s: point %d windows not contiguous at snapshot %d", who, idx, i)
			}
			s.Accumulate(&sum)
		}
		res := cfgOf(idx)
		last := ss[len(ss)-1]
		if !last.Final || ss[0].StartCycle != 0 || last.EndCycle != res.Cycles {
			t.Fatalf("%s: point %d windows span [%d,%d) final=%v, want [0,%d) final",
				who, idx, ss[0].StartCycle, last.EndCycle, last.Final, res.Cycles)
		}
		if !reflect.DeepEqual(sum.Counters, res.Counters) {
			t.Fatalf("%s: point %d accumulated counters differ from final result", who, idx)
		}
		if !reflect.DeepEqual(sum.ICache, res.ICache) || !reflect.DeepEqual(sum.DCache, res.DCache) {
			t.Fatalf("%s: point %d accumulated cache stats differ from final result", who, idx)
		}
	}
}

// TestHTTPTelemetryFanOut: two concurrent NDJSON clients watch one running
// job and each receives every point's full interval sequence; a third
// client attaching after completion replays the buffered ring and sees the
// same history. All sequences sum to results byte-identical to what the
// result stream reports.
func TestHTTPTelemetryFanOut(t *testing.T) {
	w1 := sweepd.NewLoopbackWorker(sweepd.LoopbackOptions{})
	w2 := sweepd.NewLoopbackWorker(sweepd.LoopbackOptions{})
	p, err := New(Options{Pool: StaticPool{w1, w2}, TelemetryEvery: 2048})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	srv := httptest.NewServer(p.Handler())
	defer srv.Close()
	c := &Client{Server: srv.URL, HTTPClient: srv.Client()}

	const instrs = 6000
	pts := wirePoints(t, "TEL", []int{8, 16}, []int{4, 8})
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	st, err := c.Submit(ctx, SubmitRequest{Workload: "gzip", Instructions: instrs, Points: pts})
	if err != nil {
		t.Fatal(err)
	}

	// Two watchers attach while the job runs (or replay the ring if it
	// finished first — the stream contract makes the race benign).
	var wg sync.WaitGroup
	streams := make([][]core.IntervalSnapshot, 2)
	states := make([]State, 2)
	errs := make([]error, 2)
	for i := range streams {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			states[i], errs[i] = c.Telemetry(ctx, st.ID, func(s core.IntervalSnapshot) error {
				streams[i] = append(streams[i], s)
				return nil
			})
		}(i)
	}
	wrs := make([]*sweepd.WireResult, len(pts))
	state, err := c.Results(ctx, st.ID, func(wr *sweepd.WireResult) error {
		wrs[wr.Index] = wr
		return nil
	})
	if err != nil || state != StateDone {
		t.Fatalf("results: state=%s err=%v", state, err)
	}
	wg.Wait()
	for i := range streams {
		if errs[i] != nil || states[i] != StateDone {
			t.Fatalf("watcher %d: state=%s err=%v", i, states[i], errs[i])
		}
	}

	sj, err := sweepd.JobFromWire(&sweepd.WireJob{Profile: mustProfile(t, "gzip"),
		Instructions: instrs, Points: reindex(pts)})
	if err != nil {
		t.Fatal(err)
	}
	resOf := func(idx int) core.Result {
		if wrs[idx] == nil || wrs[idx].Err != "" {
			t.Fatalf("point %d: missing or failed result", idx)
		}
		return wrs[idx].Res.Result(sj.Points[idx].Config)
	}
	for i, snaps := range streams {
		verifyFullSequence(t, fmt.Sprintf("watcher %d", i), snaps, wrs, resOf)
	}
	if !reflect.DeepEqual(streams[0], streams[1]) {
		t.Fatal("concurrent watchers saw different snapshot streams")
	}

	// Late joiner after the job is terminal: the whole run fits in the
	// default ring, so it replays the identical history.
	var late []core.IntervalSnapshot
	lateState, err := c.Telemetry(ctx, st.ID, func(s core.IntervalSnapshot) error {
		late = append(late, s)
		return nil
	})
	if err != nil || lateState != StateDone {
		t.Fatalf("late joiner: state=%s err=%v", lateState, err)
	}
	if !reflect.DeepEqual(late, streams[0]) {
		t.Fatal("late joiner's ring replay differs from the live stream")
	}

	if m := p.Snapshot(); m.TelemetrySnaps == 0 || m.TelemetryClients != 0 {
		t.Fatalf("metrics after streams: snaps=%d clients=%d", m.TelemetrySnaps, m.TelemetryClients)
	}
}

// TestTelemetrySlowClientDrops: a watcher stalled inside its callback loses
// exactly the snapshots the ring wrapped past — counted in the platform
// metrics — while a fast watcher on the same job receives every snapshot.
// The emitter (onTelemetry) never blocks on either.
func TestTelemetrySlowClientDrops(t *testing.T) {
	p, err := New(Options{Pool: StaticPool{}, TelemetryRing: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	// No workers: the job stays queued and the test drives emissions by
	// hand, which makes the interleaving fully deterministic.
	st, err := p.Submit("default", SubmitRequest{Workload: "gzip", Instructions: 1000,
		Points: wirePoints(t, "SLOW", []int{8}, []int{4})})
	if err != nil {
		t.Fatal(err)
	}
	p.mu.Lock()
	j := p.jobs[st.ID]
	p.mu.Unlock()
	emit := func(seq uint64) {
		p.onTelemetry(j, 0, core.IntervalSnapshot{Seq: seq,
			StartCycle: seq * 100, EndCycle: (seq + 1) * 100})
	}
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
			time.Sleep(time.Millisecond)
		}
	}

	ctx := context.Background()
	var mu sync.Mutex
	var fast, slow []uint64
	gate := make(chan struct{})
	blocked := false
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		follow(ctx, p, telemetryStream, "default", st.ID, func(s core.IntervalSnapshot) error {
			mu.Lock()
			fast = append(fast, s.Seq)
			mu.Unlock()
			return nil
		})
	}()
	go func() {
		defer wg.Done()
		follow(ctx, p, telemetryStream, "default", st.ID, func(s core.IntervalSnapshot) error {
			mu.Lock()
			slow = append(slow, s.Seq)
			first := !blocked
			blocked = true
			mu.Unlock()
			if first {
				<-gate // stall mid-delivery; the engine must keep emitting
			}
			return nil
		})
	}()
	waitFor("both clients attached", func() bool { return p.Snapshot().TelemetryClients == 2 })

	emit(0)
	waitFor("both clients got snapshot 0", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(fast) == 1 && len(slow) == 1
	})
	// Eight more while the slow client is stalled. The fast client is paced
	// to each one, proving delivery to it is unaffected; the ring (cap 4)
	// wraps past snapshots 1-4 for the stalled one.
	for seq := uint64(1); seq <= 8; seq++ {
		emit(seq)
		waitFor("fast client caught up", func() bool {
			mu.Lock()
			defer mu.Unlock()
			return uint64(len(fast)) == seq+1
		})
	}
	close(gate)
	waitFor("slow client drained the ring", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(slow) == 5
	})
	if _, err := p.Cancel("default", st.ID); err != nil {
		t.Fatal(err)
	}
	wg.Wait()

	mu.Lock()
	defer mu.Unlock()
	if want := []uint64{0, 1, 2, 3, 4, 5, 6, 7, 8}; !reflect.DeepEqual(fast, want) {
		t.Fatalf("fast client saw %v, want %v", fast, want)
	}
	if want := []uint64{0, 5, 6, 7, 8}; !reflect.DeepEqual(slow, want) {
		t.Fatalf("slow client saw %v, want %v (ring cap 4 wraps past 1-4)", slow, want)
	}
	m := p.Snapshot()
	if m.TelemetrySnaps != 9 || m.TelemetryDropped != 4 || m.TelemetryClients != 0 {
		t.Fatalf("metrics: snaps=%d dropped=%d clients=%d, want 9/4/0",
			m.TelemetrySnaps, m.TelemetryDropped, m.TelemetryClients)
	}
}
