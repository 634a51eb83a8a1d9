package sweepd_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/sweep"
	"repro/internal/sweepd"
	"repro/internal/tracecache"
	"repro/internal/workload"
)

// cluster spins up a coordinator and n workers on a real localhost TCP
// listener, returning the coordinator and the per-worker caches.
func cluster(t *testing.T, n int, coordTraces *tracecache.Cache) (*sweepd.Coordinator, []*tracecache.Cache) {
	t.Helper()
	coord := sweepd.NewCoordinator()
	coord.Traces = coordTraces
	addr, err := coord.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { coord.Close() })
	wctx, stop := context.WithCancel(context.Background())
	t.Cleanup(stop)
	caches := make([]*tracecache.Cache, n)
	for i := range caches {
		caches[i] = tracecache.New(tracecache.Config{})
		go sweepd.Work(wctx, addr, sweepd.WorkerOptions{ //nolint:errcheck
			Name:   "w" + itoa(i+1),
			Traces: caches[i],
		})
	}
	deadline := time.Now().Add(10 * time.Second)
	for coord.WorkerCount() < n {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d workers registered", coord.WorkerCount(), n)
		}
		time.Sleep(2 * time.Millisecond)
	}
	return coord, caches
}

// TestRemoteEndToEnd is the service's acceptance shape at the sweepd level:
// a 4-point / 2-key job over a real TCP coordinator and two workers returns
// results byte-identical to the local path, with exactly 2 trace
// generations across the cluster.
func TestRemoteEndToEnd(t *testing.T) {
	coord, caches := cluster(t, 2, nil)
	job := testJob(t)
	want := reference(t, job)

	got, err := sweepd.Run(context.Background(), job, coord.Workers(), nil)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	gotJSON, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	if string(gotJSON) != string(wantJSON) {
		t.Fatalf("remote results are not byte-identical to local results\nremote: %.300s\nlocal:  %.300s",
			gotJSON, wantJSON)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("remote results differ structurally from local results")
	}
	var gens uint64
	for _, c := range caches {
		gens += c.Stats().Generations
	}
	if gens != 2 {
		t.Fatalf("cluster performed %d trace generations for 2 distinct keys, want exactly 2", gens)
	}
}

// TestRemoteProgressForwarded: an observer fed from the scheduler's
// progress stream over TCP workers receives one callback per completed
// point with the Done/Total counters and exactly one Final.
func TestRemoteProgressForwarded(t *testing.T) {
	coord, _ := cluster(t, 2, nil)
	job := testJob(t)
	type ev struct{ done, total int }
	ch := make(chan ev, len(job.Points))
	finals := 0
	obs := core.ObserverFunc(func(p core.Progress) {
		ch <- ev{p.Done, p.Total}
		if p.Final {
			finals++
		}
	})
	emit := func(pr sweepd.PointResult, done, total int) {
		p := sweep.PointProgress(pr.Index, pr.Result.Res, done, total)
		p.Final = done == total
		obs.Progress(p)
	}
	if _, err := sweepd.Run(context.Background(), job, coord.Workers(), emit); err != nil {
		t.Fatal(err)
	}
	close(ch)
	var dones []int
	for e := range ch {
		if e.total != len(job.Points) {
			t.Errorf("total = %d, want %d", e.total, len(job.Points))
		}
		dones = append(dones, e.done)
	}
	if !reflect.DeepEqual(dones, []int{1, 2, 3, 4}) {
		t.Errorf("done sequence = %v, want [1 2 3 4]", dones)
	}
	if finals != 1 {
		t.Errorf("final callbacks = %d, want exactly 1", finals)
	}
}

// TestRemoteTraceShipping: a coordinator whose cache already holds a
// group's trace ships the container with the assignment, so the worker
// seeds instead of generating.
func TestRemoteTraceShipping(t *testing.T) {
	p, err := workload.ByName("gzip")
	if err != nil {
		t.Fatal(err)
	}
	warm := tracecache.New(tracecache.Config{})
	cfg := core.DefaultConfig()
	if _, err := warm.Get(context.Background(), p, cfg.TraceConfig(), testInstrs); err != nil {
		t.Fatal(err)
	}

	coord, caches := cluster(t, 1, warm)
	job := &sweepd.Job{Profile: p, Instructions: testInstrs, Points: []sweep.Point{
		{Name: "a", Config: cfg}, {Name: "b", Config: cfg},
	}}
	got, err := sweepd.Run(context.Background(), job, coord.Workers(), nil)
	if err != nil {
		t.Fatal(err)
	}
	want := reference(t, job)
	if !reflect.DeepEqual(got, want) {
		t.Fatal("shipped-trace results differ from locally generated ones")
	}
	st := caches[0].Stats()
	if st.Generations != 0 || st.Seeds != 1 {
		t.Fatalf("worker stats = %+v; want 0 generations and 1 seed (trace was shipped)", st)
	}
}

// TestRemoteNoWorkers: scheduling onto a workerless coordinator fails
// cleanly instead of queueing forever.
func TestRemoteNoWorkers(t *testing.T) {
	coord := sweepd.NewCoordinator()
	if _, err := coord.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	_, err := sweepd.Run(context.Background(), testJob(t), coord.Workers(), nil)
	if err == nil || !strings.Contains(err.Error(), "no workers") {
		t.Fatalf("err = %v, want a no-workers failure", err)
	}
}

// TestRemoteRejectsUnserializablePoints: a point whose configuration does
// not materialize back from its wire form (here an L2 behind perfect
// memory, which is invalid) fails serialization and names the point.
func TestRemoteRejectsUnserializablePoints(t *testing.T) {
	job := testJob(t)
	job.Points[1].Config.DCache = cache.Side{L2: cache.L1Config32K("l2")}
	_, err := sweepd.WireJobOf(job)
	if err == nil || !strings.Contains(err.Error(), "no wire form") {
		t.Fatalf("err = %v, want a serialization failure naming the point", err)
	}
	if !strings.Contains(err.Error(), "point 1") {
		t.Fatalf("err = %v, want the failing point identified", err)
	}
}

// TestRemoteCancellation: cancelling the job's context aborts it on the
// TCP workers and returns promptly.
func TestRemoteCancellation(t *testing.T) {
	coord, _ := cluster(t, 2, nil)
	p, err := workload.ByName("gzip")
	if err != nil {
		t.Fatal(err)
	}
	var pts []sweep.Point
	for i := 0; i < 4; i++ {
		cfg := core.DefaultConfig()
		cfg.RBSize = 8 << i
		pts = append(pts, sweep.Point{Name: "rb", Config: cfg})
	}
	// Uncacheable (over the per-trace cap), effectively unbounded budget:
	// the engines run until cancellation reaches the workers.
	job := &sweepd.Job{Profile: p, Instructions: 1 << 62, Points: pts}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	done := make(chan struct{})
	var runErr error
	go func() {
		_, runErr = sweepd.Run(ctx, job, coord.Workers(), nil)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("cancelled remote sweep did not return")
	}
	if !errors.Is(runErr, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", runErr)
	}
}

// TestRemoteWorkerDeathMidJobRequeues kills one worker's process context
// mid-job; the coordinator requeues its groups on the survivor and the job
// completes with full, correct results.
func TestRemoteWorkerDeathMidJobRequeues(t *testing.T) {
	coord := sweepd.NewCoordinator()
	addr, err := coord.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	// Survivor worker.
	sctx, stopSurvivor := context.WithCancel(context.Background())
	defer stopSurvivor()
	go sweepd.Work(sctx, addr, sweepd.WorkerOptions{Name: "survivor"}) //nolint:errcheck

	// Victim worker: its context dies as soon as it emits its first result.
	vctx, killVictim := context.WithCancel(context.Background())
	defer killVictim()
	victimEmitted := make(chan struct{}, 16)
	go sweepd.Work(vctx, addr, sweepd.WorkerOptions{ //nolint:errcheck
		Name: "victim",
		Observer: core.ObserverFunc(func(core.Progress) {
			victimEmitted <- struct{}{}
		}),
	})
	go func() {
		<-victimEmitted
		killVictim()
	}()

	deadline := time.Now().Add(10 * time.Second)
	for coord.WorkerCount() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("workers did not register")
		}
		time.Sleep(2 * time.Millisecond)
	}

	job := testJob(t)
	want := reference(t, job)
	got, err := sweepd.Run(context.Background(), job, coord.Workers(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("results after a worker death differ from the reference")
	}
}

// TestRemoteWorkerDeathResumesFromCheckpoint exercises checkpoint shipping
// over real TCP: a victim worker with a tight checkpoint cadence is killed
// only after the coordinator has received at least one of its shipped
// checkpoints, so the requeued group provably carries resume state; the
// survivor logs the mid-run resume and the job still finishes with results
// byte-identical to the reference.
func TestRemoteWorkerDeathResumesFromCheckpoint(t *testing.T) {
	coord := sweepd.NewCoordinator()

	// Observe the first checkpoint receipt through the coordinator log.
	ckptSeen := make(chan struct{})
	var ckptOnce sync.Once
	var logMu sync.Mutex
	var resumeLines []string
	coord.Log = recordLog(func(event string, attrs map[string]string) {
		if event == "sweepd.checkpoint_received" && attrs["worker"] == "victim" {
			ckptOnce.Do(func() { close(ckptSeen) })
		}
	})
	addr, err := coord.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	// Survivor: ordinary worker that records its own resume log lines.
	sctx, stopSurvivor := context.WithCancel(context.Background())
	defer stopSurvivor()
	go sweepd.Work(sctx, addr, sweepd.WorkerOptions{ //nolint:errcheck
		Name:            "survivor",
		CheckpointEvery: 2048,
		Log: recordLog(func(event string, attrs map[string]string) {
			if event == "sweepd.point_resumed" {
				logMu.Lock()
				resumeLines = append(resumeLines, fmt.Sprint(event, attrs))
				logMu.Unlock()
			}
		}),
	})
	// Victim: dies once the coordinator holds one of its checkpoints.
	vctx, killVictim := context.WithCancel(context.Background())
	defer killVictim()
	go sweepd.Work(vctx, addr, sweepd.WorkerOptions{ //nolint:errcheck
		Name: "victim", CheckpointEvery: 2048,
	})
	go func() {
		<-ckptSeen
		killVictim()
	}()

	deadline := time.Now().Add(10 * time.Second)
	for coord.WorkerCount() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("workers did not register")
		}
		time.Sleep(2 * time.Millisecond)
	}

	// One group per worker, with a budget long enough that checkpoints ship
	// well before either point completes — and, since the kill trigger is
	// the coordinator-side receipt racing the victim's own simulation, long
	// enough that the event-aware engine (an order of magnitude above the
	// wire round-trip) is still provably mid-run when the kill lands.
	p, err := workload.ByName("gzip")
	if err != nil {
		t.Fatal(err)
	}
	var pts []sweep.Point
	for _, rb := range []int{8, 16} {
		cfg := core.DefaultConfig()
		cfg.RBSize = rb
		pts = append(pts, sweep.Point{Name: "rb=" + itoa(rb), Config: cfg})
	}
	job := &sweepd.Job{Profile: p, Instructions: 600_000, Points: pts}
	want := reference(t, job)
	got, err := sweepd.Run(context.Background(), job, coord.Workers(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("results after a checkpoint-resumed worker death differ from the reference")
	}
	logMu.Lock()
	defer logMu.Unlock()
	if len(resumeLines) == 0 {
		t.Error("survivor never resumed a point from a shipped checkpoint (requeued group restarted from cycle 0)")
	}
}
