package sweepd_test

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/sweep"
	"repro/internal/sweepd"
	"repro/internal/tracecache"
	"repro/internal/workload"
)

const testInstrs = 6000

// testJob builds a 4-point job with exactly two distinct trace keys: RB
// size feeds the wrong-path block length (RB+IFQ) and therefore the key,
// LSQ size is engine-only.
func testJob(t *testing.T) *sweepd.Job {
	t.Helper()
	p, err := workload.ByName("gzip")
	if err != nil {
		t.Fatal(err)
	}
	var pts []sweep.Point
	for _, rb := range []int{8, 16} {
		for _, lsq := range []int{4, 8} {
			cfg := core.DefaultConfig()
			cfg.RBSize = rb
			cfg.LSQSize = lsq
			pts = append(pts, sweep.Point{Name: nameFor(rb, lsq), Config: cfg})
		}
	}
	return &sweepd.Job{Profile: p, Instructions: testInstrs, Points: pts}
}

func nameFor(rb, lsq int) string {
	return "rb=" + itoa(rb) + "/lsq=" + itoa(lsq)
}

func itoa(v int) string {
	if v >= 10 {
		return string(rune('0'+v/10)) + string(rune('0'+v%10))
	}
	return string(rune('0' + v))
}

// reference runs the job through the plain sweep runner — the behavior the
// scheduler must reproduce.
func reference(t *testing.T, job *sweepd.Job) []sweep.Result {
	t.Helper()
	r := sweep.Runner{Workload: job.Profile, Instructions: job.Instructions,
		Traces: tracecache.New(tracecache.Config{})}
	res, err := r.Run(context.Background(), job.Points)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func loopbackWorkers(n int) ([]sweepd.Worker, []*sweepd.LoopbackWorker) {
	ws := make([]sweepd.Worker, n)
	lws := make([]*sweepd.LoopbackWorker, n)
	for i := range ws {
		lw := sweepd.NewLoopbackWorker(sweepd.LoopbackOptions{})
		ws[i], lws[i] = lw, lw
	}
	return ws, lws
}

func TestGroupsShardByTraceKey(t *testing.T) {
	job := testJob(t)
	gs := job.Groups()
	if len(gs) != 2 {
		t.Fatalf("got %d groups, want 2 (one per distinct trace key)", len(gs))
	}
	if !reflect.DeepEqual(gs[0].Indices, []int{0, 1}) || !reflect.DeepEqual(gs[1].Indices, []int{2, 3}) {
		t.Fatalf("group indices = %v / %v, want [0 1] / [2 3]", gs[0].Indices, gs[1].Indices)
	}
	if id0, id1 := gs[0].Key.ID(), gs[1].Key.ID(); id0 == id1 || id0 == "" {
		t.Fatalf("key IDs not distinct content addresses: %q vs %q", id0, id1)
	}
}

// TestRunMatchesDirectRunner: the scheduler over a two-worker loopback pool
// returns exactly what the plain sweep machinery returns.
func TestRunMatchesDirectRunner(t *testing.T) {
	job := testJob(t)
	want := reference(t, job)
	ws, _ := loopbackWorkers(2)
	got, err := sweepd.Run(context.Background(), job, ws, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("scheduler results differ from the direct runner's")
	}
}

// shuffleWorker defers every emission until its group finishes, then emits
// in reverse completion order — a worst case for result ordering.
type shuffleWorker struct{ inner sweepd.Worker }

func (s shuffleWorker) RunGroup(ctx context.Context, job *sweepd.Job, gr sweepd.GroupRun, emit func(sweepd.PointResult)) error {
	var buf []sweepd.PointResult
	err := s.inner.RunGroup(ctx, job, gr, func(pr sweepd.PointResult) {
		buf = append(buf, pr)
	})
	for i := len(buf) - 1; i >= 0; i-- {
		emit(buf[i])
	}
	return err
}

// TestResultOrderWithShuffledCompletion: results come back in input point
// order no matter what order shards and workers complete in.
func TestResultOrderWithShuffledCompletion(t *testing.T) {
	job := testJob(t)
	want := reference(t, job)
	ws, _ := loopbackWorkers(2)
	shuffled := make([]sweepd.Worker, len(ws))
	for i, w := range ws {
		shuffled[i] = shuffleWorker{inner: w}
	}
	var mu sync.Mutex
	var emitted []int
	got, err := sweepd.Run(context.Background(), job, shuffled, func(pr sweepd.PointResult, done, total int) {
		mu.Lock()
		emitted = append(emitted, pr.Index)
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("shuffled completion changed the returned results or their order")
	}
	// The emission stream really was out of point order (reversed within
	// each group), proving the returned ordering is the scheduler's doing.
	mu.Lock()
	defer mu.Unlock()
	if len(emitted) != len(job.Points) {
		t.Fatalf("emitted %d results, want %d", len(emitted), len(job.Points))
	}
	inOrder := true
	for i := 1; i < len(emitted); i++ {
		if emitted[i] < emitted[i-1] {
			inOrder = false
		}
	}
	if inOrder {
		t.Fatal("emission order was monotonic; the shuffle worker should have reversed it")
	}
}

// workerFunc adapts a function to the Worker interface.
type workerFunc func(ctx context.Context, job *sweepd.Job, gr sweepd.GroupRun, emit func(sweepd.PointResult)) error

func (f workerFunc) RunGroup(ctx context.Context, job *sweepd.Job, gr sweepd.GroupRun, emit func(sweepd.PointResult)) error {
	return f(ctx, job, gr, emit)
}

// TestWorkerKillRequeues kills a loopback worker after its first emitted
// point; the scheduler must requeue the group's remainder on the surviving
// worker and still return complete, correct, point-ordered results.
func TestWorkerKillRequeues(t *testing.T) {
	job := testJob(t) // 2 groups x 2 points
	want := reference(t, job)

	killerLW := sweepd.NewLoopbackWorker(sweepd.LoopbackOptions{Parallelism: 1})
	backupLW := sweepd.NewLoopbackWorker(sweepd.LoopbackOptions{Parallelism: 1})
	killerGot := make(chan struct{})
	var gotOnce sync.Once
	var killerEmitted, backupRan sync.Map

	killer := workerFunc(func(ctx context.Context, j *sweepd.Job, gr sweepd.GroupRun, emit func(sweepd.PointResult)) error {
		gotOnce.Do(func() { close(killerGot) })
		n := 0
		return killerLW.RunGroup(ctx, j, gr, func(pr sweepd.PointResult) {
			emit(pr)
			killerEmitted.Store(pr.Index, true)
			if n++; n == 1 {
				killerLW.Kill() // die mid-group, after one streamed result
			}
		})
	})
	backup := workerFunc(func(ctx context.Context, j *sweepd.Job, gr sweepd.GroupRun, emit func(sweepd.PointResult)) error {
		// Hold back until the killer owns a group, so the kill-and-requeue
		// path runs deterministically rather than depending on who wins the
		// race for the queue.
		select {
		case <-killerGot:
		case <-ctx.Done():
			return ctx.Err()
		}
		for _, i := range gr.Indices {
			backupRan.Store(i, true)
		}
		return backupLW.RunGroup(ctx, j, gr, emit)
	})

	got, err := sweepd.Run(context.Background(), job, []sweepd.Worker{killer, backup}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("results after a mid-job worker kill differ from the reference")
	}
	// The killer died after one point, so the backup must have run at least
	// one point of the killer's group (the requeued remainder) on top of
	// its own group.
	killed := 0
	killerEmitted.Range(func(any, any) bool { killed++; return true })
	backed := 0
	backupRan.Range(func(any, any) bool { backed++; return true })
	if killed != 1 {
		t.Fatalf("killer emitted %d points before dying, want exactly 1", killed)
	}
	if backed != len(job.Points)-1 {
		t.Fatalf("backup ran %d points, want %d (its group plus the requeued remainder)",
			backed, len(job.Points)-1)
	}
}

// TestWorkerKillResumesFromCheckpoint is the requeue-resume acceptance: a
// worker that has shipped checkpoints for its in-flight points dies
// mid-group, and the survivor resumes those points from the shipped cycle
// instead of cycle 0 — asserted through the ResumedCycles counter — while
// the final results stay byte-identical to the reference (resumed engines
// are deterministic).
func TestWorkerKillResumesFromCheckpoint(t *testing.T) {
	// Two single-point groups (RB size feeds the trace key) with a budget
	// long enough to cross several checkpoint boundaries.
	const instrs = 60_000
	const every = 4096
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
	job := &sweepd.Job{Profile: p, Instructions: instrs, Points: pts}
	r := sweep.Runner{Workload: job.Profile, Instructions: job.Instructions,
		Traces: tracecache.New(tracecache.Config{})}
	want, err := r.Run(context.Background(), job.Points)
	if err != nil {
		t.Fatal(err)
	}

	killerLW := sweepd.NewLoopbackWorker(sweepd.LoopbackOptions{Parallelism: 1, CheckpointEvery: every})
	backupLW := sweepd.NewLoopbackWorker(sweepd.LoopbackOptions{Parallelism: 1, CheckpointEvery: every})
	killerGot := make(chan struct{})
	var gotOnce sync.Once

	// The killer dies right after shipping its third checkpoint: its group
	// is provably mid-run (the point never completed on it) with resume
	// state stored at the scheduler.
	var shipments int32
	killer := workerFunc(func(ctx context.Context, j *sweepd.Job, gr sweepd.GroupRun, emit func(sweepd.PointResult)) error {
		gotOnce.Do(func() { close(killerGot) })
		inner := gr
		inner.OnCheckpoint = func(index int, data []byte) {
			gr.OnCheckpoint(index, data)
			if atomic.AddInt32(&shipments, 1) == 3 {
				killerLW.Kill()
			}
		}
		return killerLW.RunGroup(ctx, j, inner, emit)
	})
	backup := workerFunc(func(ctx context.Context, j *sweepd.Job, gr sweepd.GroupRun, emit func(sweepd.PointResult)) error {
		// Hold back until the killer owns a group, so the kill-and-requeue
		// path runs deterministically rather than depending on who wins the
		// race for the queue.
		select {
		case <-killerGot:
		case <-ctx.Done():
			return ctx.Err()
		}
		return backupLW.RunGroup(ctx, j, gr, emit)
	})

	got, err := sweepd.Run(context.Background(), job, []sweepd.Worker{killer, backup}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("results after a checkpoint-resumed requeue differ from the reference")
	}
	if rc := backupLW.ResumedCycles(); rc < every {
		t.Errorf("backup resumed %d cycles, want >= %d (requeued group must not restart from cycle 0)", rc, every)
	}
}

// TestCheckpointBudgetDegradesResume pins the checkpoint-GC contract: with
// a budget too small to retain any shipment, a killed worker's group still
// requeues and completes with byte-identical results — the survivor just
// restarts its points from cycle 0 (ResumedCycles stays zero) instead of
// resuming mid-run. Bounding retained checkpoint bytes may cost re-simulation,
// never correctness.
func TestCheckpointBudgetDegradesResume(t *testing.T) {
	const instrs = 60_000
	const every = 4096
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
	job := &sweepd.Job{Profile: p, Instructions: instrs, Points: pts,
		CheckpointBudget: 1} // nothing fits: every shipment is dropped
	r := sweep.Runner{Workload: job.Profile, Instructions: job.Instructions,
		Traces: tracecache.New(tracecache.Config{})}
	want, err := r.Run(context.Background(), job.Points)
	if err != nil {
		t.Fatal(err)
	}

	killerLW := sweepd.NewLoopbackWorker(sweepd.LoopbackOptions{Parallelism: 1, CheckpointEvery: every})
	backupLW := sweepd.NewLoopbackWorker(sweepd.LoopbackOptions{Parallelism: 1, CheckpointEvery: every})
	killerGot := make(chan struct{})
	var gotOnce sync.Once
	var shipments int32
	killer := workerFunc(func(ctx context.Context, j *sweepd.Job, gr sweepd.GroupRun, emit func(sweepd.PointResult)) error {
		gotOnce.Do(func() { close(killerGot) })
		inner := gr
		inner.OnCheckpoint = func(index int, data []byte) {
			gr.OnCheckpoint(index, data)
			if atomic.AddInt32(&shipments, 1) == 3 {
				killerLW.Kill()
			}
		}
		return killerLW.RunGroup(ctx, j, inner, emit)
	})
	backup := workerFunc(func(ctx context.Context, j *sweepd.Job, gr sweepd.GroupRun, emit func(sweepd.PointResult)) error {
		select {
		case <-killerGot:
		case <-ctx.Done():
			return ctx.Err()
		}
		if len(gr.Checkpoints) != 0 {
			t.Errorf("assignment carries %d checkpoints despite a 1-byte budget", len(gr.Checkpoints))
		}
		return backupLW.RunGroup(ctx, j, gr, emit)
	})

	got, err := sweepd.Run(context.Background(), job, []sweepd.Worker{killer, backup}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("results after a budget-degraded requeue differ from the reference")
	}
	if rc := backupLW.ResumedCycles(); rc != 0 {
		t.Errorf("backup resumed %d cycles; a 1-byte budget must retain no resume state", rc)
	}
}

// TestKeyGroupAffinity: with one private cache per worker (distinct hosts),
// a 4-point/2-key job costs exactly 2 generations across the cluster —
// every host generates its assigned groups' traces once.
func TestKeyGroupAffinity(t *testing.T) {
	job := testJob(t)
	ws, lws := loopbackWorkers(2)
	if _, err := sweepd.Run(context.Background(), job, ws, nil); err != nil {
		t.Fatal(err)
	}
	var gens uint64
	for _, lw := range lws {
		gens += lw.Traces().Stats().Generations
	}
	if gens != 2 {
		t.Fatalf("cluster performed %d trace generations for 2 distinct keys, want exactly 2", gens)
	}
}

// TestEmitProgressCounters: emit sees done counting 1..total with a fixed
// total — the coordinator-side progress stream.
func TestEmitProgressCounters(t *testing.T) {
	job := testJob(t)
	ws, _ := loopbackWorkers(2)
	var mu sync.Mutex
	var dones []int
	_, err := sweepd.Run(context.Background(), job, ws, func(pr sweepd.PointResult, done, total int) {
		mu.Lock()
		defer mu.Unlock()
		if total != len(job.Points) {
			t.Errorf("total = %d, want %d", total, len(job.Points))
		}
		dones = append(dones, done)
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []int{1, 2, 3, 4}
	if !reflect.DeepEqual(dones, want) {
		t.Fatalf("done sequence = %v, want %v", dones, want)
	}
}

func TestRunRejectsEmptyInputs(t *testing.T) {
	job := testJob(t)
	ws, _ := loopbackWorkers(1)
	if _, err := sweepd.Run(context.Background(), &sweepd.Job{Profile: job.Profile}, ws, nil); err == nil {
		t.Error("empty point list accepted")
	}
	if _, err := sweepd.Run(context.Background(), job, nil, nil); err == nil {
		t.Error("empty worker pool accepted")
	}
}

// TestAllWorkersDeadFails: when the last live worker dies mid-job the run
// fails with the cause instead of hanging.
func TestAllWorkersDeadFails(t *testing.T) {
	job := testJob(t)
	boom := errors.New("host on fire")
	dead := workerFunc(func(context.Context, *sweepd.Job, sweepd.GroupRun, func(sweepd.PointResult)) error {
		return boom
	})
	done := make(chan struct{})
	var err error
	go func() {
		_, err = sweepd.Run(context.Background(), job, []sweepd.Worker{dead, dead}, nil)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("Run hung after every worker died")
	}
	if err == nil || !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the worker failure cause", err)
	}
}

// TestRunCancellation: cancelling the context aborts in-flight groups and
// returns ctx.Err once the pool drains.
func TestRunCancellation(t *testing.T) {
	p, err := workload.ByName("gzip")
	if err != nil {
		t.Fatal(err)
	}
	var pts []sweep.Point
	for _, rb := range []int{8, 16, 32, 64} {
		cfg := core.DefaultConfig()
		cfg.RBSize = rb
		pts = append(pts, sweep.Point{Name: "rb", Config: cfg})
	}
	// An effectively unbounded budget keeps every engine running until the
	// cancellation lands.
	job := &sweepd.Job{Profile: p, Instructions: 1 << 62, Points: pts}
	ws, _ := loopbackWorkers(2)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	done := make(chan struct{})
	var runErr error
	go func() {
		_, runErr = sweepd.Run(ctx, job, ws, nil)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("cancelled run did not drain")
	}
	if !errors.Is(runErr, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", runErr)
	}
}
