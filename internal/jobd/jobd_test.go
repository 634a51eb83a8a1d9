package jobd

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/sweep"
	"repro/internal/sweepd"
	"repro/internal/tracecache"
)

// wirePoints builds submission points named "<tag>/rb=R/lsq=L". RB size
// feeds the trace key (one key-group per distinct RB), LSQ size is
// engine-only, so rbs selects the group count and lsqs the group width.
func wirePoints(t testing.TB, tag string, rbs, lsqs []int) []sweepd.WirePoint {
	t.Helper()
	var pts []sweepd.WirePoint
	for _, rb := range rbs {
		for _, lsq := range lsqs {
			cfg := core.DefaultConfig()
			cfg.RBSize = rb
			cfg.LSQSize = lsq
			spec, err := sweepd.SpecOf(cfg)
			if err != nil {
				t.Fatal(err)
			}
			pts = append(pts, sweepd.WirePoint{
				Name:   fmt.Sprintf("%s/rb=%d/lsq=%d", tag, rb, lsq),
				Config: spec,
			})
		}
	}
	return pts
}

// gatedPool is a WorkerPool whose membership the test flips at will —
// holding it empty until every submission has landed makes the first
// dispatch see the full queue, so dispatch order is a pure function of the
// scheduling policy.
type gatedPool struct {
	mu sync.Mutex
	ws []sweepd.Worker
}

func (g *gatedPool) Workers() []sweepd.Worker {
	g.mu.Lock()
	defer g.mu.Unlock()
	return append([]sweepd.Worker(nil), g.ws...)
}

func (g *gatedPool) set(ws ...sweepd.Worker) {
	g.mu.Lock()
	g.ws = ws
	g.mu.Unlock()
}

// fakeWorker hands each dispatched group to the test and blocks until the
// test releases it — full control over dispatch sequencing without running
// engines.
type fakeWorker struct {
	runs chan *fakeRun
}

type fakeRun struct {
	job     *sweepd.Job
	gr      sweepd.GroupRun
	release chan error
}

// tag returns the submission tag of the group's first point ("A1" of
// "A1/rb=8/lsq=4") — how the test identifies whose group was dispatched.
func (r *fakeRun) tag() string {
	name := r.job.Points[r.gr.Indices[0]].Name
	return name[:strings.IndexByte(name, '/')]
}

func newFakeWorker() *fakeWorker { return &fakeWorker{runs: make(chan *fakeRun, 64)} }

func (w *fakeWorker) RunGroup(ctx context.Context, job *sweepd.Job, gr sweepd.GroupRun, emit func(sweepd.PointResult)) error {
	r := &fakeRun{job: job, gr: gr, release: make(chan error, 1)}
	w.runs <- r
	select {
	case err := <-r.release:
		if err != nil {
			return err
		}
		for _, idx := range gr.Indices {
			emit(sweepd.PointResult{Index: idx, Result: sweep.Result{Point: job.Points[idx]}})
		}
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func nextRun(t *testing.T, w *fakeWorker) *fakeRun {
	t.Helper()
	select {
	case r := <-w.runs:
		return r
	case <-time.After(5 * time.Second):
		t.Fatal("no group dispatched within 5s")
		return nil
	}
}

// TestFairnessInterleavesTenants: with one serialized worker slot and
// tenant A's three jobs queued ahead of tenant B's one, the weighted
// fair-share policy must alternate A and B groups instead of draining A's
// whole backlog first — B is not starved by a burstier tenant.
func TestFairnessInterleavesTenants(t *testing.T) {
	pool := &gatedPool{}
	p, err := New(Options{Pool: pool})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	rbs := []int{8, 16} // two groups per job
	for i := 1; i <= 3; i++ {
		tag := fmt.Sprintf("A%d", i)
		if _, err := p.Submit("alice", SubmitRequest{Workload: "gzip", Instructions: 1000,
			Points: wirePoints(t, tag, rbs, []int{4})}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := p.Submit("bob", SubmitRequest{Workload: "gzip", Instructions: 1000,
		Points: wirePoints(t, "B1", rbs, []int{4})}); err != nil {
		t.Fatal(err)
	}

	w := newFakeWorker()
	pool.set(w)
	p.Kick()

	var order []string
	for i := 0; i < 8; i++ {
		r := nextRun(t, w)
		order = append(order, r.tag())
		r.release <- nil
	}
	// Start-time fair queuing with equal weights alternates the two tenants
	// while both have work, oldest job first within a tenant; B's two groups
	// land in the first four slots despite three A jobs being queued ahead.
	want := []string{"A1", "B1", "A1", "B1", "A2", "A2", "A3", "A3"}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("dispatch order = %v, want %v", order, want)
	}
}

// TestPriorityPreempts: a higher-priority job submitted last still
// dispatches first; fairness orders only within a priority level.
func TestPriorityPreempts(t *testing.T) {
	pool := &gatedPool{}
	p, err := New(Options{Pool: pool})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	rbs := []int{8, 16}
	if _, err := p.Submit("alice", SubmitRequest{Workload: "gzip", Instructions: 1000,
		Points: wirePoints(t, "LOW", rbs, []int{4})}); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Submit("bob", SubmitRequest{Workload: "gzip", Instructions: 1000,
		Priority: 5, Points: wirePoints(t, "HIGH", rbs, []int{4})}); err != nil {
		t.Fatal(err)
	}

	w := newFakeWorker()
	pool.set(w)
	p.Kick()

	var order []string
	for i := 0; i < 4; i++ {
		r := nextRun(t, w)
		order = append(order, r.tag())
		r.release <- nil
	}
	want := []string{"HIGH", "HIGH", "LOW", "LOW"}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("dispatch order = %v, want %v", order, want)
	}
}

// TestWeightsSkewShares: tenant weights bias the interleave — weight 2 gets
// two dispatches for weight 1's one while both are backlogged.
func TestWeightsSkewShares(t *testing.T) {
	pool := &gatedPool{}
	p, err := New(Options{Pool: pool, Tenants: []Tenant{
		{Name: "heavy", Token: "th", Weight: 2},
		{Name: "light", Token: "tl", Weight: 1},
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	rbs := []int{4, 8, 12, 16, 20, 24} // six groups per job
	if _, err := p.Submit("heavy", SubmitRequest{Workload: "gzip", Instructions: 1000,
		Points: wirePoints(t, "H1", rbs, []int{4})}); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Submit("light", SubmitRequest{Workload: "gzip", Instructions: 1000,
		Points: wirePoints(t, "L1", rbs, []int{4})}); err != nil {
		t.Fatal(err)
	}

	w := newFakeWorker()
	pool.set(w)
	p.Kick()

	counts := map[string]int{}
	for i := 0; i < 6; i++ {
		r := nextRun(t, w)
		counts[r.tag()]++
		r.release <- nil
	}
	if counts["H1"] != 4 || counts["L1"] != 2 {
		t.Fatalf("first six dispatches H1=%d L1=%d, want 4/2 (weight 2:1)", counts["H1"], counts["L1"])
	}
}

// TestAdmissionControl: the platform refuses work beyond the queue and
// per-tenant caps with typed errors (the HTTP layer's 429s) and counts the
// rejections; canceling a queued job frees its slot.
func TestAdmissionControl(t *testing.T) {
	p, err := New(Options{Pool: StaticPool{}, MaxQueue: 3, TenantMaxInFlight: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	submit := func(tenant, tag string) (JobStatus, error) {
		return p.Submit(tenant, SubmitRequest{Workload: "gzip", Instructions: 1000,
			Points: wirePoints(t, tag, []int{8}, []int{4})})
	}

	a1, err := submit("alice", "A1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := submit("alice", "A2"); err != nil {
		t.Fatal(err)
	}
	if _, err := submit("alice", "A3"); !errors.Is(err, ErrTenantBusy) {
		t.Fatalf("3rd alice submit: err = %v, want ErrTenantBusy", err)
	}
	if _, err := submit("bob", "B1"); err != nil {
		t.Fatal(err)
	}
	if _, err := submit("bob", "B2"); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("4th queued submit: err = %v, want ErrQueueFull", err)
	}
	if m := p.Snapshot(); m.Rejected != 2 || m.QueueDepth != 3 {
		t.Fatalf("rejected=%d queue=%d, want 2/3", m.Rejected, m.QueueDepth)
	}

	// Refused ≠ dropped: canceling a queued job frees its admission slot
	// and the refused tenant's resubmission is admitted.
	if _, err := p.Cancel("alice", a1.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := submit("alice", "A3"); err != nil {
		t.Fatalf("submit after cancel: %v", err)
	}
	// Tenant scoping: bob cannot see or cancel alice's job.
	if _, err := p.Cancel("bob", a1.ID); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("cross-tenant cancel: err = %v, want ErrUnknownJob", err)
	}
}

// TestWorkerDeathRequeues: a worker dying mid-group marks it dead, requeues
// the unfinished remainder on a survivor, and the job still completes.
func TestWorkerDeathRequeues(t *testing.T) {
	pool := &gatedPool{}
	p, err := New(Options{Pool: pool})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	st, err := p.Submit("alice", SubmitRequest{Workload: "gzip", Instructions: 1000,
		Points: wirePoints(t, "A1", []int{8}, []int{4, 8})})
	if err != nil {
		t.Fatal(err)
	}

	victim, survivor := newFakeWorker(), newFakeWorker()
	pool.set(victim)
	p.Kick()

	r := nextRun(t, victim)
	pool.set(victim, survivor)
	r.release <- errors.New("host died")
	r2 := nextRun(t, survivor)
	if len(r2.gr.Indices) != 2 {
		t.Fatalf("requeued group has %d points, want 2", len(r2.gr.Indices))
	}
	r2.release <- nil

	deadline := time.Now().Add(5 * time.Second)
	for {
		got, err := p.Status("alice", st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if got.State == StateDone {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s after requeue", got.State)
		}
		time.Sleep(time.Millisecond)
	}
	if m := p.Snapshot(); m.Requeues != 1 {
		t.Fatalf("requeues = %d, want 1", m.Requeues)
	}
	// The dead worker receives nothing further even though the pool still
	// lists it: dispatch the next job and it must land on the survivor.
	if _, err := p.Submit("alice", SubmitRequest{Workload: "gzip", Instructions: 1000,
		Points: wirePoints(t, "A2", []int{8}, []int{4})}); err != nil {
		t.Fatal(err)
	}
	r3 := nextRun(t, survivor)
	r3.release <- nil
	select {
	case <-victim.runs:
		t.Fatal("dead worker was assigned another group")
	default:
	}
}

// TestCrashRecoveryResumesMidRun is the platform's crash drill: kill the
// platform mid-job (abrupt Close — the journal sees nothing a SIGKILL
// would not leave), restart on the same journal with fresh workers, and
// require that every point completes, the assembled results are
// byte-identical to an uninterrupted local run, and at least one point
// provably resumed from a persisted checkpoint instead of cycle 0.
func TestCrashRecoveryResumesMidRun(t *testing.T) {
	dir := t.TempDir()
	const instrs = 200_000

	pts := wirePoints(t, "R1", []int{8, 16}, []int{4, 8})

	// Phase 1: one slow worker, checkpointing every 2000 cycles. Wait for
	// the first checkpoint to hit the disk journal, then kill the platform.
	w1 := sweepd.NewLoopbackWorker(sweepd.LoopbackOptions{Parallelism: 1, CheckpointEvery: 2000})
	p1, err := New(Options{Pool: StaticPool{w1}, JournalDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	st, err := p1.Submit("alice", SubmitRequest{Workload: "gzip", Instructions: instrs, Points: pts})
	if err != nil {
		t.Fatal(err)
	}
	ckptDir := filepath.Join(dir, st.ID, "ckpt")
	deadline := time.Now().Add(30 * time.Second)
	for {
		if ents, err := os.ReadDir(ckptDir); err == nil && len(ents) > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no checkpoint persisted within 30s")
		}
		time.Sleep(2 * time.Millisecond)
	}
	p1.Close()

	// The job must not have finished: there is something left to recover.
	rec, err := (&journal{dir: dir}).loadJob(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if rec.terminal != "" {
		t.Fatalf("phase 1 left terminal=%q; want an unfinished job", rec.terminal)
	}

	// Phase 2: a fresh platform on the same journal. The job must re-enter
	// the queue (not be lost), finish, and resume past cycle 0.
	w2 := sweepd.NewLoopbackWorker(sweepd.LoopbackOptions{CheckpointEvery: 2000})
	p2, err := New(Options{Pool: StaticPool{w2}, JournalDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	m := p2.Snapshot()
	if m.RecoveredJobs != 1 || m.RecoveredCkpts == 0 {
		t.Fatalf("recovered jobs=%d ckpts=%d, want 1/>0", m.RecoveredJobs, m.RecoveredCkpts)
	}

	var wrs []*sweepd.WireResult
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	state, errStr, err := follow(ctx, p2, resultStream, "alice", st.ID, func(wr *sweepd.WireResult) error {
		wrs = append(wrs, wr)
		return nil
	})
	if err != nil || state != StateDone || errStr != "" {
		t.Fatalf("recovered job ended state=%s err=%q streamErr=%v, want done", state, errStr, err)
	}
	if len(wrs) != len(pts) {
		t.Fatalf("streamed %d results, want %d", len(wrs), len(pts))
	}
	if w2.ResumedCycles() == 0 {
		t.Fatal("no point resumed past cycle 0 on the recovered platform")
	}

	// Byte-identical to an uninterrupted run: assemble the job's results
	// and compare against the plain local runner on the same spec-derived
	// points.
	p2.mu.Lock()
	j := p2.jobs[st.ID]
	p2.mu.Unlock()
	got, err := sweepResultsOf(j.sj, j.results)
	if err != nil {
		t.Fatal(err)
	}
	runner := sweep.Runner{Workload: j.sj.Profile, Instructions: j.sj.Instructions,
		Traces: tracecache.New(tracecache.Config{})}
	want, err := runner.Run(context.Background(), j.sj.Points)
	if err != nil {
		t.Fatal(err)
	}
	gotJSON, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	if string(gotJSON) != string(wantJSON) {
		t.Fatalf("recovered results differ from an uninterrupted run\nrecovered: %.400s\nlocal:     %.400s", gotJSON, wantJSON)
	}

	// The journal is settled: terminal marker written, checkpoints cleared.
	rec, err = (&journal{dir: dir}).loadJob(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if rec.terminal != StateDone {
		t.Fatalf("journal terminal=%q, want done", rec.terminal)
	}
	if _, err := os.ReadDir(ckptDir); !os.IsNotExist(err) {
		t.Errorf("terminal job's checkpoint directory survived: %v", err)
	}
}
