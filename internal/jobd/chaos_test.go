package jobd

// The jobd half of the chaos suite (docs/ROBUSTNESS.md): seeded fault
// schedules against the journal and the HTTP door, each asserting the
// invariant the platform promises — results byte-identical to an
// uninterrupted run, no matter which durability or admission path the
// schedule breaks. The sweepd half (wire faults, hung workers) lives in
// internal/sweepd/chaos_test.go.

import (
	"context"
	"encoding/json"
	"errors"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/sweep"
	"repro/internal/sweepd"
	"repro/internal/tracecache"
)

// chaosReference runs the submitted points through the plain local
// runner and returns the canonical result JSON.
func chaosReference(t *testing.T, sj *sweepd.Job) string {
	t.Helper()
	runner := sweep.Runner{Workload: sj.Profile, Instructions: sj.Instructions,
		Traces: tracecache.New(tracecache.Config{})}
	want, err := runner.Run(context.Background(), sj.Points)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// assembleJSON assembles a job's streamed results in point order and
// returns their JSON.
func assembleJSON(t *testing.T, sj *sweepd.Job, wrs []*sweepd.WireResult) string {
	t.Helper()
	got, err := sweepResultsOf(sj, wrs)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// streamAll streams a job to completion, collecting results by index.
func streamAll(t *testing.T, p *Platform, tenant, id string, n int) []*sweepd.WireResult {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	wrs := make([]*sweepd.WireResult, n)
	state, errStr, err := follow(ctx, p, resultStream, tenant, id, func(wr *sweepd.WireResult) error {
		wrs[wr.Index] = wr
		return nil
	})
	if err != nil || state != StateDone || errStr != "" {
		t.Fatalf("job ended state=%s err=%q streamErr=%v, want done", state, errStr, err)
	}
	return wrs
}

// TestChaosTornJournalRestart: a seeded schedule tears every journal
// append from ordinal N onward — half-written records, the on-disk
// signature of dying mid-write — so the job completes in memory but its
// log is garbage past the first torn byte and its terminal marker never
// lands. A restarted platform must truncate the torn tail (counted, not
// fatal), requeue the job, rerun the dropped points, and produce results
// byte-identical to an uninterrupted run.
func TestChaosTornJournalRestart(t *testing.T) {
	seeds := []int64{11, 12}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		t.Run("seed"+string(rune('0'+seed%10)), func(t *testing.T) {
			dir := t.TempDir()
			pts := wirePoints(t, "TJ", []int{8, 16}, []int{4, 8})

			inj := faults.NewInjector(faults.Rule{
				Site:  faultJournalAppend,
				On:    2 + uint64(seed%3), // within the job's 4 result appends
				Count: faults.All,
				Err:   errTornAppend,
			})
			defer inj.Close()
			w1 := sweepd.NewLoopbackWorker(sweepd.LoopbackOptions{})
			p1, err := New(Options{Pool: StaticPool{w1}, JournalDir: dir, Faults: inj})
			if err != nil {
				t.Fatal(err)
			}
			st, err := p1.Submit("alice", SubmitRequest{Workload: "gzip", Instructions: 6000, Points: pts})
			if err != nil {
				t.Fatal(err)
			}
			streamAll(t, p1, "alice", st.ID, len(pts)) // completes from memory
			if inj.Fired(faultJournalAppend) == 0 {
				t.Fatal("schedule never fired: the journal was not damaged")
			}
			p1.Close()

			// The restarted platform sees the damage: torn tail truncated,
			// job requeued (its terminal marker was torn), dropped points
			// rerun, results byte-identical.
			p2, err := New(Options{Pool: StaticPool{sweepd.NewLoopbackWorker(sweepd.LoopbackOptions{})},
				JournalDir: dir})
			if err != nil {
				t.Fatal(err)
			}
			defer p2.Close()
			m := p2.Snapshot()
			if m.RecoveredJobs != 1 || m.JournalTornTails == 0 {
				t.Fatalf("recovered jobs=%d tornTails=%d, want 1/>0", m.RecoveredJobs, m.JournalTornTails)
			}
			wrs := streamAll(t, p2, "alice", st.ID, len(pts))
			p2.mu.Lock()
			sj := p2.jobs[st.ID].sj
			p2.mu.Unlock()
			if got, want := assembleJSON(t, sj, wrs), chaosReference(t, sj); got != want {
				t.Fatalf("results after torn-journal recovery are not byte-identical\ngot:  %.300s\nwant: %.300s", got, want)
			}
		})
	}
}

// TestChaosRestartWithCheckpointFaults is the coordinator-restart
// schedule: the platform is killed abruptly mid-job while a seeded fault
// eats some of its checkpoint saves. The restart must recover the job,
// resume from whichever checkpoints did land, and finish byte-identical.
func TestChaosRestartWithCheckpointFaults(t *testing.T) {
	dir := t.TempDir()
	const instrs = 200_000
	pts := wirePoints(t, "CR", []int{8, 16}, []int{4, 8})

	// The first two checkpoint saves fail (tolerated, logged); later ones
	// land and carry the resume.
	inj := faults.NewInjector(faults.Rule{Site: faultJournalCkpt, On: 1, Count: 2})
	defer inj.Close()
	w1 := sweepd.NewLoopbackWorker(sweepd.LoopbackOptions{Parallelism: 1, CheckpointEvery: 2000})
	p1, err := New(Options{Pool: StaticPool{w1}, JournalDir: dir, Faults: inj})
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
	p1.Close() // abrupt: nothing a SIGKILL would not leave
	if inj.Fired(faultJournalCkpt) < 2 {
		t.Fatalf("checkpoint fault fired %d times, want 2", inj.Fired(faultJournalCkpt))
	}

	w2 := sweepd.NewLoopbackWorker(sweepd.LoopbackOptions{CheckpointEvery: 2000})
	p2, err := New(Options{Pool: StaticPool{w2}, JournalDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	if m := p2.Snapshot(); m.RecoveredJobs != 1 {
		t.Fatalf("recovered jobs=%d, want 1", m.RecoveredJobs)
	}
	wrs := streamAll(t, p2, "alice", st.ID, len(pts))
	if w2.ResumedCycles() == 0 {
		t.Error("no point resumed past cycle 0 despite surviving checkpoints")
	}
	p2.mu.Lock()
	sj := p2.jobs[st.ID].sj
	p2.mu.Unlock()
	if got, want := assembleJSON(t, sj, wrs), chaosReference(t, sj); got != want {
		t.Fatal("results after restart with checkpoint faults are not byte-identical")
	}
}

// TestChaosSubmit429Storm: the HTTP door refuses the first N submissions
// the way a saturated platform would (429 + Retry-After), and the
// client's retry policy must ride the storm out — honoring the server's
// advice per attempt — and the job must then run to byte-identical
// completion.
func TestChaosSubmit429Storm(t *testing.T) {
	storm := uint64(3)
	if testing.Short() {
		storm = 2
	}
	inj := faults.NewInjector(faults.Rule{Site: faultHTTPSubmit, On: 1, Count: storm})
	defer inj.Close()
	w := sweepd.NewLoopbackWorker(sweepd.LoopbackOptions{})
	p, err := New(Options{Pool: StaticPool{w}, Faults: inj})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	srv := httptest.NewServer(p.Handler())
	defer srv.Close()

	pts := wirePoints(t, "ST", []int{8, 16}, []int{4, 8})
	type try struct {
		attempt int
		delay   time.Duration
	}
	var tries []try
	c := &Client{Server: srv.URL, HTTPClient: srv.Client(), Retry: RetryPolicy{
		MaxAttempts: int(storm) + 2,
		Seed:        7,
		OnRetry: func(attempt int, err error, delay time.Duration) {
			tries = append(tries, try{attempt, delay})
			se := &StatusError{}
			if !errors.As(err, &se) || !se.IsRetryable() {
				t.Errorf("retry %d on non-retryable error %v", attempt, err)
			}
		},
	}}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	st, err := c.Submit(ctx, SubmitRequest{Workload: "gzip", Instructions: 6000, Points: pts})
	if err != nil {
		t.Fatalf("submission did not survive the 429 storm: %v", err)
	}
	if len(tries) != int(storm) {
		t.Fatalf("client retried %d times, want %d", len(tries), storm)
	}
	for _, tr := range tries {
		// The injected refusals advertise Retry-After: 1; the policy must
		// use the server's advice, not its own backoff.
		if tr.delay != time.Second {
			t.Errorf("attempt %d delayed %v, want the server-advertised 1s", tr.attempt, tr.delay)
		}
	}
	wrs := make([]*sweepd.WireResult, len(pts))
	state, err := c.Results(ctx, st.ID, func(wr *sweepd.WireResult) error {
		wrs[wr.Index] = wr
		return nil
	})
	if err != nil || state != StateDone {
		t.Fatalf("state=%s err=%v, want done", state, err)
	}
	p.mu.Lock()
	sj := p.jobs[st.ID].sj
	p.mu.Unlock()
	if got, want := assembleJSON(t, sj, wrs), chaosReference(t, sj); got != want {
		t.Fatal("results after the 429 storm are not byte-identical")
	}
}

// TestChaosCheckpointSavesAlwaysFail: graceful degradation — when every
// checkpoint persist fails, the platform must neither crash nor stall;
// it just loses resume state it never needed (no restart happens here)
// and the job completes byte-identical.
func TestChaosCheckpointSavesAlwaysFail(t *testing.T) {
	dir := t.TempDir()
	inj := faults.NewInjector(faults.Rule{Site: faultJournalCkpt, Count: faults.All})
	defer inj.Close()
	w := sweepd.NewLoopbackWorker(sweepd.LoopbackOptions{CheckpointEvery: 2000})
	p, err := New(Options{Pool: StaticPool{w}, JournalDir: dir, Faults: inj})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	pts := wirePoints(t, "CK", []int{8, 16}, []int{4, 8})
	st, err := p.Submit("alice", SubmitRequest{Workload: "gzip", Instructions: 50_000, Points: pts})
	if err != nil {
		t.Fatal(err)
	}
	wrs := streamAll(t, p, "alice", st.ID, len(pts))
	if inj.Fired(faultJournalCkpt) == 0 {
		t.Fatal("no checkpoint save was ever attempted: the schedule proved nothing")
	}
	p.mu.Lock()
	sj := p.jobs[st.ID].sj
	p.mu.Unlock()
	if got, want := assembleJSON(t, sj, wrs), chaosReference(t, sj); got != want {
		t.Fatal("results with failing checkpoint saves are not byte-identical")
	}
}
