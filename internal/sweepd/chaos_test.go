package sweepd_test

// The sweepd half of the chaos suite (docs/ROBUSTNESS.md): every schedule
// arms a deterministic, seeded fault against the wire layer of one
// "victim" worker in a two-worker cluster, runs the standard test job,
// and asserts the results are byte-identical to a fault-free local run.
// The injected faults are the real failure modes of a distributed sweep —
// a worker process hanging mid-group (TCP up, nothing flowing), a worker
// dying inside a frame write (torn frame on the coordinator's reader),
// and plain send/recv errors — and the invariant under all of them is the
// repository's north star: the fabric may lose workers, never results,
// and never determinism.

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/sweep"
	"repro/internal/sweepd"
	"repro/internal/workload"
)

// Fast liveness for chaos runs: a hung peer is declared dead after 300ms
// of silence instead of the production 20s, so a whole schedule table
// fits in CI. The margin (12 missed pings) absorbs scheduler hiccups
// under -race.
const (
	chaosPing = 25 * time.Millisecond
	chaosDead = 300 * time.Millisecond
)

// chaosRule derives one seeded fault rule for the victim's wire. The
// ordinal starts at 2 so the victim's hello (send #1 / recv #1) always
// completes — the victim must register before it can misbehave — and
// stays small enough to land among the job's own frames (the victim's
// group is two results and a group_end) rather than the idle heartbeats
// after it.
func chaosRule(seed int64, site string, do faults.Action, err error) faults.Rule {
	rng := rand.New(rand.NewSource(seed))
	return faults.Rule{Site: site, On: 2 + uint64(rng.Int63n(3)), Do: do, Err: err}
}

// TestChaosWireFaults is the seeded schedule table. Each entry builds a
// coordinator with fast liveness, a clean survivor worker and a victim
// worker armed with the schedule's injector, then proves the job
// completes byte-identical to the fault-free reference.
func TestChaosWireFaults(t *testing.T) {
	schedules := []struct {
		name string
		rule faults.Rule
	}{
		{"worker_hang_mid_group/seed1", chaosRule(1, sweepd.FaultWorkerSend, faults.Hang, nil)},
		{"worker_hang_mid_group/seed2", chaosRule(2, sweepd.FaultWorkerSend, faults.Hang, nil)},
		{"worker_kill_mid_frame/seed3", chaosRule(3, sweepd.FaultWorkerSend, faults.Fail, sweepd.ErrKillMidFrame)},
		{"worker_kill_mid_frame/seed4", chaosRule(4, sweepd.FaultWorkerSend, faults.Fail, sweepd.ErrKillMidFrame)},
		{"worker_recv_fail/seed5", chaosRule(5, sweepd.FaultWorkerRecv, faults.Fail, nil)},
		{"worker_send_fail/seed6", chaosRule(6, sweepd.FaultWorkerSend, faults.Fail, nil)},
	}
	if testing.Short() {
		schedules = schedules[:3] // one per fault family
	}
	job := testJob(t)
	want := mustJSON(t, reference(t, job))
	for _, sc := range schedules {
		t.Run(sc.name, func(t *testing.T) {
			inj := faults.NewInjector(sc.rule)
			t.Cleanup(inj.Close) // releases any goroutine parked in a Hang

			coord := sweepd.NewCoordinator()
			coord.HeartbeatInterval = chaosPing
			coord.HeartbeatTimeout = chaosDead
			addr, err := coord.Start("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { coord.Close() })

			wctx, stop := context.WithCancel(context.Background())
			t.Cleanup(stop)
			go sweepd.Work(wctx, addr, sweepd.WorkerOptions{Name: "survivor"}) //nolint:errcheck
			waitWorkers(t, coord, 1)
			go sweepd.Work(wctx, addr, sweepd.WorkerOptions{ //nolint:errcheck
				Name: "victim", Faults: inj,
			})
			// The victim registers (its hello is never faulted), but with a
			// small ordinal the schedule may kill it again within a few
			// heartbeats — so wait for either full registration or the
			// schedule having already fired.
			waitChaosVictim(t, coord, inj, sc.rule.Site)

			got, err := sweepd.RunRemote(context.Background(), addr, job, nil)
			if err != nil {
				t.Fatalf("job did not survive the fault schedule: %v", err)
			}
			if gotJSON := mustJSON(t, got); gotJSON != want {
				t.Fatalf("results under faults are not byte-identical to the fault-free reference\ngot:  %.300s\nwant: %.300s",
					gotJSON, want)
			}
			// The fault must actually have fired for the run to prove
			// anything. An ordinal the job's own frames didn't reach is
			// reached by the victim's heartbeats within a few intervals.
			fireBy := time.Now().Add(5 * time.Second)
			for inj.Fired(sc.rule.Site) == 0 {
				if time.Now().After(fireBy) {
					t.Fatalf("schedule never fired at %s: the run proved nothing", sc.rule.Site)
				}
				time.Sleep(2 * time.Millisecond)
			}
		})
	}
}

// TestChaosHungWorkerResumesFromCheckpoint is the acceptance shape of the
// heartbeat work: a worker that HANGS mid-group — connection established,
// frames stopped — is detected within the heartbeat timeout, counted and
// logged as a heartbeat death, and its group requeues on the survivor
// with the shipped checkpoint, provably resuming past cycle 0. The hang
// is armed event-triggered: only after the coordinator holds one of the
// victim's checkpoints does the victim's wire freeze, so the requeued
// group always carries resume state.
func TestChaosHungWorkerResumesFromCheckpoint(t *testing.T) {
	inj := faults.NewInjector()
	t.Cleanup(inj.Close)

	coord := sweepd.NewCoordinator()
	coord.HeartbeatInterval = chaosPing
	coord.HeartbeatTimeout = chaosDead

	ckptSeen := make(chan struct{})
	var once sync.Once
	var logMu sync.Mutex
	var hbDeaths, resumes []string
	coord.Log = recordLog(func(event string, attrs map[string]string) {
		if event == "sweepd.checkpoint_received" && attrs["worker"] == "victim" {
			once.Do(func() { close(ckptSeen) })
		}
		if event == "sweepd.worker_heartbeat_timeout" {
			logMu.Lock()
			hbDeaths = append(hbDeaths, fmt.Sprint(event, attrs))
			logMu.Unlock()
		}
	})
	addr, err := coord.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { coord.Close() })

	wctx, stop := context.WithCancel(context.Background())
	t.Cleanup(stop)
	go sweepd.Work(wctx, addr, sweepd.WorkerOptions{ //nolint:errcheck
		Name:            "survivor",
		CheckpointEvery: 2048,
		Log: recordLog(func(event string, attrs map[string]string) {
			if event == "sweepd.point_resumed" {
				logMu.Lock()
				resumes = append(resumes, fmt.Sprint(event, attrs))
				logMu.Unlock()
			}
		}),
	})
	go sweepd.Work(wctx, addr, sweepd.WorkerOptions{ //nolint:errcheck
		Name: "victim", CheckpointEvery: 2048, Faults: inj,
	})
	waitWorkers(t, coord, 2)
	go func() {
		<-ckptSeen
		// Freeze every subsequent victim send — heartbeats included, since
		// the injection point sits inside the write lock. From the
		// coordinator's side the victim is now a hung process.
		inj.Add(faults.Rule{Site: sweepd.FaultWorkerSend, Do: faults.Hang, Count: faults.All})
	}()

	// One group per worker, budgets long enough that checkpoints ship well
	// before either point completes (same sizing as the worker-death
	// resume test).
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
	want := mustJSON(t, reference(t, job))
	got, err := sweepd.RunRemote(context.Background(), addr, job, nil)
	if err != nil {
		t.Fatal(err)
	}
	if gotJSON := mustJSON(t, got); gotJSON != want {
		t.Fatal("results after a hung-worker requeue are not byte-identical to the reference")
	}
	logMu.Lock()
	defer logMu.Unlock()
	if len(hbDeaths) == 0 {
		t.Error("coordinator never logged sweepd.worker_heartbeat_timeout: the hang went undetected or was misclassified as a disconnect")
	}
	if len(resumes) == 0 {
		t.Error("survivor never resumed a point from a shipped checkpoint (requeued group restarted from cycle 0)")
	}
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

func waitWorkers(t *testing.T, coord *sweepd.Coordinator, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for coord.WorkerCount() < n {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d workers registered", coord.WorkerCount(), n)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// waitChaosVictim waits for the victim to register — or for its schedule
// to have already fired, which means it registered and died again before
// this poll caught the window.
func waitChaosVictim(t *testing.T, coord *sweepd.Coordinator, inj *faults.Injector, site string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for coord.WorkerCount() < 2 && inj.Fired(site) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("victim neither registered nor faulted")
		}
		time.Sleep(2 * time.Millisecond)
	}
}
