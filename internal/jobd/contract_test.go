package jobd

import (
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/sweep"
	"repro/internal/sweepd"
	"repro/internal/tracecache"
)

// The shared group contract: both schedulers — sweepd.Run for one job and
// the Platform over a StaticPool for many — must apply the same rules to
// what a worker reports. Results are first-write-wins with out-of-range
// indices dropped, a worker that returns nil with its group unfinished is
// dead and its remainder requeues on a survivor, a requeued assignment
// carries checkpoints only for unfinished points, and telemetry for a
// point that already has a result is not forwarded.

// contractSentinel marks the snapshots a script ships by hand, so the test
// can tell them from the survivor's real telemetry.
const contractSentinel = 1 << 60

// contractPool scripts the first group any of its workers receives; every
// later group runs honestly on a loopback worker and is recorded.
type contractPool struct {
	script func(ref []sweep.Result, gr sweepd.GroupRun, emit func(sweepd.PointResult))
	ref    []sweep.Result

	scripted atomic.Bool
	mu       sync.Mutex
	calls    map[*contractWorker]int
	requeued []sweepd.GroupRun
	scriptee *contractWorker
}

type contractWorker struct {
	pool   *contractPool
	honest *sweepd.LoopbackWorker
}

func (w *contractWorker) RunGroup(ctx context.Context, job *sweepd.Job, gr sweepd.GroupRun, emit func(sweepd.PointResult)) error {
	p := w.pool
	p.mu.Lock()
	p.calls[w]++
	p.mu.Unlock()
	if p.scripted.CompareAndSwap(false, true) {
		p.mu.Lock()
		p.scriptee = w
		p.mu.Unlock()
		p.script(p.ref, gr, emit)
		return nil // quits with the group unfinished: must count as death
	}
	p.mu.Lock()
	p.requeued = append(p.requeued, gr)
	p.mu.Unlock()
	return w.honest.RunGroup(ctx, job, gr, emit)
}

// contractOutcome is what one scheduler made of a scripted run.
type contractOutcome struct {
	results string // JSON of the results in point order
	tel     map[int][]core.IntervalSnapshot
}

// contractScheduler runs the job's points over the pool and reports the
// outcome.
type contractScheduler func(t *testing.T, sj *sweepd.Job, wps []sweepd.WirePoint, pool []sweepd.Worker) contractOutcome

const contractTelemetryEvery = 4096

func runContractSweepd(t *testing.T, sj *sweepd.Job, _ []sweepd.WirePoint, pool []sweepd.Worker) contractOutcome {
	t.Helper()
	var mu sync.Mutex
	o := contractOutcome{tel: make(map[int][]core.IntervalSnapshot)}
	job := *sj
	job.TelemetryEvery = contractTelemetryEvery
	job.OnTelemetry = func(index int, snap core.IntervalSnapshot) {
		mu.Lock()
		o.tel[index] = append(o.tel[index], snap)
		mu.Unlock()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	res, err := sweepd.Run(ctx, &job, pool, nil)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	o.results = string(data)
	return o
}

func runContractJobd(t *testing.T, sj *sweepd.Job, wps []sweepd.WirePoint, pool []sweepd.Worker) contractOutcome {
	t.Helper()
	p, err := New(Options{Pool: StaticPool(pool), TelemetryEvery: contractTelemetryEvery, TelemetryRing: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	st, err := p.Submit("t", SubmitRequest{Workload: sj.Profile.Name, Instructions: sj.Instructions, Points: wps})
	if err != nil {
		t.Fatal(err)
	}
	wrs := streamAll(t, p, "t", st.ID, len(wps))
	o := contractOutcome{results: assembleJSON(t, sj, wrs), tel: make(map[int][]core.IntervalSnapshot)}
	p.mu.Lock()
	snaps, _, _ := p.jobs[st.ID].telemetry.since(0)
	p.mu.Unlock()
	for _, s := range snaps {
		o.tel[s.Core] = append(o.tel[s.Core], s)
	}
	return o
}

func hasSentinel(snaps []core.IntervalSnapshot) bool {
	for _, s := range snaps {
		if s.StartCycle == contractSentinel {
			return true
		}
	}
	return false
}

func TestSchedulerContract(t *testing.T) {
	wps := reindex(wirePoints(t, "C", []int{16}, []int{4, 8, 12, 16}))
	sj, err := sweepd.JobFromWire(&sweepd.WireJob{Profile: mustProfile(t, "gzip"), Instructions: 20000, Points: wps})
	if err != nil {
		t.Fatal(err)
	}
	n := len(sj.Points)
	if g := sj.Groups(); len(g) != 1 {
		t.Fatalf("job has %d groups, want 1 (the script must own the whole job)", len(g))
	}
	runner := sweep.Runner{Workload: sj.Profile, Instructions: sj.Instructions,
		Traces: tracecache.New(tracecache.Config{})}
	ref, err := runner.Run(context.Background(), sj.Points)
	if err != nil {
		t.Fatal(err)
	}
	refJSON, err := json.Marshal(ref)
	if err != nil {
		t.Fatal(err)
	}
	bogus := func(i int) sweep.Result {
		return sweep.Result{Point: sj.Points[i%n], Err: errors.New("scripted result must be dropped")}
	}
	snap := func(i int) core.IntervalSnapshot {
		return core.IntervalSnapshot{Core: i, StartCycle: contractSentinel, EndCycle: contractSentinel + 1}
	}

	cases := []struct {
		name   string
		script func(ref []sweep.Result, gr sweepd.GroupRun, emit func(sweepd.PointResult))
		// requeued is the survivor's expected assignment.
		requeued []int
		// ckpts is the expected key set of the requeued checkpoints.
		ckpts []int
		check func(t *testing.T, o contractOutcome)
	}{{
		name: "duplicate and out-of-range results drop",
		script: func(ref []sweep.Result, _ sweepd.GroupRun, emit func(sweepd.PointResult)) {
			emit(sweepd.PointResult{Index: 0, Result: ref[0]})
			emit(sweepd.PointResult{Index: 0, Result: bogus(0)})
			emit(sweepd.PointResult{Index: -1, Result: bogus(1)})
			emit(sweepd.PointResult{Index: n, Result: bogus(2)})
		},
		requeued: []int{1, 2, 3},
	}, {
		name:     "nil return with the group unfinished is death",
		script:   func([]sweep.Result, sweepd.GroupRun, func(sweepd.PointResult)) {},
		requeued: []int{0, 1, 2, 3},
	}, {
		name: "requeue carries checkpoints of unfinished points only",
		script: func(ref []sweep.Result, gr sweepd.GroupRun, emit func(sweepd.PointResult)) {
			gr.OnCheckpoint(0, []byte("ckpt-0"))
			gr.OnCheckpoint(1, []byte("ckpt-1"))
			gr.OnCheckpoint(2, []byte("ckpt-2"))
			emit(sweepd.PointResult{Index: 0, Result: ref[0]})
			emit(sweepd.PointResult{Index: 2, Result: ref[2]})
			gr.OnCheckpoint(2, []byte("ckpt-2-late"))
			gr.OnCheckpoint(n, []byte("ckpt-out-of-range"))
		},
		requeued: []int{1, 3},
		ckpts:    []int{1},
	}, {
		name: "telemetry for a finished point is not forwarded",
		script: func(ref []sweep.Result, gr sweepd.GroupRun, emit func(sweepd.PointResult)) {
			emit(sweepd.PointResult{Index: 0, Result: ref[0]})
			gr.OnTelemetry(0, snap(0))
			gr.OnTelemetry(1, snap(1))
		},
		requeued: []int{1, 2, 3},
		check: func(t *testing.T, o contractOutcome) {
			if len(o.tel[0]) != 0 {
				t.Errorf("forwarded %d snapshots for point 0 after its result landed", len(o.tel[0]))
			}
			if !hasSentinel(o.tel[1]) {
				t.Error("snapshot for unfinished point 1 was not forwarded")
			}
		},
	}}
	schedulers := []struct {
		name string
		run  contractScheduler
	}{{"sweepd.Run", runContractSweepd}, {"jobd.Platform", runContractJobd}}

	for _, sc := range schedulers {
		for _, tc := range cases {
			t.Run(sc.name+"/"+tc.name, func(t *testing.T) {
				p := &contractPool{script: tc.script, ref: ref, calls: make(map[*contractWorker]int)}
				cache := tracecache.New(tracecache.Config{})
				var pool []sweepd.Worker
				for i := 0; i < 2; i++ {
					pool = append(pool, &contractWorker{pool: p,
						honest: sweepd.NewLoopbackWorker(sweepd.LoopbackOptions{Parallelism: 2, Traces: cache})})
				}
				o := sc.run(t, sj, wps, pool)
				if o.results != string(refJSON) {
					t.Error("results differ from the local sweep.Runner reference")
				}
				p.mu.Lock()
				defer p.mu.Unlock()
				if p.calls[p.scriptee] != 1 {
					t.Errorf("the worker that quit ran %d groups, want 1 (it must be retired)", p.calls[p.scriptee])
				}
				if len(p.requeued) != 1 {
					t.Fatalf("survivor ran %d groups, want 1 requeue", len(p.requeued))
				}
				gr := p.requeued[0]
				if !reflect.DeepEqual(gr.Indices, tc.requeued) {
					t.Errorf("requeued indices = %v, want %v", gr.Indices, tc.requeued)
				}
				var keys []int
				for k := range gr.Checkpoints {
					keys = append(keys, k)
				}
				sort.Ints(keys)
				if !reflect.DeepEqual(keys, tc.ckpts) {
					t.Errorf("requeued checkpoints for points %v, want %v", keys, tc.ckpts)
				}
				if tc.check != nil {
					tc.check(t, o)
				}
			})
		}
	}
}
