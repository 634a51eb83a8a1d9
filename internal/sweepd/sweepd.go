// Package sweepd is the sharded sweep service: coordinator/worker
// design-space exploration across processes and hosts. It scales the
// paper's bulk-simulation use case ("bulk simulations with varying design
// parameters") past one machine by sharding a sweep's design points across
// workers and streaming per-point results back as they finish.
//
// The scheduling unit is the trace key-group: every point whose (workload,
// derived trace configuration, instruction budget) hashes to the same
// tracecache.Key.ID() is routed to one worker, so each distinct trace is
// generated — or received as a shipped delta-compressed container — exactly
// once per host, no matter how many points replay it. Within a group the
// worker runs points through the ordinary sweep machinery against its own
// shared trace cache; across groups the scheduler fans out over every live
// worker and requeues a dead worker's unfinished points on a survivor.
//
// Workers come in two transports behind one Worker interface: the
// in-process LoopbackWorker (tests and in-process job platforms) and the
// network coordinator's registered workers (Coordinator + cmd/resimd).
// Jobs reach a coordinator through one door, the job service
// (internal/jobd): its HTTP API admits and fair-schedules every remote
// sweep, Session.SweepRemote included, over Coordinator.Workers. Run is
// the standalone scheduler over the same Ledger rules; the job service's
// contract tests and the benchmark's traced sweep drive it directly.
// Session.Sweep uses neither: a local sweep runs one sweep.Runner, with
// no requeue and no checkpoint shipping.
package sweepd

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/sweep"
	"repro/internal/tracecache"
	"repro/internal/workload"
)

// Job is one sweep job: the resolved workload profile, the per-point
// correct-path instruction budget, and the design points. Points keep their
// input order; results are always returned in that order.
type Job struct {
	Profile      workload.Profile
	Instructions uint64
	Points       []sweep.Point

	// CheckpointBudget caps the total bytes of resume checkpoints the
	// scheduler retains for this job (the latest checkpoint per unfinished
	// point, across all groups). When a new shipment would exceed it, the
	// least-recently-updated other points' checkpoints are dropped — those
	// points simply restart from cycle 0 if their worker dies, so a long
	// design-space job degrades resume granularity instead of growing
	// without bound. 0 means DefaultCheckpointBudget; negative disables
	// the cap. Scheduler policy, never serialized: the job service applies
	// its own budget to every job it admits.
	CheckpointBudget int64 `json:"-"`

	// TelemetryEvery, when non-zero, makes workers stream per-interval
	// engine telemetry for every in-flight point: each engine emits a
	// core.IntervalSnapshot window delta at every TelemetryEvery-cycle
	// boundary, tagged with the job-wide point index (Snapshot.Core). The
	// cadence crosses the wire with the job; the snapshots flow back
	// through OnTelemetry.
	TelemetryEvery uint64
	// OnTelemetry, when non-nil, receives every streamed snapshot. Delivery
	// is fire-and-forget — a slow or failing consumer never blocks or
	// aborts the sweep — and may be concurrent across points (in window
	// order within a point). Snapshots for points that already completed
	// (duplicate delivery after a requeue) are dropped by the scheduler.
	OnTelemetry func(index int, snap core.IntervalSnapshot) `json:"-"`
}

// DefaultCheckpointBudget bounds retained resume-checkpoint bytes per job
// (64 MiB ≈ several thousand points at the ~15 KiB a default engine
// checkpoint encodes to).
const DefaultCheckpointBudget = 64 << 20

// Group is one trace-key shard of a job: the indices of every point sharing
// one generated trace. The whole group is assigned to a single worker so
// the trace is produced once per host and replayed by the rest.
type Group struct {
	Key     tracecache.Key
	Indices []int
}

// Groups shards the job's points by trace key, preserving first-seen order.
// Points group by key equality, so a coordinator and its workers —
// potentially different processes — agree on the routing unit by
// construction; a caller that names a group outside the process uses its
// key's stable content address, Key.ID().
func (j *Job) Groups() []Group {
	byKey := make(map[tracecache.Key]int, len(j.Points))
	var gs []Group
	for i := range j.Points {
		k := tracecache.KeyFor(j.Profile, j.Points[i].Config.TraceConfig(), j.Instructions)
		gi, ok := byKey[k]
		if !ok {
			gi = len(gs)
			byKey[k] = gi
			gs = append(gs, Group{Key: k})
		}
		gs[gi].Indices = append(gs[gi].Indices, i)
	}
	return gs
}

// PointResult is one completed design point, tagged with its index in the
// job's point list.
type PointResult struct {
	Index  int
	Result sweep.Result
}

// GroupRun is one group assignment handed to a worker: the job-wide indices
// of the points still to simulate, plus the checkpoint channel in both
// directions — the latest prior checkpoints to resume from, and the hook
// for shipping new ones back to the scheduler.
type GroupRun struct {
	// Indices selects the job points to run, in job order.
	Indices []int
	// Checkpoints holds the latest serialized core.Checkpoint per job-wide
	// point index, captured by a previous owner of this group. A worker
	// resumes those points from their checkpointed cycle instead of cycle 0;
	// an entry that fails to decode or restore degrades to a fresh run.
	Checkpoints map[int][]byte
	// OnCheckpoint, when non-nil, receives serialized checkpoints as the
	// worker captures them (keyed by job-wide point index), so the scheduler
	// holds a recent resume point if this worker dies. May be called
	// concurrently from several point engines.
	OnCheckpoint func(index int, data []byte)
	// OnTelemetry, when non-nil, receives per-interval telemetry snapshots
	// as the worker's engines emit them (keyed by job-wide point index,
	// also stamped into Snapshot.Core). Same concurrency contract as
	// OnCheckpoint; the worker streams only when Job.TelemetryEvery is set.
	OnTelemetry func(index int, snap core.IntervalSnapshot)
}

// Worker runs assigned key-groups. Implementations: LoopbackWorker
// (in-process) and the coordinator's per-connection remote worker proxy.
type Worker interface {
	// RunGroup simulates the points of job selected by gr.Indices and calls
	// emit once per completed point, in completion order. A non-nil error
	// means the worker died mid-group: results already emitted stand, the
	// remainder is requeued on a live worker — resuming from the
	// checkpoints the dead worker shipped — and this worker receives no
	// further groups.
	RunGroup(ctx context.Context, job *Job, gr GroupRun, emit func(PointResult)) error
}

// CheckpointStore retains the latest shipped resume checkpoint per
// unfinished point of one job, under a total byte budget. Each job's
// Ledger keeps one, so concurrent jobs' stores are fully isolated, each
// enforcing only its own budget. It is safe for concurrent use.
type CheckpointStore struct {
	mu      sync.Mutex
	budget  int64 // <= 0: unlimited
	total   int64
	data    map[int][]byte
	stamp   map[int]uint64 // last-update tick, for least-recently-updated eviction
	tick    uint64
	dropped int // checkpoints evicted to stay under budget
}

// NewCheckpointStore builds a store capping retained checkpoint bytes at
// budget (<= 0: unlimited).
func NewCheckpointStore(budget int64) *CheckpointStore {
	return &CheckpointStore{budget: budget, data: make(map[int][]byte), stamp: make(map[int]uint64)}
}

// Put stores the latest checkpoint for index, evicting the
// least-recently-updated other points as needed to stay under budget. A
// checkpoint that could never fit even alone is rejected up front — the
// point keeps whatever older (still valid, just earlier) resume state it
// had, and no other point's state is harmed making room for it. Put
// reports whether it kept b.
func (s *CheckpointStore) Put(index int, b []byte) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.budget > 0 && int64(len(b)) > s.budget {
		s.dropped++
		return false
	}
	s.dropLocked(index) // a replaced shipment no longer counts toward the budget
	if s.budget > 0 {
		for s.total+int64(len(b)) > s.budget && len(s.data) > 0 {
			lru, lruStamp := -1, uint64(0)
			for i, st := range s.stamp {
				if lru < 0 || st < lruStamp {
					lru, lruStamp = i, st
				}
			}
			s.evictLocked(lru)
		}
	}
	s.tick++
	s.data[index] = b
	s.stamp[index] = s.tick
	s.total += int64(len(b))
	return true
}

// Get returns the stored checkpoint for index, or nil.
func (s *CheckpointStore) Get(index int) []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.data[index]
}

// Drop releases index's checkpoint (its result landed, or it was evicted
// by Put).
func (s *CheckpointStore) Drop(index int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.dropLocked(index)
}

// TotalBytes reports the bytes currently retained.
func (s *CheckpointStore) TotalBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.total
}

// Dropped reports checkpoints evicted or rejected to stay under budget.
func (s *CheckpointStore) Dropped() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dropped
}

func (s *CheckpointStore) dropLocked(index int) {
	if old, ok := s.data[index]; ok {
		s.total -= int64(len(old))
		delete(s.data, index)
		delete(s.stamp, index)
	}
}

func (s *CheckpointStore) evictLocked(index int) {
	if _, ok := s.data[index]; ok {
		s.dropLocked(index)
		s.dropped++
	}
}

// Run schedules the job's key-groups across workers and returns results in
// point order regardless of shard or worker completion order. emit, when
// non-nil, is called once per completed point (serialized) with the running
// completed/total counts. On worker failure the group's unfinished points
// are requeued on a live worker, which resumes each point from the latest
// checkpoint the dead worker shipped (engines are deterministic, so a
// resumed point's result is bit-identical to a from-scratch run); when no
// live worker remains the job fails. Cancelling the context aborts in-flight groups and returns
// ctx.Err() once every worker has drained.
func Run(ctx context.Context, job *Job, workers []Worker, emit func(res PointResult, done, total int)) ([]sweep.Result, error) {
	if len(job.Points) == 0 {
		return nil, fmt.Errorf("sweepd: no design points")
	}
	if len(workers) == 0 {
		return nil, fmt.Errorf("sweepd: no workers")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	l := NewLedger(job)
	total := len(job.Points)
	results := make([]sweep.Result, total)

	// Each group is either in the queue or held by exactly one worker, so
	// capacity len(groups) makes every requeue send non-blocking. Groups
	// queue in tracecache.ServeOrder, so workers sharing a trace cache
	// generate each family's longest trace first and derive the rest.
	groups := l.Groups()
	queue := make(chan int, len(groups))
	order := make([]int, len(groups))
	for g := range order {
		order[g] = g
	}
	slices.SortStableFunc(order, func(a, b int) int {
		return tracecache.ServeOrder(groups[a].Key.TC, groups[b].Key.TC)
	})
	for _, g := range order {
		queue <- g
	}

	var (
		mu        sync.Mutex
		completed int
		open      = len(l.Groups()) // groups not yet fully completed
		live      = len(workers)
		failErr   error
	)
	// finishGroupLocked marks one group fully done; the last group closes
	// the queue so idle workers drain. Callers hold mu.
	finishGroupLocked := func() {
		open--
		if open == 0 {
			close(queue)
		}
	}

	var wg sync.WaitGroup
	for _, w := range workers {
		wg.Add(1)
		go func(w Worker) {
			defer wg.Done()
			for {
				var g int
				var ok bool
				select {
				case <-runCtx.Done():
					return
				case g, ok = <-queue:
					if !ok {
						return
					}
				}
				gr := l.Assign(g)
				gr.OnCheckpoint = func(index int, data []byte) { l.Checkpoint(index, data) }
				if job.OnTelemetry != nil && job.TelemetryEvery > 0 {
					gr.OnTelemetry = func(index int, snap core.IntervalSnapshot) {
						// Forwarded outside every lock: telemetry fans out to
						// consumers the scheduler must never block on.
						if l.Pending(index) {
							job.OnTelemetry(index, snap)
						}
					}
				}
				left, err := l.Returned(g, w.RunGroup(runCtx, job, gr, func(pr PointResult) {
					mu.Lock()
					defer mu.Unlock()
					if !l.Record(pr.Index) {
						return
					}
					results[pr.Index] = pr.Result
					completed++
					if emit != nil && runCtx.Err() == nil {
						emit(pr, completed, total)
					}
				}))
				mu.Lock()
				if err == nil {
					finishGroupLocked()
					mu.Unlock()
					continue
				}
				if runCtx.Err() != nil {
					mu.Unlock()
					return
				}
				// Worker died. Its finished results stand; the remainder is
				// requeued for a surviving worker and this worker retires.
				live--
				if left == 0 {
					finishGroupLocked()
					mu.Unlock()
					return
				}
				if live == 0 {
					if failErr == nil {
						failErr = fmt.Errorf("sweepd: worker failed with no live workers left to requeue on: %w", err)
					}
					mu.Unlock()
					cancel()
					return
				}
				mu.Unlock()
				queue <- g
				return
			}
		}(w)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	mu.Lock()
	err := failErr
	mu.Unlock()
	if err != nil {
		return nil, err
	}
	return results, nil
}

// groupHost is what a worker transport brings to runGroup: its engine
// settings and the sinks for the group's output, keyed by job-wide point
// index. The loopback worker calls the scheduler's hooks behind its kill
// gate; the network worker sends frames on the wire.
type groupHost struct {
	parallelism     int
	traces          *tracecache.Cache // nil streams every point's trace
	checkpointEvery uint64
	observer        core.Observer

	// result never sees a point cut short by cancellation.
	result func(index int, res sweep.Result)
	// checkpoint and telemetry, when nil, switch capture off.
	checkpoint func(index int, data []byte)
	telemetry  func(index int, snap core.IntervalSnapshot)
	// resumed fires once a shipped checkpoint restored; undecodable, when
	// non-nil, observes one that did not decode (its point runs from
	// cycle 0).
	resumed     func(index int, cycles uint64)
	undecodable func(index int, err error)
}

// runGroup is the one place a worker turns an assigned group into a
// sweep.Runner run. job supplies the workload, budget and telemetry
// cadence; pts[i] is the job point with job-wide index indices[i]; resume
// holds shipped checkpoints by job-wide index. Every callback is mapped
// from group-local slots back to job-wide indices.
func runGroup(ctx context.Context, job *Job, pts []sweep.Point, indices []int, resume map[int][]byte, h groupHost) error {
	r := sweep.Runner{
		Workload:        job.Profile,
		Instructions:    job.Instructions,
		Parallelism:     h.parallelism,
		Traces:          h.traces,
		CheckpointEvery: h.checkpointEvery,
		TelemetryEvery:  job.TelemetryEvery,
	}
	for i, idx := range indices {
		data := resume[idx]
		if len(data) == 0 {
			continue
		}
		cp, err := core.DecodeCheckpoint(data)
		if err != nil {
			if h.undecodable != nil {
				h.undecodable(idx, err)
			}
			continue
		}
		if r.Resume == nil {
			r.Resume = make(map[int]*core.Checkpoint)
		}
		r.Resume[i] = cp
	}
	// Reported on successful restore only, so neither a counter nor a log
	// line ever claims a resume that degraded to a fresh run.
	r.OnResume = func(i int, cycles uint64) { h.resumed(indices[i], cycles) }
	r.OnResult = func(i int, res sweep.Result) {
		// A point cut short by cancellation is not a real outcome: withhold
		// it so the scheduler requeues the point instead of recording the
		// abort.
		if !abortedResult(res) {
			h.result(indices[i], res)
		}
	}
	if h.checkpoint != nil {
		r.OnCheckpoint = func(i int, cp *core.Checkpoint) {
			if data, err := cp.Encode(); err == nil {
				h.checkpoint(indices[i], data)
			}
		}
	}
	if h.telemetry != nil {
		r.OnTelemetry = func(i int, snap core.IntervalSnapshot) {
			snap.Core = indices[i]
			h.telemetry(indices[i], snap)
		}
	}
	if h.observer != nil {
		r.Observer = core.ObserverFunc(func(p core.Progress) {
			if p.Core >= 0 && p.Core < len(indices) {
				p.Core = indices[p.Core]
			}
			h.observer.Progress(p)
		})
	}
	_, err := r.Run(ctx, pts)
	return err
}

// errKilled reports a LoopbackWorker torn down by Kill.
var errKilled = errors.New("sweepd: worker killed")

// abortedResult reports a point result produced by cancellation rather than
// simulation: its error is the context's, so rerunning it elsewhere can
// still produce the real outcome. Genuine per-point failures (invalid
// configurations, engine errors) are deterministic and never context
// errors.
func abortedResult(res sweep.Result) bool {
	return errors.Is(res.Err, context.Canceled) || errors.Is(res.Err, context.DeadlineExceeded)
}

// LoopbackOptions configures one in-process worker.
type LoopbackOptions struct {
	// Parallelism bounds concurrent engines within one assigned group;
	// 0 uses GOMAXPROCS.
	Parallelism int
	// Traces is the worker's shared trace cache — the stand-in for one
	// host's cache. nil gives the worker a private cache, the loopback
	// analog of a fresh remote host.
	Traces *tracecache.Cache
	// CheckpointEvery, when non-zero, makes the worker serialize each
	// in-flight engine's state at every CheckpointEvery-cycle boundary and
	// ship it to the scheduler through GroupRun.OnCheckpoint, so a requeued
	// group resumes on a survivor instead of restarting from cycle 0.
	CheckpointEvery uint64
}

// LoopbackWorker runs key-groups in-process through the standard sweep
// machinery against its own trace cache. It is the loopback transport of
// the sweep service, a stand-in for one remote host: tests and in-process
// job platforms schedule onto it without a network, and Kill exercises the
// requeue path. Session.Sweep does not use it — a local sweep runs one
// sweep.Runner.
type LoopbackWorker struct {
	opts     LoopbackOptions
	traces   *tracecache.Cache
	killed   chan struct{}
	killOnce sync.Once
	resumed  atomic.Uint64 // simulated cycles skipped by resuming checkpoints
}

// NewLoopbackWorker builds one in-process worker.
func NewLoopbackWorker(opts LoopbackOptions) *LoopbackWorker {
	w := &LoopbackWorker{opts: opts, traces: opts.Traces, killed: make(chan struct{})}
	if w.traces == nil {
		// A private per-worker cache, like a remote host's: groups assigned
		// to this worker share it across RunGroup calls.
		w.traces = tracecache.New(tracecache.Config{})
	}
	return w
}

// Traces returns the worker's trace cache — tests assert generation
// counts per simulated host through it.
func (w *LoopbackWorker) Traces() *tracecache.Cache { return w.traces }

// ResumedCycles returns the total simulated cycles this worker skipped by
// resuming points from shipped checkpoints instead of cycle 0 — the
// Stats.Seeds-style counter tests assert requeue-resume through.
func (w *LoopbackWorker) ResumedCycles() uint64 { return w.resumed.Load() }

// Kill tears the worker down, aborting any in-flight group (its completed
// points stand; the scheduler requeues the rest) and refusing future
// assignments — the loopback equivalent of a worker host dying.
func (w *LoopbackWorker) Kill() {
	w.killOnce.Do(func() { close(w.killed) })
}

// RunGroup implements Worker.
func (w *LoopbackWorker) RunGroup(ctx context.Context, job *Job, gr GroupRun, emit func(PointResult)) error {
	// A dead host's unsent output never arrives: once killed, the worker
	// ships nothing more and the scheduler reruns the remainder elsewhere.
	alive := func() bool {
		select {
		case <-w.killed:
			return false
		default:
			return true
		}
	}
	if !alive() {
		return errKilled
	}
	gctx, cancel := context.WithCancel(ctx)
	defer cancel()
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		select {
		case <-w.killed:
			cancel()
		case <-stop:
		}
	}()

	pts := make([]sweep.Point, len(gr.Indices))
	for i, idx := range gr.Indices {
		pts[i] = job.Points[idx]
	}
	h := groupHost{
		parallelism:     w.opts.Parallelism,
		traces:          w.traces,
		checkpointEvery: w.opts.CheckpointEvery,
		result: func(index int, res sweep.Result) {
			if alive() {
				emit(PointResult{Index: index, Result: res})
			}
		},
		resumed: func(_ int, cycles uint64) { w.resumed.Add(cycles) },
	}
	if gr.OnCheckpoint != nil {
		h.checkpoint = func(index int, data []byte) {
			if alive() {
				gr.OnCheckpoint(index, data)
			}
		}
	}
	if gr.OnTelemetry != nil {
		h.telemetry = func(index int, snap core.IntervalSnapshot) {
			if alive() {
				gr.OnTelemetry(index, snap)
			}
		}
	}
	err := runGroup(gctx, job, pts, gr.Indices, gr.Checkpoints, h)
	if err != nil && !alive() {
		return fmt.Errorf("%w: %v", errKilled, err)
	}
	return err
}
