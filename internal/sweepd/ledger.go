package sweepd

import (
	"errors"
	"sync"
)

// errQuit is the death rule's verdict on a worker that returned from
// RunGroup without error but with points of its group still unfinished.
var errQuit = errors.New("sweepd: worker returned without completing its group")

// Ledger is one job's group bookkeeping: the rules every scheduler applies
// to what workers report, whatever its dispatch policy. Run keeps one per
// call; the job platform (internal/jobd) keeps one per admitted job.
//
// It records which points have a result (first write wins: a requeued
// group rerunning a point whose result was already recorded produces the
// same deterministic result, so later ones drop), retains the latest
// checkpoint of every unfinished point under the job's budget, and hands
// each assignment the group's unfinished points with their checkpoints.
// Its methods only report whether an event was accepted and never call
// out, so a scheduler may consult it under its own lock and run its side
// effects (storing, emitting, journaling) for accepted events only.
type Ledger struct {
	groups []Group
	ckpts  *CheckpointStore

	mu    sync.Mutex
	group []int  // point index -> position in groups
	done  []bool // point index -> its result was recorded
	left  []int  // group -> points still without a result
}

// NewLedger shards job into its key-groups and opens the checkpoint store
// under job.CheckpointBudget (0: DefaultCheckpointBudget, negative:
// unlimited).
func NewLedger(job *Job) *Ledger {
	budget := job.CheckpointBudget
	if budget == 0 {
		budget = DefaultCheckpointBudget
	}
	l := &Ledger{
		groups: job.Groups(),
		ckpts:  NewCheckpointStore(budget),
		group:  make([]int, len(job.Points)),
		done:   make([]bool, len(job.Points)),
	}
	l.left = make([]int, len(l.groups))
	for g, grp := range l.groups {
		l.left[g] = len(grp.Indices)
		for _, i := range grp.Indices {
			l.group[i] = g
		}
	}
	return l
}

// Groups returns the job's key-groups in first-seen order; the other
// methods name a group by its position here.
func (l *Ledger) Groups() []Group { return l.groups }

// Assign hands out group g: its points still without a result, in job
// order, and the latest checkpoint of each that has one. The caller wires
// the run's OnCheckpoint and OnTelemetry hooks.
func (l *Ledger) Assign(g int) GroupRun {
	l.mu.Lock()
	defer l.mu.Unlock()
	gr := GroupRun{Indices: make([]int, 0, l.left[g]), Checkpoints: make(map[int][]byte)}
	for _, i := range l.groups[g].Indices {
		if l.done[i] {
			continue
		}
		gr.Indices = append(gr.Indices, i)
		if data := l.ckpts.Get(i); len(data) > 0 {
			gr.Checkpoints[i] = data
		}
	}
	return gr
}

// Record accepts the result of point index if it is the point's first —
// out-of-range indices and duplicates report false — and releases the
// point's checkpoint, which is garbage once its result landed.
func (l *Ledger) Record(index int) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.pendingLocked(index) {
		return false
	}
	l.done[index] = true
	l.left[l.group[index]]--
	l.ckpts.Drop(index)
	return true
}

// Checkpoint retains data as point index's resume state if the point is
// still unfinished and the store kept it, and reports whether it did.
// Workers checkpoint each point monotonically and a requeued owner resumes
// from the stored cycle, so the latest shipment is always the furthest
// along; the store caps total retained bytes job-wide, evicting other
// points' resume state first, and rejects a checkpoint larger than the
// whole budget.
func (l *Ledger) Checkpoint(index int, data []byte) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(data) == 0 || !l.pendingLocked(index) {
		return false
	}
	return l.ckpts.Put(index, data)
}

// Pending reports whether index names a point still without a result —
// the staleness filter for telemetry: snapshots for finished points are
// duplicates from a requeued group rerunning finished work.
func (l *Ledger) Pending(index int) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.pendingLocked(index)
}

func (l *Ledger) pendingLocked(index int) bool {
	return index >= 0 && index < len(l.done) && !l.done[index]
}

// Left reports how many of group g's points still lack a result.
func (l *Ledger) Left(g int) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.left[g]
}

// Returned applies the death rule to a worker's RunGroup return for group
// g: it reports how many of the group's points still lack a result and
// the worker's error — or, when the worker returned nil with points left,
// an error of its own. A worker must either finish its group or report
// failure; one that returns early is retired like a dead one, so a buggy
// worker cannot requeue-loop forever.
func (l *Ledger) Returned(g int, err error) (left int, _ error) {
	left = l.Left(g)
	if err == nil && left > 0 {
		err = errQuit
	}
	return left, err
}
