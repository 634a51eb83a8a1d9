package core

// Progress is a periodic snapshot of a running simulation, delivered to an
// Observer. For single-engine runs Core is 0; a sweep reports the completed
// point's index, and a lockstep cluster reports -1 (cluster aggregate).
type Progress struct {
	Core      int
	Cycles    uint64
	Committed uint64
	IPC       float64
	// Done and Total report sweep-level completion: after this callback,
	// Done of Total design points have finished. Sweeps (local and
	// remote) populate both; single-engine runs and clusters leave
	// them zero. They are what a coordinator forwards to clients so a
	// dashboard can render "completed points / total" while shards are
	// still in flight.
	Done  int
	Total int
	// Final marks the last callback of a successful run (delivered once,
	// after the simulation drains or hits its cycle budget). Cancelled or
	// errored runs instead deliver one last non-Final snapshot before
	// returning, so observers always see the state the returned statistics
	// describe and never hang on a stale interval.
	Final bool
}

// Observer receives periodic progress callbacks from long-running
// simulations — the observation hook that lets sweeps and services report
// progress while a run is in flight. It generalizes the per-instruction
// PipeTracer hook to coarse per-interval statistics: callbacks arrive from
// a single goroutine per run at absolute multiples of
// Hooks.ObserverEvery (cycle N fires the callback for boundary N when
// N % interval == 0), NOT at intervals re-anchored to wherever the previous
// callback happened to land — so the callback cycle sequence is
// deterministic across runs and, for a run resumed from a checkpoint taken
// at a boundary, identical to the uninterrupted run's tail (see Drive).
// At a boundary shared with other hooks the observer runs last, after the
// context poll, checkpoint and telemetry; when any of them or the step
// fails it gets the last non-Final snapshot instead (see RunHooks).
// Implementations must be fast; they execute on the simulation path.
type Observer interface {
	Progress(Progress)
}

// ObserverFunc adapts a plain function to the Observer interface.
type ObserverFunc func(Progress)

// Progress implements Observer.
func (f ObserverFunc) Progress(p Progress) { f(p) }
