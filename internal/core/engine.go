package core

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/bpred"
	"repro/internal/cache"
	"repro/internal/isa"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/uarch"
)

// instState tracks an instruction's progress through the simulated pipeline.
type instState uint8

const (
	stDispatched instState = iota // in RB, waiting for operands / FU
	stIssued                      // executing; completes at completeAt
	stCompleted                   // result broadcast by Writeback
)

// fetchedInst is an IFQ entry: a trace record plus the fetch-time annotations
// the engine attaches (instruction PC, wrong-path flag and, for branches the
// engine mispredicted, the correct-path resume PC).
type fetchedInst struct {
	seq        int64
	rec        trace.Record
	pc         uint32
	actualNext uint32
	wrongPath  bool
	mispred    bool
}

// robEntry is a reorder-buffer entry.
type robEntry struct {
	seq        int64
	rec        trace.Record
	pc         uint32
	actualNext uint32
	wrongPath  bool
	mispred    bool
	state      instState
	src1Seq    int64
	src2Seq    int64
	src1Rdy    bool
	src2Rdy    bool
	completeAt int64

	// Derived scheduling handles — never serialized, rebuilt by
	// rebuildDerived after a checkpoint restore. Ring slots are stable for
	// an entry's whole residence, so pointers are safe exactly as long as
	// the engine's structural invariants hold (pinned by the randomized
	// equivalence harness).
	//
	// lsq is this instruction's load/store queue entry (memory operations
	// only) — the O(1) handle that replaces searching the LSQ by sequence
	// number. slot indexes the engine's consumer-list table.
	lsq  *lsqEntry
	slot int32
}

// consRef is one pending operand registered on a producer's consumer list:
// the dependent entry and which of its operands (0 = src1, 1 = src2) the
// producer supplies.
type consRef struct {
	en *robEntry
	op uint8
}

// lsqEntry is a load/store queue entry.
type lsqEntry struct {
	seq       int64
	store     bool
	addr      uint32 // byte effective address
	size      uint32 // access width in bytes (1, 2 or 4)
	eaKnownAt int64  // cycle the effective address becomes known
	memReady  bool   // loads: cleared by Lsq_refresh to issue this cycle
	forwarded bool   // loads: value supplied by an older store in the LSQ
	memIssued bool   // loads: memory access performed
}

// overlaps reports whether the two accesses touch any common byte.
func (a *lsqEntry) overlaps(b *lsqEntry) bool {
	return a.addr < b.addr+b.size && b.addr < a.addr+a.size
}

// covers reports whether store s fully provides load l's bytes (the
// store-to-load forwarding condition; partial overlap cannot forward).
func (s *lsqEntry) covers(l *lsqEntry) bool {
	return s.addr <= l.addr && l.addr+l.size <= s.addr+s.size
}

const eaUnknown = math.MaxInt64

// fetchMode tracks which part of the trace fetch is consuming.
type fetchMode uint8

const (
	fmNormal    fetchMode = iota // correct-path records
	fmWrongPath                  // tagged records after a mispredicted branch
	fmStarved                    // waiting for mis-speculation resolution
)

// String names the fetch mode for diagnostics (the no-progress watchdog
// prints it, so a wedged-simulation report reads "mode=starved" instead of
// a bare ordinal).
func (m fetchMode) String() string {
	switch m {
	case fmNormal:
		return "normal"
	case fmWrongPath:
		return "wrong-path"
	case fmStarved:
		return "starved"
	}
	return fmt.Sprintf("fetchMode(%d)", uint8(m))
}

// Counters are the engine's 64-bit event counters (paper §V.B).
type Counters struct {
	Cycles            uint64
	Committed         uint64
	CommittedLoads    uint64
	CommittedStores   uint64
	CommittedBranches uint64

	FetchedTotal     uint64 // records fetched, wrong path included
	WrongPathFetched uint64
	FetchIdle        uint64 // cycles fetch was serving a penalty or miss
	FetchStarved     uint64 // cycles fetch waited for resolution with no records

	BPLookups          uint64
	Misfetches         uint64
	MispredDetected    uint64 // at fetch
	MispredResolved    uint64 // at commit (recoveries)
	MispredStarved     uint64 // mispredicts with no wrong-path block in the trace
	WPBlocksEntered    uint64
	WPBlocksSkipped    uint64 // blocks discarded because the engine predicted correctly
	WPRecordsDiscarded uint64 // tagged records skipped ("discarded" per §V.A)

	RBFullStalls    uint64
	LSQFullStalls   uint64
	StorePortStalls uint64

	Issued                uint64
	LoadsForwarded        uint64
	LoadFirstSlotDeferred uint64 // optimized organization slot-0 deferrals

	// Per-class branch detail (§V.B: ReSim "collects detailed information
	// about branches"). Indexed by isa.CtrlKind; [0] is unused.
	BranchesByKind   [7]uint64 // committed, per control kind
	MispredictByKind [7]uint64 // fetch-detected mispredictions, per kind
	TakenBranches    uint64    // committed taken branches
	RASPops          uint64    // return-address stack pops at fetch
	RASEmptyPops     uint64    // returns predicted with an empty RAS
}

// Engine is a ReSim instance: a trace-driven timing simulation of one
// out-of-order processor.
type Engine struct {
	cfg Config //resim:ckpt-exempt immutable configuration; guarded by ConfigDigest, rebuilt by New on restore
	// tracer is the PipeTracer of the RunHooks call in progress; nil
	// otherwise, so engines stepped through Cycle alone never trace.
	//resim:ckpt-exempt per-run hook, not simulated state
	tracer PipeTracer
	src    *trace.Buffered

	bp     *bpred.Predictor
	icache *cache.Memory
	dcache *cache.Memory

	ifq   *uarch.Ring[fetchedInst]
	rob   *uarch.Ring[robEntry]
	lsq   *uarch.Ring[lsqEntry]
	rt    *uarch.RenameTable
	fus   *uarch.FUPool
	ports *uarch.MemPorts //resim:ckpt-exempt per-cycle port usage; NewCycle clears it at every major-cycle boundary, checkpoints land between cycles

	now           int64
	seq           int64
	fetchPC       uint32
	fetchResumeAt int64
	mode          fetchMode
	srcDone       bool
	lastCommitAt  int64

	c      Counters
	ifqOcc stats.Occupancy
	rbOcc  stats.Occupancy
	lsqOcc stats.Occupancy

	// Event-aware scheduling state. All of it is derived — rebuilt from the
	// architectural state by rebuildDerived (checkpoint restore) and cleared
	// wholesale on mis-speculation recovery — so the serialized
	// checkpoint format does not carry it. Entries are referenced by
	// pointer: ring slots are stable for an entry's whole residence.
	// Invariants:
	//
	//   - readyQ holds every dispatched entry whose register operands are
	//     all ready, in age order. issue consumes it instead of scanning
	//     the reorder buffer.
	//   - wbNext holds entries completing exactly next cycle (the 1-cycle
	//     fast lane), age-ordered; wbHeap is a min-heap on (completeAt,
	//     seq) of the rest still executing; wbReady holds
	//     completed-but-not-yet-broadcast entries (Width overflow), in age
	//     order. writeback drains the lane and the heap instead of
	//     scanning the reorder buffer.
	//   - cons[en.slot] lists the operands waiting on producer en (slot =
	//     dispatch-time absolute index & consMask; cons is sized to the
	//     next power of two ≥ RBSize, and resident entries span fewer
	//     absolute indices than that, so live entries never collide). wake
	//     walks the producer's list instead of scanning the reorder
	//     buffer; the list is emptied at broadcast, so a slot is always
	//     clean when a future entry reuses it.
	readyQ    []*robEntry //resim:derived
	wbReady   []*robEntry //resim:derived
	wbHeap    []wbItem    //resim:derived
	wbNext    []*robEntry //resim:derived completions due exactly next cycle (the 1-cycle-latency fast lane)
	cons      [][]consRef //resim:derived
	consMask  int64       //resim:ckpt-exempt sized by New to the next power of two >= RBSize; pure config
	lsqLoads  int         //resim:derived resident LSQ loads; lsqRefresh is a no-op without any
	lsqStores []*lsqEntry //resim:ckpt-exempt lsqRefresh per-cycle scratch: older stores seen so far
	// prodPtr mirrors the rename table with the producer's reorder-buffer
	// entry, letting dispatch register a consumer without a search. Only
	// meaningful for registers whose rename entry names a producer.
	prodPtr [isa.NumRegs]*robEntry //resim:derived
}

// wbItem schedules one issued instruction's completion broadcast.
type wbItem struct {
	at int64 // completeAt
	en *robEntry
}

// ErrNoProgress reports a wedged simulation (an engine bug or a malformed
// trace), diagnosed by the commit watchdog.
var ErrNoProgress = errors.New("core: no commit progress (wedged simulation)")

// watchdogCycles is how long the engine tolerates zero commits before
// declaring the simulation wedged.
const watchdogCycles = 200_000

// New builds an engine over the given trace source. startPC seeds the fetch
// PC (trace.Header.StartPC for file traces; the program entry point for
// on-the-fly sources). The engine builds one cold cache.Memory per side
// from cfg.ICache and cfg.DCache.
func New(cfg Config, src trace.Source, startPC uint32) (*Engine, error) {
	return NewSharing(cfg, src, startPC, nil)
}

// NewSharing is New for an engine whose D-side L2 is the given instance,
// shared with other engines (a multicore cluster's one L2), instead of a
// private one. l2, when non-nil, must have cfg.DCache.L2's geometry.
func NewSharing(cfg Config, src trace.Source, startPC uint32, l2 *cache.Cache) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if l2 != nil && l2.Config() != cfg.DCache.L2 {
		return nil, fmt.Errorf("core: shared L2 %+v, the configuration names %+v", l2.Config(), cfg.DCache.L2)
	}
	e := &Engine{
		cfg:     cfg,
		src:     trace.NewBuffered(src),
		icache:  cfg.ICache.Build(nil),
		dcache:  cfg.DCache.Build(l2),
		ifq:     uarch.NewRing[fetchedInst](cfg.IFQSize),
		rob:     uarch.NewRing[robEntry](cfg.RBSize),
		lsq:     uarch.NewRing[lsqEntry](cfg.LSQSize),
		rt:      uarch.NewRenameTable(),
		fus:     uarch.NewFUPool(cfg.FUs),
		ports:   uarch.NewMemPorts(cfg.MemReadPorts, cfg.MemWritePorts),
		fetchPC: startPC,
	}
	if !cfg.PerfectBP {
		e.bp = bpred.New(cfg.Predictor)
	}
	e.ifqOcc = stats.Occupancy{Name: "IFQ_occupancy", Desc: "instruction fetch queue", Cap: cfg.IFQSize}
	e.rbOcc = stats.Occupancy{Name: "RB_occupancy", Desc: "reorder buffer", Cap: cfg.RBSize}
	e.lsqOcc = stats.Occupancy{Name: "LSQ_occupancy", Desc: "load/store queue", Cap: cfg.LSQSize}
	consSlots := 1
	for consSlots < cfg.RBSize {
		consSlots <<= 1
	}
	e.cons = make([][]consRef, consSlots)
	for i := range e.cons {
		e.cons[i] = make([]consRef, 0, 4)
	}
	e.consMask = int64(consSlots - 1)
	e.readyQ = make([]*robEntry, 0, cfg.RBSize)
	e.wbReady = make([]*robEntry, 0, cfg.RBSize)
	e.wbNext = make([]*robEntry, 0, cfg.Width*2)
	e.wbHeap = make([]wbItem, 0, cfg.RBSize)
	e.lsqStores = make([]*lsqEntry, 0, cfg.LSQSize)
	return e, nil
}

// Config returns the engine configuration.
func (e *Engine) Config() Config { return e.cfg }

// Now returns the current major-cycle number.
func (e *Engine) Now() int64 { return e.now }

// Done reports whether the simulation has drained: trace exhausted and no
// in-flight instructions.
func (e *Engine) Done() bool {
	return e.srcDone && e.ifq.Empty() && e.rob.Empty()
}

// Cycle advances one major cycle. The simulated architecture's semantics are
// enforced between major cycles; stages evaluate in the reference order
// Commit, Writeback, Lsq_refresh, Issue, Dispatch, Fetch.
func (e *Engine) Cycle() error {
	e.ports.NewCycle()
	if err := e.commit(); err != nil {
		return err
	}
	e.writeback()
	e.lsqRefresh()
	e.issue()
	e.dispatch()
	e.fetch()

	e.ifqOcc.Sample(e.ifq.Len())
	e.rbOcc.Sample(e.rob.Len())
	e.lsqOcc.Sample(e.lsq.Len())

	e.now++
	e.c.Cycles++
	return e.checkWatchdog()
}

// checkWatchdog diagnoses a wedged simulation after a cycle (or bulk idle
// skip) has been accounted.
func (e *Engine) checkWatchdog() error {
	if e.now-e.lastCommitAt > watchdogCycles {
		return fmt.Errorf("%w at cycle %d: rob=%d ifq=%d mode=%v", ErrNoProgress, e.now, e.rob.Len(), e.ifq.Len(), e.mode)
	}
	return nil
}

// stepFast is the run-loop step RunHooks drives: it advances the
// simulation until the next control boundary (the earliest pending hook
// boundary, cycle budget, completion), bulk-skipping provably idle regions
// on the way. When fetch is serving a penalty or
// miss (or is starved or out of records), nothing can commit, broadcast or
// issue before a known future cycle — every skipped cycle would only have
// incremented Cycles, the fetch idle/starved counters and the occupancy
// accumulators, which skipIdle applies in one arithmetic update,
// byte-identical to stepping. Active cycles run in a tight loop here, so
// the drive loop's per-step bookkeeping amortizes over thousands of
// cycles. Per-cycle callers (Engine.Cycle, the lockstep multicore cluster)
// are unaffected.
func (e *Engine) stepFast(hooks []hook) error {
	limit := e.stepLimit(hooks)
	for {
		if n := e.idleCycles(limit); n >= 1 {
			e.skipIdle(n)
			if err := e.checkWatchdog(); err != nil {
				return err
			}
		} else if err := e.Cycle(); err != nil {
			return err
		}
		if e.c.Cycles >= limit || e.Done() {
			// A source that ended in an error, not io.EOF, fails the run
			// instead of ending the trace early.
			return e.src.Err()
		}
	}
}

// stepLimit returns the absolute Cycles count at which stepFast must hand
// control back to the drive loop: the earliest pending hook boundary (so
// hook cadence stays on absolute interval multiples as Drive documents),
// capped to the MaxCycles budget.
func (e *Engine) stepLimit(hooks []hook) uint64 {
	limit := uint64(math.MaxUint64)
	for i := range hooks {
		limit = min(limit, hooks[i].next)
	}
	if e.cfg.MaxCycles != 0 && e.cfg.MaxCycles < limit {
		limit = e.cfg.MaxCycles
	}
	return limit
}

// idleCycles returns how many cycles starting at e.now are provably no-ops,
// bounded so the skip never crosses a cycle where simulated state can
// change, the stepFast control boundary (limit, an absolute Cycles count),
// or the point where the no-progress watchdog fires. 0 means the next
// cycle must execute normally.
func (e *Engine) idleCycles(limit uint64) int64 {
	// Any queued work means the next cycle can act.
	if !e.ifq.Empty() || len(e.readyQ) > 0 || len(e.wbReady) > 0 || len(e.wbNext) > 0 {
		return 0
	}
	if !e.rob.Empty() && e.rob.Front().state == stCompleted {
		return 0 // commit would retire the head
	}
	// Fetch: inert for good when starved or out of records; otherwise idle
	// exactly until fetchResumeAt.
	inert := e.mode == fmStarved || e.srcDone
	until := int64(math.MaxInt64)
	if !inert {
		if e.now >= e.fetchResumeAt {
			return 0 // fetch runs this cycle
		}
		until = e.fetchResumeAt
	}
	// Writeback: the earliest completion wakes dependents and re-arms
	// commit/issue. (LSQ readiness recomputation needs no event here: with
	// an empty ready queue nothing can issue, and lsqRefresh recomputes its
	// verdicts from persistent state before the next issue either way.)
	if len(e.wbHeap) > 0 && e.wbHeap[0].at < until {
		until = e.wbHeap[0].at
	}
	// The watchdog must fire at the same cycle, with the same counters, as
	// under per-cycle stepping.
	if w := e.lastCommitAt + watchdogCycles + 1; w < until {
		until = w
	}
	n := until - e.now
	if n < 1 {
		return 0
	}
	// Stop exactly at the control boundary (the next hook boundary or the
	// cycle budget — stepLimit folded them all in).
	if left := int64(limit - e.c.Cycles); left < n {
		n = left
	}
	return n
}

// skipIdle bulk-applies n idle cycles' worth of counter and occupancy
// updates: fetch-idle cycles while the resume penalty runs, fetch-starved
// cycles beyond it when fetch waits for mis-speculation resolution, and one
// occupancy sample per structure per cycle at the (constant) current
// lengths.
func (e *Engine) skipIdle(n int64) {
	idle := int64(0)
	if e.fetchResumeAt > e.now {
		idle = e.fetchResumeAt - e.now
		if idle > n {
			idle = n
		}
	}
	e.c.FetchIdle += uint64(idle)
	if e.mode == fmStarved {
		e.c.FetchStarved += uint64(n - idle)
	}
	e.ifqOcc.SampleN(0, uint64(n)) // idle regions require an empty IFQ
	e.rbOcc.SampleN(e.rob.Len(), uint64(n))
	e.lsqOcc.SampleN(e.lsq.Len(), uint64(n))
	e.now += n
	e.c.Cycles += uint64(n)
}

// CtxCheckInterval is how many major cycles elapse between context polls in
// RunHooks: frequent enough that cancellation lands promptly, amortized
// enough that the cycle loop stays fast.
const CtxCheckInterval = 8192

// DefaultObserverInterval is the period (major cycles) of every interval
// hook — Observer, Checkpoint, Telemetry — whose Hooks interval is zero.
const DefaultObserverInterval = 65536

// Hooks are one run's callbacks, handed to RunHooks. They are not part of
// the simulated machine: no hook affects simulated state, so a run with
// hooks returns the Result a hook-free run does. Each interval hook fires
// at absolute multiples of its interval (0 = DefaultObserverInterval).
type Hooks struct {
	// PipeTracer, when non-nil, receives per-instruction pipeline events
	// (the sim-outorder "ptrace" facility; see internal/ptrace).
	PipeTracer PipeTracer
	// Observer, when non-nil, receives a Progress every ObserverEvery
	// major cycles.
	Observer      Observer
	ObserverEvery uint64
	// Checkpoint, when non-nil, receives the engine's serialized state (a
	// complete Checkpoint) every CheckpointEvery cycles. An error aborts
	// the run.
	Checkpoint      func(*Checkpoint) error
	CheckpointEvery uint64
	// Telemetry, when non-nil, receives an IntervalSnapshot — the window
	// delta of every counter, cache statistic and occupancy — every
	// TelemetryEvery cycles. An error aborts the run.
	Telemetry      func(IntervalSnapshot) error
	TelemetryEvery uint64
}

// Run simulates until the trace drains (or cfg.MaxCycles elapse) and returns
// the result.
func (e *Engine) Run() (Result, error) {
	return e.RunContext(context.Background())
}

// RunContext is Run with cooperative cancellation: a cancelled run returns
// the statistics accumulated so far together with ctx.Err(). It runs no
// hooks; RunHooks does.
func (e *Engine) RunContext(ctx context.Context) (Result, error) {
	return e.RunHooks(ctx, Hooks{})
}

// RunHooks is RunContext with the hooks h enables. The tracer sees every
// instruction of this run. The interval hooks run at a shared boundary in
// this order:
//
//  1. the context poll every CtxCheckInterval cycles; a cancelled run
//     returns the statistics accumulated so far together with ctx.Err();
//  2. Checkpoint, handed the engine's complete serialized state;
//  3. Telemetry, handed an IntervalSnapshot window delta, and a Final one
//     covering the last partial window when the run drains;
//  4. Observer, handed a Progress, and a Final one when the run drains.
//
// When the step or a hook fails, telemetry and observer — the hooks with a
// final call — each get one last non-Final call instead (the failing hook
// excepted), so streamed windows sum to and observers see exactly the
// statistics the run returns.
func (e *Engine) RunHooks(ctx context.Context, h Hooks) (Result, error) {
	e.tracer = h.PipeTracer
	defer func() { e.tracer = nil }()
	var sinks []hook
	if sink := h.Checkpoint; sink != nil {
		sinks = append(sinks, hook{every: h.CheckpointEvery, fn: func(bool) error {
			return sink(e.Checkpoint())
		}})
	}
	if h.Telemetry != nil {
		tel := e.startTelemetry(h.Telemetry)
		sinks = append(sinks, hook{every: h.TelemetryEvery, fn: tel.emit, final: true})
	}
	hooks, err := hookList(ctx, h.Observer, h.ObserverEvery, e.progress, sinks...)
	if err == nil {
		err = drive(hooks,
			func() uint64 { return e.c.Cycles },
			func() bool {
				return e.Done() || (e.cfg.MaxCycles != 0 && e.c.Cycles >= e.cfg.MaxCycles)
			},
			func() error { return e.stepFast(hooks) })
	}
	return e.result(), err
}

// Drive is the run loop shared by Engine.RunHooks and the multicore
// cluster: it calls step until done reports true, polling the context
// every CtxCheckInterval simulated cycles and delivering Progress
// callbacks at every interval-cycle boundary (0 = DefaultObserverInterval)
// plus a final one on completion, so cancellation cadence and observer
// semantics live in exactly one place.
//
// Hook boundaries are absolute multiples of their interval (cycle N fires
// the hook covering boundary N when N % interval == 0, or the first cycle at
// or past it for step functions that advance more than one cycle), not
// offsets from wherever the previous call happened to land — so the
// callback cycle sequence is deterministic across runs and, for a resumed
// run starting at a boundary, identical to the uninterrupted run's.
//
// Cancellation and step errors deliver one last non-Final progress snapshot
// (so observers see the state the returned statistics describe) and end the
// loop; the Final callback marks successful completion only. RunHooks
// documents the full hook order and interruption rule.
func Drive(ctx context.Context, obs Observer, interval uint64,
	cycles func() uint64, done func() bool, step func() error,
	progress func(final bool) Progress) error {
	hooks, err := hookList(ctx, obs, interval, progress)
	if err != nil {
		return err
	}
	return drive(hooks, cycles, done, step)
}

// hook is one interval callback of the run loop: fn runs between steps at
// every absolute multiple of every cycles. A final hook also runs once with
// final=true when the run completes, and once with final=false when the
// step or another hook fails.
type hook struct {
	every uint64
	fn    func(final bool) error
	final bool
	next  uint64 // the pending boundary: drive advances it, stepLimit stops at it
}

// hookList builds a run's hook list in RunHooks's order — the context
// poll, then sinks, then the observer when one is set — with zero intervals
// defaulted, or returns the context's error when it is already done.
func hookList(ctx context.Context, obs Observer, interval uint64,
	progress func(final bool) Progress, sinks ...hook) ([]hook, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	hooks := append(make([]hook, 0, len(sinks)+2),
		hook{every: CtxCheckInterval, fn: func(bool) error { return ctx.Err() }})
	hooks = append(hooks, sinks...)
	if obs != nil {
		hooks = append(hooks, hook{every: interval, final: true, fn: func(final bool) error {
			obs.Progress(progress(final))
			return nil
		}})
	}
	for i := range hooks {
		if hooks[i].every == 0 {
			hooks[i].every = DefaultObserverInterval
		}
	}
	return hooks, nil
}

// drive is the loop behind Drive and RunHooks: after every step it calls
// each hook whose boundary the step reached, in list order; on completion
// it calls the final hooks with final=true. When the step or hook k fails,
// every final hook other than k gets fn(false), in list order, and the
// loop returns the error.
func drive(hooks []hook, cycles func() uint64, done func() bool, step func() error) error {
	for i := range hooks {
		hooks[i].next = nextBoundary(cycles(), hooks[i].every)
	}
	interrupt := func(failed int, err error) error {
		for i := range hooks {
			if hooks[i].final && i != failed {
				hooks[i].fn(false) //nolint:errcheck // the run is already ending
			}
		}
		return err
	}
	for !done() {
		if err := step(); err != nil {
			return interrupt(-1, err)
		}
		c := cycles()
		for i := range hooks {
			if h := &hooks[i]; c >= h.next {
				h.next = nextBoundary(c, h.every)
				if err := h.fn(false); err != nil {
					return interrupt(i, err)
				}
			}
		}
	}
	for i := range hooks {
		if hooks[i].final {
			if err := hooks[i].fn(true); err != nil {
				return interrupt(i, err)
			}
		}
	}
	return nil
}

// nextBoundary returns the first multiple of interval strictly after c.
func nextBoundary(c, interval uint64) uint64 {
	return (c/interval + 1) * interval
}

// progress snapshots the counters an Observer sees.
func (e *Engine) progress(final bool) Progress {
	p := Progress{Cycles: e.c.Cycles, Committed: e.c.Committed, Final: final}
	if e.c.Cycles > 0 {
		p.IPC = float64(e.c.Committed) / float64(e.c.Cycles)
	}
	return p
}

// Result snapshots the current statistics; usable mid-run by callers that
// drive Cycle directly (e.g. the multicore cluster).
func (e *Engine) Result() Result { return e.result() }

// clearDerived empties the event-scheduling structures (ready queue,
// writeback heap and overflow queue, consumer lists), retaining their
// backing storage. Called whenever the in-flight window empties wholesale:
// mis-speculation recovery, and as the first step of rebuildDerived.
func (e *Engine) clearDerived() {
	e.readyQ = e.readyQ[:0]
	e.wbReady = e.wbReady[:0]
	e.wbHeap = e.wbHeap[:0]
	e.wbNext = e.wbNext[:0]
	e.lsqLoads = 0
	for i := range e.cons {
		e.cons[i] = e.cons[i][:0]
	}
}

// ---------------------------------------------------------------------------
// Commit

func (e *Engine) commit() error {
	width := e.cfg.Width
	for committed := 0; committed < width && !e.rob.Empty(); committed++ {
		en := e.rob.Front()
		if en.state != stCompleted {
			break
		}
		if en.wrongPath {
			return fmt.Errorf("core: wrong-path instruction seq %d reached commit (engine bug)", en.seq)
		}
		isMem := en.rec.Kind == trace.KindMem
		if isMem && en.rec.Store {
			// "Commit commits the oldest RB entry releasing Store Operations
			// to memory, if a memory write port is available" (§III). Store
			// misses do not stall commit (write-buffer assumption).
			if !e.ports.TryWrite() {
				e.c.StorePortStalls++
				break
			}
			e.dcache.Access(en.rec.Addr, true)
		}
		if isMem {
			if e.lsq.Empty() || e.lsq.Front().seq != en.seq {
				return fmt.Errorf("core: LSQ head out of sync at commit of seq %d", en.seq)
			}
			e.lsq.DropFront()
			if !en.rec.Store {
				e.lsqLoads--
			}
		}

		e.c.Committed++
		e.lastCommitAt = e.now
		if e.tracer != nil {
			e.tracer.Stage(en.seq, e.now, "commit")
		}
		switch en.rec.Kind {
		case trace.KindMem:
			if en.rec.Store {
				e.c.CommittedStores++
			} else {
				e.c.CommittedLoads++
			}
		case trace.KindBranch:
			e.c.CommittedBranches++
			if k := int(en.rec.Ctrl); k < len(e.c.BranchesByKind) {
				e.c.BranchesByKind[k]++
			}
			if en.rec.Taken {
				e.c.TakenBranches++
			}
			if e.bp != nil {
				e.trainPredictor(en)
			}
		}

		// en points into the ring; capture the recovery inputs before the
		// slot is released (recover clears the whole buffer).
		mispred, resumePC := en.mispred, en.actualNext
		e.rob.DropFront()
		if mispred {
			e.recover(resumePC)
			break
		}
	}
	return nil
}

// trainPredictor applies commit-time predictor updates ("Commit ... updates
// the Branch Predictor in case of branch", §III). RAS push/pop happen at
// fetch, as in the modeled hardware.
func (e *Engine) trainPredictor(en *robEntry) {
	r := en.rec
	switch r.Ctrl {
	case isa.CtrlCond:
		e.bp.UpdateDir(en.pc, r.Taken)
		if r.Taken {
			e.bp.UpdateBTB(en.pc, r.Target)
		}
	case isa.CtrlJump, isa.CtrlCall, isa.CtrlIndirect, isa.CtrlIndCall:
		e.bp.UpdateBTB(en.pc, r.Target)
	}
}

// recover squashes the pipeline after a mispredicted branch committed:
// every younger instruction is wrong-path by construction, unfetched tagged
// records are discarded, and fetch resumes at the correct-path PC
// (resumePC) after the mis-speculation penalty.
func (e *Engine) recover(resumePC uint32) {
	e.c.MispredResolved++
	if e.tracer != nil {
		for i := 0; i < e.rob.Len(); i++ {
			e.tracer.Stage(e.rob.At(i).seq, e.now, "squash")
		}
		for i := 0; i < e.ifq.Len(); i++ {
			e.tracer.Stage(e.ifq.At(i).seq, e.now, "squash")
		}
	}
	e.ifq.Clear()
	e.rob.Clear()
	e.lsq.Clear()
	e.rt.Reset()
	e.clearDerived()
	e.c.WPRecordsDiscarded += uint64(e.src.SkipTagged())
	e.mode = fmNormal
	e.fetchPC = resumePC
	e.fetchResumeAt = e.now + 1 + int64(e.cfg.MispredPenalty)
}

// ---------------------------------------------------------------------------
// Writeback

// writeback selects the oldest completed instructions (up to Width),
// broadcasts their results and wakes dependents (§III). Candidates come
// from the completion heap — instructions whose execution finishes by this
// cycle drain into the age-ordered wbReady queue — so the cost tracks the
// number of completions, not the reorder-buffer size.
func (e *Engine) writeback() {
	// Common case: no deferred broadcasts, no heap completions due — the
	// age-sorted fast lane is the whole candidate set and broadcasts
	// straight out of it.
	if len(e.wbReady) == 0 && (len(e.wbHeap) == 0 || e.wbHeap[0].at > e.now) {
		due := e.wbNext
		if len(due) == 0 {
			return
		}
		broadcasts := len(due)
		if broadcasts > e.cfg.Width {
			broadcasts = e.cfg.Width
		}
		for _, en := range due[:broadcasts] {
			e.broadcast(en)
		}
		// Width overflow (rare): the remainder waits in wbReady.
		e.wbReady = append(e.wbReady, due[broadcasts:]...)
		e.wbNext = due[:0]
		return
	}
	// General case: merge the fast lane and due heap completions into the
	// age-ordered overflow queue, then broadcast its oldest Width.
	for _, en := range e.wbNext {
		e.wbReadyInsert(en)
	}
	e.wbNext = e.wbNext[:0]
	for len(e.wbHeap) > 0 && e.wbHeap[0].at <= e.now {
		e.wbReadyInsert(e.heapPop())
	}
	if len(e.wbReady) == 0 {
		return
	}
	broadcasts := len(e.wbReady)
	if broadcasts > e.cfg.Width {
		broadcasts = e.cfg.Width
	}
	for _, en := range e.wbReady[:broadcasts] {
		e.broadcast(en)
	}
	e.wbReady = append(e.wbReady[:0], e.wbReady[broadcasts:]...)
}

// broadcast completes en: result broadcast, rename release, dependent
// wakeup.
func (e *Engine) broadcast(en *robEntry) {
	en.state = stCompleted
	if e.tracer != nil {
		e.tracer.Stage(en.seq, e.now, "writeback")
	}
	if en.rec.Dest != isa.NoReg {
		e.rt.ClearIfProducer(en.rec.Dest, en.seq)
		e.wake(en)
	}
}

// wake marks ready every source operand registered on the broadcasting
// entry's consumer list, starts address generation for loads whose base
// register just arrived, and moves now-fully-ready instructions into the
// ready queue. The list is consumed: a producer broadcasts exactly once.
func (e *Engine) wake(prod *robEntry) {
	refs := e.cons[prod.slot]
	if len(refs) == 0 {
		return
	}
	for _, ref := range refs {
		en := ref.en
		if ref.op == 0 {
			en.src1Rdy = true
			if en.rec.Kind == trace.KindMem && !en.rec.Store {
				// Load base register ready: effective address known next cycle.
				if lq := en.lsq; lq.eaKnownAt == eaUnknown {
					lq.eaKnownAt = e.now + 1
				}
			}
		} else {
			en.src2Rdy = true
		}
		if en.src1Rdy && en.src2Rdy {
			e.readyInsert(en)
		}
	}
	e.cons[prod.slot] = refs[:0]
}

// addConsumer registers one of en's pending operands on producer prod's
// consumer list; op is 0 for src1, 1 for src2.
func (e *Engine) addConsumer(prod, en *robEntry, op uint8) {
	e.cons[prod.slot] = append(e.cons[prod.slot], consRef{en, op})
}

// insertBySeq inserts en into the age-ordered (by seq) queue q and returns
// it — the one insertion discipline every age-ordered engine queue (ready
// queue, broadcast overflow, 1-cycle completion lane) shares. Arrivals are
// nearly in age order, so the insertion point is almost always the tail.
func insertBySeq(q []*robEntry, en *robEntry) []*robEntry {
	q = append(q, en)
	i := len(q) - 1
	for i > 0 && q[i-1].seq > en.seq {
		q[i] = q[i-1]
		i--
	}
	q[i] = en
	return q
}

// readyInsert adds en to the age-ordered ready queue.
func (e *Engine) readyInsert(en *robEntry) {
	e.readyQ = insertBySeq(e.readyQ, en)
}

// wbReadyInsert adds en to the age-ordered broadcast-overflow queue.
func (e *Engine) wbReadyInsert(en *robEntry) {
	e.wbReady = insertBySeq(e.wbReady, en)
}

// heapPush schedules a completion broadcast; the heap orders by
// (completeAt, seq) so same-cycle completions drain oldest first.
func (e *Engine) heapPush(at int64, en *robEntry) {
	h := append(e.wbHeap, wbItem{at, en})
	i := len(h) - 1
	it := h[i]
	for i > 0 {
		p := (i - 1) / 2
		if wbLess(h[p], it) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = it
	e.wbHeap = h
}

// wbLess orders the completion heap by (completeAt, seq).
func wbLess(a, b wbItem) bool {
	return a.at < b.at || (a.at == b.at && a.en.seq < b.en.seq)
}

// heapPop removes and returns the entry with the earliest completion.
func (e *Engine) heapPop() *robEntry {
	h := e.wbHeap
	top := h[0].en
	last := h[len(h)-1]
	h = h[:len(h)-1]
	e.wbHeap = h
	if len(h) > 0 {
		i := 0
		for {
			l := 2*i + 1
			if l >= len(h) {
				break
			}
			if r := l + 1; r < len(h) && wbLess(h[r], h[l]) {
				l = r
			}
			if !wbLess(h[l], last) {
				break
			}
			h[i] = h[l]
			i = l
		}
		h[i] = last
	}
	return top
}

// ---------------------------------------------------------------------------
// Lsq_refresh

// lsqRefresh runs once per major cycle (§IV.A). It marks loads ready to
// issue: the load's effective address is known, every older store's address
// is known, and either no older store touches the load's bytes (memory
// access), or the youngest overlapping store has executed and fully covers
// the load (its value is forwarded). A partially overlapping store blocks
// the load until the store commits and leaves the LSQ.
func (e *Engine) lsqRefresh() {
	if e.lsqLoads == 0 {
		return // stores alone have no readiness to refresh
	}
	unknownStore := false
	stores := e.lsqStores[:0]
	s1, s2 := e.lsq.Views()
	for _, span := range [2][]lsqEntry{s1, s2} {
		for i := range span {
			lq := &span[i]
			if lq.store {
				if lq.eaKnownAt > e.now {
					unknownStore = true
				}
				stores = append(stores, lq)
				continue
			}
			lq.memReady = false
			lq.forwarded = false
			if lq.memIssued || lq.eaKnownAt > e.now || unknownStore {
				continue
			}
			// Find the youngest older store touching the load's bytes
			// (stores holds every older store, oldest first).
			var match *lsqEntry
			for j := len(stores) - 1; j >= 0; j-- {
				if stores[j].overlaps(lq) {
					match = stores[j]
					break
				}
			}
			switch {
			case match == nil:
				lq.memReady = true
			case match.eaKnownAt <= e.now && match.covers(lq):
				// Store has executed and provides every byte: forward without
				// a read port (§III).
				lq.memReady = true
				lq.forwarded = true
			default:
				// Pending or partially overlapping store: wait.
			}
		}
	}
	e.lsqStores = stores[:0]
}

// ---------------------------------------------------------------------------
// Issue

// issue schedules ready instructions onto functional units, up to Width per
// major cycle, oldest first (§III). Candidates come from the age-ordered
// ready queue — exactly the dispatched instructions with all register
// operands available — so the cost tracks the ready set, not the
// reorder-buffer size. Under the Optimized organization the first issue
// slot of the major cycle does not consider loads (§IV.B, Figure 4);
// slot 0 is filled with the oldest ready non-load instead.
func (e *Engine) issue() {
	if len(e.readyQ) == 0 {
		return
	}
	slotsLeft := e.cfg.Width
	if e.cfg.Organization.LoadBarredFromFirstSlot() {
		// Slot 0 may not take a load: fill it with the oldest ready
		// non-load, or leave it empty. With at most N-1 memory ports this
		// never reduces the number of instructions issued per cycle, which
		// is why the paper can claim the N+3 organization does not affect
		// timing results (§IV.B); tests verify the equivalence empirically.
		for qi, en := range e.readyQ {
			if en.rec.Kind == trace.KindMem && !en.rec.Store {
				if en.lsq.memReady {
					e.c.LoadFirstSlotDeferred++
				}
				continue
			}
			if e.issueOne(en) {
				e.readyQ = append(e.readyQ[:qi], e.readyQ[qi+1:]...)
				break
			}
		}
		slotsLeft = e.cfg.Width - 1 // slot 0 filled or forfeited
	}
	q := e.readyQ
	out := 0
	for qi := 0; qi < len(q); qi++ {
		if slotsLeft > 0 {
			if e.issueOne(q[qi]) {
				slotsLeft--
				continue
			}
		}
		q[out] = q[qi]
		out++
	}
	e.readyQ = q[:out]
}

// issueOne attempts to start execution of en this cycle, scheduling its
// completion broadcast on success.
func (e *Engine) issueOne(en *robEntry) bool {
	switch en.rec.Kind {
	case trace.KindMem:
		if en.rec.Store {
			// Store: address generation on an ALU; memory write at commit.
			lat, ok := e.fus.TryIssue(uarch.FUALU, e.now)
			if !ok {
				return false
			}
			en.state = stIssued
			en.completeAt = e.now + int64(lat)
			en.lsq.eaKnownAt = en.completeAt
		} else {
			lq := en.lsq
			if !lq.memReady {
				return false
			}
			if lq.forwarded {
				en.completeAt = e.now + 1
				e.c.LoadsForwarded++
			} else {
				if !e.ports.TryRead() {
					return false
				}
				_, lat := e.dcache.Access(en.rec.Addr, false)
				en.completeAt = e.now + int64(lat)
			}
			en.state = stIssued
			lq.memIssued = true
		}
	case trace.KindBranch:
		lat, ok := e.fus.TryIssue(uarch.FUALU, e.now)
		if !ok {
			return false
		}
		en.state = stIssued
		en.completeAt = e.now + int64(lat)
	default: // KindOther
		cls := uarch.FUALU
		switch en.rec.Class {
		case trace.OpMul:
			cls = uarch.FUMult
		case trace.OpDiv:
			cls = uarch.FUDiv
		}
		lat, ok := e.fus.TryIssue(cls, e.now)
		if !ok {
			return false
		}
		en.state = stIssued
		en.completeAt = e.now + int64(lat)
	}
	if en.completeAt == e.now+1 {
		// The dominant case (single-cycle ALU ops, forwarded loads, L1
		// hits) skips the heap. The lane is kept age-sorted on insert —
		// only the Optimized organization's slot-0 pick can arrive out of
		// order, so this is almost always a plain append.
		e.wbNext = insertBySeq(e.wbNext, en)
	} else {
		e.heapPush(en.completeAt, en)
	}
	e.c.Issued++
	if e.tracer != nil {
		e.tracer.Stage(en.seq, e.now, "issue")
	}
	return true
}

// ---------------------------------------------------------------------------
// Dispatch

// dispatch moves up to Width instructions from the IFQ into the reorder
// buffer (and LSQ for memory operations), reading and updating the rename
// table (§III).
func (e *Engine) dispatch() {
	width := e.cfg.Width
	for n := 0; n < width && !e.ifq.Empty(); n++ {
		fi := e.ifq.Front()
		if e.rob.Full() {
			e.c.RBFullStalls++
			break
		}
		isMem := fi.rec.Kind == trace.KindMem
		if isMem && e.lsq.Full() {
			e.c.LSQFullStalls++
			break
		}

		abs := e.rob.NextAbs()
		// Construct the reorder-buffer entry in place (rob.Full was checked
		// above) with per-field writes — a composite literal here compiles
		// to a stack temporary plus a bulk copy. The slot may hold stale
		// bytes, so every field is written; the IFQ slot fi aliases stays
		// untouched until DropFront.
		en := e.rob.PushSlot()
		en.seq = fi.seq
		en.rec = fi.rec
		en.pc = fi.pc
		en.actualNext = fi.actualNext
		en.wrongPath = fi.wrongPath
		en.mispred = fi.mispred
		en.state = stDispatched
		en.src1Seq = e.rt.Producer(fi.rec.Src1)
		en.src2Seq = e.rt.Producer(fi.rec.Src2)
		en.completeAt = 0
		en.lsq = nil
		en.slot = int32(abs & e.consMask)
		if e.tracer != nil {
			e.tracer.Stage(en.seq, e.now, "dispatch")
		}
		en.src1Rdy = en.src1Seq == uarch.NoProducer
		en.src2Rdy = en.src2Seq == uarch.NoProducer
		// Register pending operands on their producers' consumer lists (the
		// rename table only ever names in-flight, not-yet-broadcast
		// entries, so the producer — at prodPtr[reg] — is resident by
		// construction); fully ready instructions go straight to the ready
		// queue, which stays age-ordered because dispatch appends the
		// youngest entries.
		if !en.src1Rdy {
			e.addConsumer(e.prodPtr[fi.rec.Src1], en, 0)
		}
		if !en.src2Rdy {
			e.addConsumer(e.prodPtr[fi.rec.Src2], en, 1)
		}
		if d := fi.rec.Dest; d != isa.NoReg {
			e.rt.SetProducer(d, en.seq)
			if d != isa.RegZero && d < isa.NumRegs {
				e.prodPtr[d] = en
			}
		}
		if isMem {
			lq := e.lsq.PushSlot()
			lq.seq = en.seq
			lq.store = fi.rec.Store
			lq.addr = fi.rec.Addr
			lq.size = fi.rec.MemBytes()
			lq.eaKnownAt = eaUnknown
			lq.memReady = false
			lq.forwarded = false
			lq.memIssued = false
			if !lq.store {
				e.lsqLoads++
				if en.src1Rdy {
					// Base register already available: address known next cycle.
					lq.eaKnownAt = e.now + 1
				}
			}
			en.lsq = lq
		}
		e.ifq.DropFront()
		if en.src1Rdy && en.src2Rdy {
			e.readyQ = append(e.readyQ, en)
		}
	}
}

// ---------------------------------------------------------------------------
// Fetch

// prediction is the engine's fetch-time verdict for a branch record.
type prediction struct {
	next     uint32 // next fetch PC down the predicted path
	mispred  bool
	misfetch bool
}

// predict applies the simulated branch predictor to a correct-path branch
// record at pc. Direct targets resolve during fetch ("target resolution"),
// so direct branches can only misfetch (BTB supplied a wrong early target);
// direction and indirect-target errors are full mispredictions resolved at
// commit.
func (e *Engine) predict(pc uint32, rec *trace.Record) prediction {
	fall := pc + 4
	actualNext := fall
	if rec.Taken {
		actualNext = rec.Target
	}
	if e.bp == nil { // perfect branch prediction
		return prediction{next: actualNext}
	}
	e.c.BPLookups++
	p := prediction{next: actualNext}
	switch rec.Ctrl {
	case isa.CtrlCond:
		predTaken := e.bp.PredictDir(pc)
		if predTaken != rec.Taken {
			p.mispred = true
			if predTaken {
				p.next = rec.Target // direct target, resolved at fetch
			} else {
				p.next = fall
			}
			return p
		}
		if predTaken && rec.Taken {
			if tgt, hit := e.bp.LookupBTB(pc); hit && tgt != rec.Target {
				p.misfetch = true
			}
		}
	case isa.CtrlJump, isa.CtrlCall:
		if tgt, hit := e.bp.LookupBTB(pc); hit && tgt != rec.Target {
			p.misfetch = true
		}
		if rec.Ctrl == isa.CtrlCall {
			e.bp.PushRAS(fall)
		}
	case isa.CtrlRet:
		predTgt, ok := e.bp.PopRAS()
		e.c.RASPops++
		if !ok {
			e.c.RASEmptyPops++
		}
		if !ok || predTgt != rec.Target {
			p.mispred = true
			if ok {
				p.next = predTgt
			} else {
				p.next = fall
			}
		}
	case isa.CtrlIndirect, isa.CtrlIndCall:
		predTgt, hit := e.bp.LookupBTB(pc)
		if !hit || predTgt != rec.Target {
			p.mispred = true
			if hit {
				p.next = predTgt
			} else {
				p.next = fall
			}
		}
		if rec.Ctrl == isa.CtrlIndCall {
			e.bp.PushRAS(fall)
		}
	}
	return p
}

// fetch brings up to Width records into the IFQ, stopping at a control-flow
// bubble (a predicted-taken branch), a full IFQ, an I-cache miss, or a
// fetch redirect (§III).
func (e *Engine) fetch() {
	if e.now < e.fetchResumeAt {
		e.c.FetchIdle++
		return
	}
	if e.mode == fmStarved {
		e.c.FetchStarved++
		return
	}
	if e.srcDone {
		return
	}
	width := e.cfg.Width
	for fetched := 0; fetched < width && !e.ifq.Full(); {
		rec, err := e.src.PeekRef()
		if err != nil {
			if e.mode == fmWrongPath {
				e.mode = fmStarved
			} else {
				e.srcDone = true
			}
			return
		}
		if e.mode == fmNormal && rec.Tag {
			// A wrong-path block for a branch this engine predicted
			// correctly (trace-generator disagreement): discard it.
			e.c.WPBlocksSkipped++
			e.c.WPRecordsDiscarded += uint64(e.src.SkipTagged())
			continue
		}
		if e.mode == fmWrongPath && !rec.Tag {
			// Block exhausted before resolution: fetch starves.
			e.mode = fmStarved
			return
		}
		if rec.Kind == trace.KindBranch && rec.PC != 0 {
			// B records carry the branch PC; re-synchronize the implicit
			// fetch PC with it (the hardware indexes the predictor and the
			// I-cache with this value).
			e.fetchPC = rec.PC
		}

		// Instruction cache access at the current fetch PC.
		if hit, lat := e.icache.Access(e.fetchPC, false); !hit {
			e.fetchResumeAt = e.now + int64(lat)
			return
		}

		e.src.Advance() // consume the record PeekRef returned above
		e.c.FetchedTotal++
		// Construct the IFQ entry in place (the loop guard holds a free
		// slot) with per-field writes — a composite literal here compiles
		// to a stack temporary plus a bulk copy. The slot may hold stale
		// bytes, so every field is written; every path below keeps mutating
		// the entry in the ring.
		fi := e.ifq.PushSlot()
		fi.seq = e.seq
		fi.rec = *rec
		fi.pc = e.fetchPC
		fi.actualNext = 0
		fi.wrongPath = rec.Tag
		fi.mispred = false
		// rec aliased the lookahead buffer, which the next Peek overwrites;
		// re-point it at the stable copy just made.
		rec = &fi.rec
		e.seq++
		if rec.Tag {
			e.c.WrongPathFetched++
		}
		if e.tracer != nil {
			e.tracer.Fetched(fi.seq, e.now, fi.pc, rec.String(), rec.Tag)
		}

		if rec.Kind != trace.KindBranch {
			fetched++
			e.fetchPC += 4
			continue
		}

		// Branch record.
		if e.mode == fmWrongPath {
			// Wrong-path branches follow the trace generator's assumed
			// outcome; they are not predicted and never trigger recovery.
			fetched++
			if rec.Taken {
				e.fetchPC = rec.Target
				return // control-flow bubble
			}
			e.fetchPC += 4
			continue
		}

		p := e.predict(fi.pc, rec)
		fall := fi.pc + 4
		fi.actualNext = fall
		if rec.Taken {
			fi.actualNext = rec.Target
		}
		fi.mispred = p.mispred
		fetched++

		switch {
		case p.misfetch:
			// Misfetch: delayed penalty, then fetch continues at the target
			// resolved during fetch (§III).
			e.c.Misfetches++
			e.fetchPC = fi.actualNext
			e.fetchResumeAt = e.now + 1 + int64(e.cfg.MisfetchPenalty)
			return
		case p.mispred:
			e.c.MispredDetected++
			if k := int(rec.Ctrl); k < len(e.c.MispredictByKind) {
				e.c.MispredictByKind[k]++
			}
			e.fetchPC = p.next
			if next, err := e.src.Peek(); err == nil && next.Tag {
				e.mode = fmWrongPath
				e.c.WPBlocksEntered++
			} else {
				// The trace has no wrong-path block here (the generator's
				// predictor got this branch right): model the penalty with
				// a starved fetch until resolution.
				e.mode = fmStarved
				e.c.MispredStarved++
			}
			return
		default:
			e.fetchPC = p.next
			if p.next != fall {
				return // predicted-taken: control-flow bubble ends the cycle
			}
		}
	}
}

// ---------------------------------------------------------------------------

func (e *Engine) result() Result {
	return Result{
		Counters: e.c,
		ICache:   e.icache.Stats(),
		DCache:   e.dcache.Stats(),
		IFQ:      e.ifqOcc,
		RB:       e.rbOcc,
		LSQ:      e.lsqOcc,
		Config:   e.cfg,
	}
}
