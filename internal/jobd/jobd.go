// Package jobd is the multi-tenant sweep job platform: the control plane
// that turns the sharded sweep service (internal/sweepd) into something that
// can front sustained traffic from many users. A sweepd.Coordinator holds
// the pool of registered network workers and accepts no jobs itself; a
// jobd.Platform is the door jobs enter by. It accepts many jobs from many
// tenants, persists every submission to a disk journal so a restarted
// coordinator recovers queued *and* in-flight work, schedules all admitted
// jobs' trace-key groups over one shared worker pool with strict
// priorities and weighted per-tenant fairness, and enforces admission
// control so a submission burst degrades to queueing or 429, never to
// dropped or corrupted work.
//
// Scheduling model: the unit of dispatch is the sweepd key-group. Every
// admitted job is sharded into groups exactly as the one-job scheduler
// shards them (content-addressed trace keys, so a group runs on one worker
// and each distinct trace is generated once per host). A free worker slot
// receives the group chosen by, in order: highest job priority, then lowest
// tenant virtual time (start-time weighted fair queuing — each dispatch
// advances the owning tenant's clock by 1/weight, and a tenant returning
// from idle is lifted to the platform clock so it can neither monopolize
// the pool nor be starved by a busier tenant's backlog), then submission
// age. Worker death requeues the group's unfinished points on the next free
// slot, resuming from the latest checkpoints the dead worker shipped.
//
// Durability model: submissions are journaled before they are acknowledged;
// results append to a per-job NDJSON log as points complete; shipped
// checkpoints persist (latest-wins, atomically) per point. Recovery replays
// the journal: terminal jobs come back queryable, unfinished jobs re-enter
// the queue with their completed points pinned and their in-flight points
// resuming from the persisted checkpoints — past cycle 0, never silently
// restarted from scratch when resume state exists, and never dropped.
package jobd

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/sweepd"
	"repro/internal/workload"
)

// State is a job's lifecycle state.
type State string

// The job lifecycle: queued → running → done/failed, with canceled
// reachable from either live state. The last three are terminal.
const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// Platform-level errors. The HTTP front door maps these onto status codes
// (ErrQueueFull/ErrTenantBusy -> 429, ErrUnknownJob -> 404, ErrClosed ->
// 503); embedders can errors.Is against them directly.
var (
	ErrQueueFull  = errors.New("jobd: job queue is full")
	ErrTenantBusy = errors.New("jobd: tenant is at its in-flight job limit")
	ErrUnknownJob = errors.New("jobd: unknown job")
	ErrClosed     = errors.New("jobd: platform closed")
)

// RetryAfterError decorates an admission rejection with backoff advice:
// the HTTP door serves Seconds as the 429's Retry-After header, derived
// from live queue and tenant-cap state rather than a constant, so client
// backoff tracks actual congestion. Unwrap keeps errors.Is working
// against ErrQueueFull / ErrTenantBusy.
type RetryAfterError struct {
	Err     error
	Seconds int
}

// Error reports the wrapped rejection's message.
func (e *RetryAfterError) Error() string { return e.Err.Error() }

// Unwrap exposes the wrapped rejection to errors.Is/As.
func (e *RetryAfterError) Unwrap() error { return e.Err }

// retryAfterSeconds clamps derived backoff advice to [1, 30] seconds.
func retryAfterSeconds(s int) int {
	if s < 1 {
		return 1
	}
	if s > 30 {
		return 30
	}
	return s
}

// Tenant is one configured tenant: its bearer token, fairness weight and
// admission cap. Tenants load from the -tenants JSON file
// ({"tenants": [...]}) via LoadTenants.
type Tenant struct {
	Name  string `json:"name"`
	Token string `json:"token"`
	// Weight is the tenant's fair-share weight (default 1): with tenants A
	// weight 2 and B weight 1 both backlogged, A's groups get two worker
	// slots for every one of B's.
	Weight int `json:"weight,omitempty"`
	// MaxInFlight caps the tenant's queued+running jobs (admission control;
	// 0 uses Options.TenantMaxInFlight). Submissions beyond it get
	// ErrTenantBusy (HTTP 429) and admitted work is unaffected.
	MaxInFlight int `json:"max_in_flight,omitempty"`
}

// WorkerPool supplies the workers groups dispatch onto. sweepd.Coordinator
// implements it (its registered remote workers); StaticPool wraps a fixed
// in-process set.
type WorkerPool interface {
	Workers() []sweepd.Worker
}

// StaticPool is a fixed worker pool — the in-process analog of a registered
// worker fleet, used by tests and local platforms over LoopbackWorkers.
type StaticPool []sweepd.Worker

// Workers implements WorkerPool.
func (p StaticPool) Workers() []sweepd.Worker { return append([]sweepd.Worker(nil), p...) }

// Defaults for Options zero values.
const (
	DefaultMaxQueue          = 64
	DefaultTenantMaxInFlight = 8
)

// Options configures a Platform.
type Options struct {
	// Pool supplies workers (required). Wire Coordinator.OnWorkersChanged
	// to Platform.Kick so queued groups dispatch the moment capacity
	// appears.
	Pool WorkerPool
	// JournalDir persists submissions, results and checkpoints for crash
	// recovery. Empty runs the platform in-memory only (tests, benchmarks):
	// a restart then loses queued work, exactly like the pre-jobd service.
	JournalDir string
	// Tenants is the static tenant set. Empty disables authentication:
	// every request maps to a single "default" tenant — the development
	// mode, never what a shared deployment should run.
	Tenants []Tenant
	// MaxQueue bounds jobs waiting in StateQueued platform-wide
	// (admission control; 0 = DefaultMaxQueue). Beyond it submissions get
	// ErrQueueFull.
	MaxQueue int
	// TenantMaxInFlight is the default per-tenant queued+running job cap
	// for tenants that do not set their own (0 = DefaultTenantMaxInFlight).
	TenantMaxInFlight int
	// CheckpointBudget caps retained resume-checkpoint bytes per job
	// (0 = sweepd.DefaultCheckpointBudget, negative = unlimited).
	CheckpointBudget int64
	// SlotsPerWorker is how many groups one worker runs concurrently
	// (0 = 1). Remote workers multiplex assignments over one connection,
	// so >1 trades per-group latency for utilization on wide hosts.
	SlotsPerWorker int
	// TelemetryEvery is the cadence (major cycles) at which running jobs'
	// engines emit live interval snapshots (0 = core.DefaultObserverInterval).
	// Snapshots are ephemeral — buffered in a per-job ring for watchers
	// (GET /v1/jobs/{id}/telemetry), never journaled.
	TelemetryEvery uint64
	// TelemetryRing is the per-job snapshot ring capacity
	// (0 = DefaultTelemetryRing). Watchers slower than the emission rate
	// lose the snapshots the ring wraps past; the loss is counted, never
	// applied as backpressure to the engines.
	TelemetryRing int
	// TraceSpans is the per-job lifecycle span log capacity
	// (0 = DefaultTraceSpans); see trace.go. Traces are ephemeral, never
	// journaled.
	TraceSpans int
	// Metrics, when non-nil, is the obs registry the platform registers its
	// metric families on — share one registry across layers (sweepd,
	// tracecache) to serve them all from one /metrics. nil gives the
	// platform a private registry, so GET /metrics always works.
	Metrics *obs.Registry
	// Log receives service log events. nil discards.
	Log *obs.Logger
	// JournalSync makes every journal append and atomic rename fsync
	// before reporting success (resimd -journal-sync): power-loss
	// durability at a per-write latency cost. Off, the journal still
	// survives process death — the failure mode recovery targets.
	JournalSync bool
	// Faults, when non-nil, arms the platform's fault-injection sites
	// (jobd.journal.*, jobd.http.submit) with a deterministic schedule;
	// nil injects nothing. See internal/faults and docs/ROBUSTNESS.md.
	Faults *faults.Injector
}

// SubmitRequest is one job submission: the workload (by registry name, or
// an explicit profile), the per-point instruction budget, the design points
// in wire form, and a priority (higher dispatches first; default 0).
type SubmitRequest struct {
	Workload     string             `json:"workload,omitempty"`
	Profile      *workload.Profile  `json:"profile,omitempty"`
	Instructions uint64             `json:"instructions"`
	Priority     int                `json:"priority,omitempty"`
	Points       []sweepd.WirePoint `json:"points"`
}

// PointStatus is one design point's progress within a job.
type PointStatus struct {
	Index int    `json:"index"`
	Name  string `json:"name"`
	Done  bool   `json:"done"`
	Err   string `json:"err,omitempty"`
}

// JobStatus is a job's externally visible state.
type JobStatus struct {
	ID           string        `json:"id"`
	Tenant       string        `json:"tenant"`
	Priority     int           `json:"priority"`
	State        State         `json:"state"`
	Workload     string        `json:"workload"`
	Instructions uint64        `json:"instructions"`
	Submitted    time.Time     `json:"submitted"`
	Total        int           `json:"total"`
	Completed    int           `json:"completed"`
	Err          string        `json:"err,omitempty"`
	Points       []PointStatus `json:"points,omitempty"`
}

// Metrics is the platform counter snapshot served by GET /metrics.
type Metrics struct {
	QueueDepth      int
	Workers         int
	DeadWorkers     int
	QueuedByTenant  map[string]int
	RunningByTenant map[string]int
	Requeues        uint64
	ResumePoints    uint64
	RecoveredJobs   int
	RecoveredPoints int
	RecoveredCkpts  int
	Rejected        uint64
	JobsByState     map[State]int
	// TelemetrySnaps counts interval snapshots appended to job rings;
	// TelemetryDropped counts snapshots watchers lost to ring wrap-around
	// (slow-client drop policy); TelemetryClients is the number of
	// currently attached telemetry streams.
	TelemetrySnaps   uint64
	TelemetryDropped uint64
	TelemetryClients int
	// TraceSpans counts lifecycle spans appended to job trace logs;
	// TraceDropped counts spans evicted from bounded logs (see trace.go).
	TraceSpans   uint64
	TraceDropped uint64
	// JournalTornTails counts results.ndjson tails truncated during
	// recovery (torn or corrupt trailing records); JournalCRCErrors
	// counts records that failed their integrity checksum;
	// JournalDegraded counts other tolerated recovery blemishes (empty
	// checkpoint files, temp-file leftovers from crashed renames).
	JournalTornTails int
	JournalCRCErrors int
	JournalDegraded  int
}

// tenantState is one tenant's live scheduling state.
type tenantState struct {
	cfg     Tenant
	queued  int
	running int
	vtime   float64 // weighted fair-queuing virtual time
}

func (t *tenantState) weight() float64 {
	if t.cfg.Weight > 0 {
		return float64(t.cfg.Weight)
	}
	return 1
}

// job is one admitted job.
type job struct {
	id        string
	tenant    string
	priority  int
	seq       uint64
	submitted time.Time
	sj        *sweepd.Job
	// ledger holds the job's group bookkeeping (which points have a result,
	// resume checkpoints); assigned marks the groups a worker holds.
	ledger   *sweepd.Ledger
	assigned []bool

	state     State
	err       string
	results   []*sweepd.WireResult
	completed int

	// The job's streams (stream.go): results in completion order, the
	// most recent interval snapshots and the lifecycle span log (trace.go).
	// ckptSeen marks points whose first checkpoint receipt was already
	// recorded, firstDispatch/firstResult gate the one-shot latency
	// observations. Guarded by the platform mutex.
	resultLog     seqLog[*sweepd.WireResult]
	telemetry     seqLog[core.IntervalSnapshot]
	spans         seqLog[TraceSpan]
	ckptSeen      map[int]bool
	firstDispatch time.Time
	firstResult   bool

	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{} // closed on terminal state
	change chan struct{} // closed+replaced on every visible update
}

// workerState is the dispatcher's per-worker accounting.
type workerState struct {
	busy int
	dead bool
}

// Platform is the job platform. Build one with New; it runs until Close.
type Platform struct {
	opts Options
	jn   *journal

	ctx    context.Context
	cancel context.CancelFunc
	kick   chan struct{}
	wg     sync.WaitGroup

	// auth records whether Options.Tenants configured any tenants at
	// construction. It cannot be derived from the tenants map later:
	// tenantLocked creates "default" (and journal-recovered names) on
	// demand, which must not silently switch authentication on.
	auth bool

	mu      sync.Mutex
	jobs    map[string]*job
	order   []*job
	tenants map[string]*tenantState
	tokens  map[string]string // token -> tenant name
	workers map[sweepd.Worker]*workerState
	seq     uint64
	vclock  float64
	closed  bool

	requeues        uint64
	resumePoints    uint64
	recoveredJobs   int
	recoveredPoints int
	recoveredCkpts  int
	rejected        uint64

	// watchers counts the readers attached to each stream and missed the
	// entries readers lost to eviction, keyed by stream path (stream.go).
	watchers map[string]int
	missed   map[string]uint64

	telemetrySnaps  uint64
	traceSpansTotal uint64
	traceDropped    uint64

	// reg is the obs registry serving GET /metrics; metrics holds the
	// platform's registered instruments (snapshot-applied per scrape, plus
	// the event-site latency histograms).
	reg     *obs.Registry
	metrics *PlatformMetrics
}

// New builds and starts a platform: opens (and replays) the journal, then
// starts the dispatcher. Callers must Close it.
func New(opts Options) (*Platform, error) {
	if opts.Pool == nil {
		return nil, errors.New("jobd: Options.Pool is required")
	}
	if opts.MaxQueue <= 0 {
		opts.MaxQueue = DefaultMaxQueue
	}
	if opts.TenantMaxInFlight <= 0 {
		opts.TenantMaxInFlight = DefaultTenantMaxInFlight
	}
	if opts.SlotsPerWorker <= 0 {
		opts.SlotsPerWorker = 1
	}
	if opts.TelemetryRing <= 0 {
		opts.TelemetryRing = DefaultTelemetryRing
	}
	if opts.TraceSpans <= 0 {
		opts.TraceSpans = DefaultTraceSpans
	}
	if opts.TelemetryEvery == 0 {
		opts.TelemetryEvery = core.DefaultObserverInterval
	}
	reg := opts.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	ctx, cancel := context.WithCancel(context.Background())
	p := &Platform{
		opts:     opts,
		ctx:      ctx,
		cancel:   cancel,
		kick:     make(chan struct{}, 1),
		jobs:     make(map[string]*job),
		tenants:  make(map[string]*tenantState),
		tokens:   make(map[string]string),
		workers:  make(map[sweepd.Worker]*workerState),
		watchers: make(map[string]int),
		missed:   make(map[string]uint64),
		reg:      reg,
		metrics:  RegisterMetrics(reg),
	}
	p.auth = len(opts.Tenants) > 0
	for _, t := range opts.Tenants {
		if t.Name == "" {
			cancel()
			return nil, errors.New("jobd: tenant with empty name")
		}
		if _, dup := p.tenants[t.Name]; dup {
			cancel()
			return nil, fmt.Errorf("jobd: duplicate tenant %q", t.Name)
		}
		p.tenants[t.Name] = &tenantState{cfg: t}
		if t.Token != "" {
			if _, dup := p.tokens[t.Token]; dup {
				cancel()
				return nil, fmt.Errorf("jobd: tenants %q and %q share a token", p.tokens[t.Token], t.Name)
			}
			p.tokens[t.Token] = t.Name
		}
	}
	if opts.JournalDir != "" {
		jn, err := openJournal(opts.JournalDir)
		if err != nil {
			cancel()
			return nil, err
		}
		jn.sync = opts.JournalSync
		jn.inj = opts.Faults
		jn.log = opts.Log
		p.jn = jn
		if err := p.recover(); err != nil {
			cancel()
			return nil, err
		}
	}
	p.wg.Add(1)
	go p.dispatcher()
	return p, nil
}

// Close stops dispatching, cancels in-flight groups and waits for every
// platform goroutine to drain. Non-terminal jobs are NOT marked canceled in
// the journal: like a crash, a later platform on the same journal recovers
// and finishes them. HTTP handlers still running observe ErrClosed.
func (p *Platform) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	p.mu.Unlock()
	p.cancel()
	p.wg.Wait()
	return nil
}

// Kick hints the dispatcher that capacity or work changed (worker pool
// membership, a new submission). Cheap and non-blocking; safe from any
// goroutine, including sweepd.Coordinator.OnWorkersChanged.
func (p *Platform) Kick() {
	select {
	case p.kick <- struct{}{}:
	default:
	}
}

// TenantForToken resolves a bearer token to a tenant name. With no tenants
// configured every token (including none) maps to "default"; otherwise an
// unknown token is rejected.
func (p *Platform) TenantForToken(token string) (string, bool) {
	if !p.auth {
		return "default", true
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	name, ok := p.tokens[token]
	return name, ok
}

// tenantLocked returns (creating on demand) the tenant's scheduling state.
// On-demand creation covers the auth-disabled "default" tenant and jobs
// recovered from a journal written under a different tenants file.
func (p *Platform) tenantLocked(name string) *tenantState {
	t := p.tenants[name]
	if t == nil {
		t = &tenantState{cfg: Tenant{Name: name}}
		p.tenants[name] = t
	}
	return t
}

// newJobID returns a fresh 16-hex-digit job ID.
func newJobID() (string, error) {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "", err
	}
	return "j" + hex.EncodeToString(b[:]), nil
}

// materialize validates a submission and builds its wire and scheduler
// forms. Point indices are normalized to positions; invalid configurations
// fail here, before admission — a job the workers could never run is a 400,
// not a poisoned queue entry.
func (p *Platform) materialize(req SubmitRequest) (*sweepd.WireJob, *sweepd.Job, error) {
	var prof workload.Profile
	switch {
	case req.Profile != nil:
		prof = *req.Profile
	case req.Workload != "":
		wp, err := workload.ByName(req.Workload)
		if err != nil {
			return nil, nil, err
		}
		prof = wp
	default:
		return nil, nil, errors.New("jobd: submission needs a workload name or an explicit profile")
	}
	if len(req.Points) == 0 {
		return nil, nil, errors.New("jobd: submission has no design points")
	}
	wj := &sweepd.WireJob{Profile: prof, Instructions: req.Instructions,
		Points: make([]sweepd.WirePoint, len(req.Points))}
	for i, wp := range req.Points {
		wp.Index = i
		wj.Points[i] = wp
	}
	sj, err := sweepd.JobFromWire(wj)
	if err != nil {
		return nil, nil, err
	}
	sj.CheckpointBudget = p.opts.CheckpointBudget
	// The platform, not the submission, owns the telemetry cadence: every
	// admitted job streams at the same interval into its bounded ring.
	sj.TelemetryEvery = p.opts.TelemetryEvery
	return wj, sj, nil
}

// Submit admits one job for the tenant: validates it, applies admission
// control, journals the submission, and queues it for dispatch. The job is
// durable once Submit returns.
func (p *Platform) Submit(tenant string, req SubmitRequest) (JobStatus, error) {
	wj, sj, err := p.materialize(req)
	if err != nil {
		return JobStatus{}, err
	}
	id, err := newJobID()
	if err != nil {
		return JobStatus{}, err
	}

	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return JobStatus{}, ErrClosed
	}
	t := p.tenantLocked(tenant)
	if depth := p.queueDepthLocked(); depth >= p.opts.MaxQueue {
		p.rejected++
		// Advice scales with how deep the backlog is relative to the
		// queue bound: a just-full queue suggests a short pause, a
		// several-times-over backlog a long one.
		secs := retryAfterSeconds(1 + 4*depth/p.opts.MaxQueue)
		p.mu.Unlock()
		return JobStatus{}, &RetryAfterError{
			Err: fmt.Errorf("%w (%d queued)", ErrQueueFull, depth), Seconds: secs}
	}
	cap := t.cfg.MaxInFlight
	if cap <= 0 {
		cap = p.opts.TenantMaxInFlight
	}
	if t.queued+t.running >= cap {
		p.rejected++
		// The tenant's own jobs gate admission here: advice grows with
		// the number that must finish before a slot frees.
		secs := retryAfterSeconds(1 + t.queued + t.running)
		p.mu.Unlock()
		return JobStatus{}, &RetryAfterError{
			Err: fmt.Errorf("%w (%d in flight, cap %d)", ErrTenantBusy, t.queued+t.running, cap), Seconds: secs}
	}
	p.seq++
	j := p.newJobLocked(id, tenant, req.Priority, p.seq, time.Now(), sj)
	p.spanLocked(j, TraceSpan{Event: SpanSubmit, State: StateQueued, Point: -1,
		Points: len(sj.Points),
		Detail: fmt.Sprintf("%s n=%d groups=%d", sj.Profile.Name, sj.Instructions, len(j.assigned))})
	if p.jn != nil {
		if err := p.jn.writeSpec(&specRecord{ID: id, Tenant: tenant, Priority: req.Priority,
			Seq: j.seq, Submitted: j.submitted, Job: wj}); err != nil {
			// Not durable -> not admitted: the client retries rather than
			// holding a job a restart would silently lose.
			p.mu.Unlock()
			return JobStatus{}, fmt.Errorf("jobd: journal submission: %w", err)
		}
		p.spanLocked(j, TraceSpan{Event: SpanJournal, Point: -1})
	}
	p.registerLocked(j)
	t.queued++
	p.spanLocked(j, TraceSpan{Event: SpanAdmit, State: StateQueued, Point: -1})
	st := p.statusLocked(j, true)
	p.mu.Unlock()

	p.opts.Log.Event("jobd.job_submitted", "job", id, "tenant", tenant,
		"priority", req.Priority, "points", len(sj.Points), "groups", len(j.assigned),
		"workload", sj.Profile.Name, "instructions", sj.Instructions)
	p.Kick()
	return st, nil
}

// newJobLocked builds the in-memory job structure (not yet registered).
func (p *Platform) newJobLocked(id, tenant string, priority int, seq uint64, submitted time.Time, sj *sweepd.Job) *job {
	jctx, jcancel := context.WithCancel(p.ctx)
	ledger := sweepd.NewLedger(sj)
	return &job{
		id: id, tenant: tenant, priority: priority, seq: seq, submitted: submitted,
		sj:        sj,
		ledger:    ledger,
		assigned:  make([]bool, len(ledger.Groups())),
		state:     StateQueued,
		results:   make([]*sweepd.WireResult, len(sj.Points)),
		telemetry: seqLog[core.IntervalSnapshot]{max: p.opts.TelemetryRing},
		spans:     seqLog[TraceSpan]{max: p.opts.TraceSpans},
		ctx:       jctx, cancel: jcancel,
		done:     make(chan struct{}),
		change:   make(chan struct{}),
		ckptSeen: make(map[int]bool),
	}
}

func (p *Platform) registerLocked(j *job) {
	p.jobs[j.id] = j
	p.order = append(p.order, j)
}

func (p *Platform) queueDepthLocked() int {
	n := 0
	for _, j := range p.order {
		if j.state == StateQueued {
			n++
		}
	}
	return n
}

// lookupLocked finds a job visible to tenant ("" bypasses scoping — only
// internal callers use that).
func (p *Platform) lookupLocked(tenant, id string) *job {
	j := p.jobs[id]
	if j == nil || (tenant != "" && j.tenant != tenant) {
		return nil
	}
	return j
}

// Status returns the job's current state, including per-point progress.
func (p *Platform) Status(tenant, id string) (JobStatus, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	j := p.lookupLocked(tenant, id)
	if j == nil {
		return JobStatus{}, ErrUnknownJob
	}
	return p.statusLocked(j, true), nil
}

// List returns the tenant's jobs, oldest first, without per-point detail.
func (p *Platform) List(tenant string) []JobStatus {
	p.mu.Lock()
	defer p.mu.Unlock()
	var out []JobStatus
	for _, j := range p.order {
		if tenant == "" || j.tenant == tenant {
			out = append(out, p.statusLocked(j, false))
		}
	}
	return out
}

// Cancel cancels a job: queued jobs never dispatch, running jobs abort
// their in-flight groups. Completed points' results remain readable.
// Canceling a terminal job is a no-op returning its status.
func (p *Platform) Cancel(tenant, id string) (JobStatus, error) {
	p.mu.Lock()
	j := p.lookupLocked(tenant, id)
	if j == nil {
		p.mu.Unlock()
		return JobStatus{}, ErrUnknownJob
	}
	if !j.state.Terminal() {
		j.cancel()
		p.finalizeLocked(j, StateCanceled, "canceled by client")
	}
	st := p.statusLocked(j, true)
	p.mu.Unlock()
	p.Kick()
	return st, nil
}

func (p *Platform) statusLocked(j *job, points bool) JobStatus {
	st := JobStatus{
		ID: j.id, Tenant: j.tenant, Priority: j.priority, State: j.state,
		Workload: j.sj.Profile.Name, Instructions: j.sj.Instructions,
		Submitted: j.submitted, Total: len(j.sj.Points), Completed: j.completed,
		Err: j.err,
	}
	if points {
		st.Points = make([]PointStatus, len(j.sj.Points))
		for i := range j.sj.Points {
			ps := PointStatus{Index: i, Name: j.sj.Points[i].Name}
			if wr := j.results[i]; wr != nil {
				ps.Done = true
				ps.Err = wr.Err
			}
			st.Points[i] = ps
		}
	}
	return st
}

// Snapshot returns the current metrics.
func (p *Platform) Snapshot() Metrics {
	p.mu.Lock()
	defer p.mu.Unlock()
	m := Metrics{
		QueuedByTenant:   make(map[string]int),
		RunningByTenant:  make(map[string]int),
		JobsByState:      make(map[State]int),
		Requeues:         p.requeues,
		ResumePoints:     p.resumePoints,
		RecoveredJobs:    p.recoveredJobs,
		RecoveredPoints:  p.recoveredPoints,
		RecoveredCkpts:   p.recoveredCkpts,
		Rejected:         p.rejected,
		TelemetrySnaps:   p.telemetrySnaps,
		TelemetryDropped: p.missed[telemetryStream.path],
		TelemetryClients: p.watchers[telemetryStream.path],
		TraceSpans:       p.traceSpansTotal,
		TraceDropped:     p.traceDropped,
	}
	if p.jn != nil {
		m.JournalTornTails = p.jn.tornTails
		m.JournalCRCErrors = p.jn.crcErrors
		m.JournalDegraded = p.jn.degraded
	}
	for _, j := range p.order {
		m.JobsByState[j.state]++
		switch j.state {
		case StateQueued:
			m.QueueDepth++
			m.QueuedByTenant[j.tenant]++
		case StateRunning:
			m.RunningByTenant[j.tenant]++
		}
	}
	for _, ws := range p.workers {
		if ws.dead {
			m.DeadWorkers++
		} else {
			m.Workers++
		}
	}
	return m
}

// broadcastLocked wakes every waiter watching the job.
func (p *Platform) broadcastLocked(j *job) {
	close(j.change)
	j.change = make(chan struct{})
}

// finalizeLocked moves the job to a terminal state, releases its tenant
// slot and journal checkpoints, and wakes waiters.
func (p *Platform) finalizeLocked(j *job, to State, errStr string) {
	if j.state.Terminal() {
		return
	}
	t := p.tenantLocked(j.tenant)
	switch j.state {
	case StateQueued:
		t.queued--
	case StateRunning:
		t.running--
	}
	j.state = to
	j.err = errStr
	j.cancel()
	close(j.done)
	p.spanLocked(j, TraceSpan{Event: SpanComplete, State: to, Point: -1,
		Points: j.completed, Detail: errStr})
	p.metrics.JobDuration.With(j.tenant).Observe(time.Since(j.submitted).Seconds())
	p.broadcastLocked(j)
	if p.jn != nil {
		if err := p.jn.appendLine(j.id, resultLine{Terminal: to, Err: errStr}); err != nil {
			p.opts.Log.Event("jobd.journal_error", "job", j.id, "op", "terminal", "err", err)
		}
		p.jn.clearCheckpoints(j.id)
	}
	p.opts.Log.Event("jobd.job_finished", "job", j.id, "tenant", j.tenant,
		"state", to, "completed", j.completed, "total", len(j.sj.Points), "err", errStr)
}

// --- dispatcher -------------------------------------------------------------

// dispatcher is the scheduling loop: it wakes on Kick (new submission,
// pool change, freed slot) and on a coarse safety-net tick, and assigns
// dispatchable groups to free worker slots by (priority, fair share, age).
func (p *Platform) dispatcher() {
	defer p.wg.Done()
	tick := time.NewTicker(250 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-p.ctx.Done():
			return
		case <-p.kick:
		case <-tick.C:
		}
		p.dispatch()
	}
}

func (p *Platform) dispatch() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.refreshWorkersLocked()
	for {
		w, ws := p.pickWorkerLocked()
		if w == nil {
			return
		}
		j, g := p.pickGroupLocked()
		if j == nil {
			return
		}
		p.startGroupLocked(j, g, w, ws)
	}
}

// refreshWorkersLocked reconciles the per-worker accounting with the
// pool's current membership. A worker that left the pool with a group
// still in flight is marked dead (its RunGroup will fail and requeue);
// one that left idle is forgotten. A worker the pool re-lists after being
// marked dead stays dead — pool identity is per registration, and the
// coordinator hands out a fresh remoteWorker per reconnect.
func (p *Platform) refreshWorkersLocked() {
	current := make(map[sweepd.Worker]bool)
	for _, w := range p.opts.Pool.Workers() {
		current[w] = true
		if _, ok := p.workers[w]; !ok {
			p.workers[w] = &workerState{}
		}
	}
	for w, ws := range p.workers {
		if !current[w] {
			if ws.busy == 0 {
				delete(p.workers, w)
			} else {
				ws.dead = true
			}
		}
	}
}

// pickWorkerLocked returns the least-loaded live worker with a free slot.
func (p *Platform) pickWorkerLocked() (sweepd.Worker, *workerState) {
	var best sweepd.Worker
	var bestWS *workerState
	for w, ws := range p.workers {
		if ws.dead || ws.busy >= p.opts.SlotsPerWorker {
			continue
		}
		if bestWS == nil || ws.busy < bestWS.busy {
			best, bestWS = w, ws
		}
	}
	return best, bestWS
}

// pickGroupLocked selects the next group to dispatch: highest job priority
// first; within a priority, the tenant with the lowest virtual time
// (weighted fair share); within a tenant, oldest submission; within a job,
// first dispatchable group. Returns a nil job when nothing is
// dispatchable.
func (p *Platform) pickGroupLocked() (*job, int) {
	var bestJob *job
	var bestG int
	var bestT *tenantState
	for _, j := range p.order {
		if j.state != StateQueued && j.state != StateRunning {
			continue
		}
		if j.ctx.Err() != nil {
			continue
		}
		g := -1
		for i, assigned := range j.assigned {
			if !assigned && j.ledger.Left(i) > 0 {
				g = i
				break
			}
		}
		if g < 0 {
			continue
		}
		t := p.tenantLocked(j.tenant)
		if bestJob == nil || betterCandidate(j, t, bestJob, bestT) {
			bestJob, bestG, bestT = j, g, t
		}
	}
	return bestJob, bestG
}

// betterCandidate reports whether (a, ta) should dispatch before (b, tb).
func betterCandidate(a *job, ta *tenantState, b *job, tb *tenantState) bool {
	if a.priority != b.priority {
		return a.priority > b.priority
	}
	if ta != tb && ta.vtime != tb.vtime {
		return ta.vtime < tb.vtime
	}
	return a.seq < b.seq
}

// startGroupLocked assigns group g of j to w and launches the run
// goroutine.
func (p *Platform) startGroupLocked(j *job, g int, w sweepd.Worker, ws *workerState) {
	j.assigned[g] = true
	ws.busy++
	t := p.tenantLocked(j.tenant)
	if j.state == StateQueued {
		j.state = StateRunning
		t.queued--
		t.running++
		p.broadcastLocked(j)
	}
	if j.firstDispatch.IsZero() {
		j.firstDispatch = time.Now()
		p.metrics.QueueWait.With(j.tenant).Observe(j.firstDispatch.Sub(j.submitted).Seconds())
	}
	// Start-time weighted fair queuing: the dispatch is charged 1/weight of
	// virtual service; a tenant returning from idle starts at the platform
	// clock instead of its stale past, so it neither replays its idle time
	// as a burst nor waits behind others' accumulated history.
	start := t.vtime
	if p.vclock > start {
		start = p.vclock
	}
	t.vtime = start + 1/t.weight()
	p.vclock = start

	gr := j.ledger.Assign(g)
	gr.OnCheckpoint = func(index int, data []byte) { p.onCheckpoint(j, index, data) }
	gr.OnTelemetry = func(index int, snap core.IntervalSnapshot) { p.onTelemetry(j, index, snap) }
	key := j.ledger.Groups()[g].Key.ID()
	wl := workerLabel(w)
	p.spanLocked(j, TraceSpan{Event: SpanDispatch, State: j.state, Point: -1,
		Group: key, Worker: wl, Points: len(gr.Indices)})
	for _, i := range gr.Indices {
		if data, ok := gr.Checkpoints[i]; ok {
			p.spanLocked(j, TraceSpan{Event: SpanResume, Point: i,
				Group: key, Worker: wl, Cycle: checkpointCycles(data)})
		}
	}
	p.resumePoints += uint64(len(gr.Checkpoints))
	p.opts.Log.Event("jobd.group_dispatched", "job", j.id, "tenant", j.tenant,
		"group", key, "points", len(gr.Indices), "resume_points", len(gr.Checkpoints),
		"worker", wl)
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		err := w.RunGroup(j.ctx, j.sj, gr, func(pr sweepd.PointResult) {
			p.onResult(j, wl, pr)
		})
		p.groupDone(j, g, w, err)
	}()
}

// workerLabel renders a worker identity for logs.
func workerLabel(w sweepd.Worker) string {
	if n, ok := w.(interface{ Name() string }); ok && n.Name() != "" {
		return n.Name()
	}
	return fmt.Sprintf("%T(%p)", w, w)
}

// onResult records one completed point the ledger accepted: in memory, in
// the journal, and to every stream waiter. worker attributes the result's
// origin in the job's trace.
func (p *Platform) onResult(j *job, worker string, pr sweepd.PointResult) {
	p.mu.Lock()
	defer p.mu.Unlock()
	idx := pr.Index
	if j.state.Terminal() || j.ctx.Err() != nil || !j.ledger.Record(idx) {
		return
	}
	if !j.firstResult {
		j.firstResult = true
		p.spanLocked(j, TraceSpan{Event: SpanFirstResult, Point: idx, Worker: worker})
		if !j.firstDispatch.IsZero() {
			p.metrics.FirstResult.With(j.tenant).Observe(time.Since(j.firstDispatch).Seconds())
		}
	}
	wr := sweepd.WireResultOf(idx, pr.Result)
	j.results[idx] = wr
	j.resultLog.append(wr)
	j.completed++
	p.spanLocked(j, TraceSpan{Event: SpanPointDone, Point: idx, Worker: worker, Detail: wr.Err})
	if p.jn != nil {
		if err := p.jn.appendLine(j.id, resultLine{Result: wr}); err != nil {
			// A result that failed to journal is still served from memory;
			// after a crash the point reruns — deterministic, so recovery
			// degrades to recomputation, never to a wrong or missing result.
			p.opts.Log.Event("jobd.journal_error", "job", j.id, "op", "result", "point", idx, "err", err)
		}
		p.jn.dropCheckpoint(j.id, idx)
	}
	p.broadcastLocked(j)
}

// onCheckpoint persists (latest-wins) a shipped checkpoint the job's
// ledger retained, for crash recovery.
func (p *Platform) onCheckpoint(j *job, index int, data []byte) {
	p.mu.Lock()
	if j.state.Terminal() || !j.ledger.Checkpoint(index, data) {
		p.mu.Unlock()
		return
	}
	if !j.ckptSeen[index] {
		// One span per point, on its first checkpoint: the point now has
		// resume state. Per-interval shipments stay quiet, like the logs.
		j.ckptSeen[index] = true
		p.spanLocked(j, TraceSpan{Event: SpanCheckpoint, Point: index,
			Cycle:  checkpointCycles(data),
			Detail: fmt.Sprintf("%d bytes", len(data))})
	}
	p.mu.Unlock()
	if p.jn != nil {
		if err := p.jn.saveCheckpoint(j.id, index, data); err != nil {
			p.opts.Log.Event("jobd.journal_error", "job", j.id, "op", "checkpoint", "point", index, "err", err)
		}
	}
}

// groupDone handles a RunGroup return: clean completion, worker death with
// requeue, or cancellation.
func (p *Platform) groupDone(j *job, g int, w sweepd.Worker, err error) {
	p.mu.Lock()
	if ws := p.workers[w]; ws != nil {
		ws.busy--
	}
	j.assigned[g] = false
	left, err := j.ledger.Returned(g, err)
	if err != nil && j.ctx.Err() == nil {
		if ws := p.workers[w]; ws != nil {
			ws.dead = true
		}
		if left > 0 {
			key := j.ledger.Groups()[g].Key.ID()
			p.requeues++
			p.spanLocked(j, TraceSpan{Event: SpanRequeue, Point: -1,
				Group: key, Worker: workerLabel(w), Points: left, Detail: err.Error()})
			p.opts.Log.Event("jobd.group_requeued", "job", j.id, "tenant", j.tenant,
				"group", key, "remaining", left, "worker", workerLabel(w), "err", err)
		}
	}
	if !j.state.Terminal() && j.completed == len(j.sj.Points) {
		p.finalizeLocked(j, StateDone, "")
	}
	p.mu.Unlock()
	p.Kick()
}

// --- recovery ---------------------------------------------------------------

// recover replays the journal into the platform: terminal jobs become
// queryable history, unfinished jobs re-enter the queue with completed
// points pinned and persisted checkpoints seeded for mid-run resume.
func (p *Platform) recover() error {
	recs, err := p.jn.load()
	if err != nil {
		return err
	}
	sort.Slice(recs, func(a, b int) bool { return recs[a].spec.Seq < recs[b].spec.Seq })
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, rec := range recs {
		if rec.spec.Seq > p.seq {
			p.seq = rec.spec.Seq
		}
		sj, err := sweepd.JobFromWire(rec.spec.Job)
		if err != nil {
			// A journaled job this build cannot materialize (schema drift,
			// hand-edited journal) is surfaced as failed, not silently
			// dropped and not a crash loop.
			p.opts.Log.Event("jobd.recover_failed", "job", rec.spec.ID, "err", err)
			continue
		}
		sj.CheckpointBudget = p.opts.CheckpointBudget
		sj.TelemetryEvery = p.opts.TelemetryEvery
		j := p.newJobLocked(rec.spec.ID, rec.spec.Tenant, rec.spec.Priority,
			rec.spec.Seq, rec.spec.Submitted, sj)
		for _, wr := range rec.results {
			if !j.ledger.Record(wr.Index) {
				continue
			}
			j.results[wr.Index] = wr
			j.resultLog.append(wr)
			j.completed++
		}
		p.registerLocked(j)
		if rec.terminal != "" {
			j.state = rec.terminal
			j.err = rec.terminalErr
			j.cancel()
			close(j.done)
			continue
		}
		t := p.tenantLocked(j.tenant)
		t.queued++
		p.recoveredJobs++
		p.recoveredPoints += j.completed
		for idx, data := range rec.ckpts {
			if j.ledger.Checkpoint(idx, data) {
				p.recoveredCkpts++
			}
		}
		// The trace is ephemeral: a recovered job's span log restarts here,
		// its pre-crash spans gone with the process that recorded them.
		p.spanLocked(j, TraceSpan{Event: SpanRecovered, State: StateQueued, Point: -1,
			Points: j.completed,
			Detail: fmt.Sprintf("%d/%d points done, %d checkpoints", j.completed, len(j.sj.Points), len(rec.ckpts))})
		if j.completed == len(j.sj.Points) {
			// Crashed between the last result and the terminal marker.
			p.finalizeLocked(j, StateDone, "")
			continue
		}
		p.opts.Log.Event("jobd.job_recovered", "job", j.id, "tenant", j.tenant,
			"completed", j.completed, "total", len(j.sj.Points),
			"checkpoints", len(rec.ckpts))
	}
	return nil
}
