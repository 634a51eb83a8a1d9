package sweepd

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/tracecache"
)

// Coordinator is the sweep service's worker fabric: it accepts worker
// registrations on one listener and exposes the live workers as the pool
// a scheduler dispatches trace-key groups onto (Workers). Each remote
// worker runs one group per assignment, with the group's trace shipped
// from the coordinator's cache when it already holds the container; a
// worker that dies or hangs fails its pending groups, so the scheduler
// requeues them on survivors. Jobs reach it only through the job service
// (internal/jobd), which schedules over Workers.
type Coordinator struct {
	// Traces, when non-nil, is the coordinator's trace cache: groups whose
	// trace it already holds (resident or spilled — e.g. warmed by local
	// runs sharing the cache, or a populated SpillDir) are shipped to the
	// assigned worker as delta-compressed containers, so the worker seeds
	// its cache instead of regenerating.
	Traces *tracecache.Cache
	// Log, when non-nil, receives service log events.
	Log *obs.Logger
	// OnWorkersChanged, when non-nil, is called (without the coordinator
	// lock held) after a worker registers or disconnects — the dispatch
	// hook the job platform (internal/jobd) uses to re-schedule queued
	// groups when capacity appears or a worker dies. Set it before Serve.
	OnWorkersChanged func()
	// Metrics, when non-nil, receives event counts (worker connects,
	// group dispatch/requeue, trace shipping) and the group round-trip
	// distribution. Build it with RegisterCoordinatorMetrics and set it
	// before Serve; nil costs one pointer check per event.
	Metrics *CoordinatorMetrics
	// HeartbeatInterval is the msgPing cadence on every accepted
	// connection and HeartbeatTimeout the silence after which a peer is
	// declared hung and torn down (its groups requeue from their latest
	// checkpoints). Zero applies DefaultHeartbeatInterval /
	// DefaultHeartbeatTimeout; negative disables that side of liveness.
	// Workers adopt both from the coordinator's hello, or the defaults
	// for a disabled side.
	HeartbeatInterval time.Duration
	HeartbeatTimeout  time.Duration
	// HandshakeTimeout bounds the hello exchange on accepted connections
	// (zero: a 10s default), so a silent peer cannot pin a handler
	// goroutine until Close.
	HandshakeTimeout time.Duration
	// Faults, when non-nil, arms the coordinator side of the wire with a
	// fault-injection schedule (sites sweepd.coordinator.send/recv); nil
	// injects nothing. See internal/faults.
	Faults *faults.Injector

	mu      sync.Mutex
	workers map[*remoteWorker]struct{}
	conns   map[net.Conn]struct{}
	ln      net.Listener
	closed  bool

	callSeq atomic.Uint64
	wg      sync.WaitGroup // per-connection handlers
	loopWg  sync.WaitGroup // accept loops (Serve calls)
}

// NewCoordinator builds an idle coordinator; start it with Serve or
// ListenAndServe.
func NewCoordinator() *Coordinator {
	return &Coordinator{
		workers: make(map[*remoteWorker]struct{}),
		conns:   make(map[net.Conn]struct{}),
	}
}

// WorkerCount reports currently registered workers (tests poll it while
// bringing a cluster up).
func (c *Coordinator) WorkerCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.workers)
}

// Addr returns the listener address once serving ("" before).
func (c *Coordinator) Addr() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.ln == nil {
		return ""
	}
	return c.ln.Addr().String()
}

// ListenAndServe listens on addr and serves until Close.
func (c *Coordinator) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return c.Serve(ln)
}

// Start listens on addr (":0" for an ephemeral port), serves in the
// background and returns the bound address — the test and example
// entry point.
func (c *Coordinator) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	go c.Serve(ln) //nolint:errcheck // background accept loop ends at Close
	return ln.Addr().String(), nil
}

// Serve accepts connections on ln until Close (or a listener error).
func (c *Coordinator) Serve(ln net.Listener) error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		ln.Close()
		return errors.New("sweepd: coordinator closed")
	}
	c.ln = ln
	// Registered under the lock that also orders Close's closed=true, so
	// Close either sees no loop (and skips waiting) or waits for this one
	// to observe closed and exit — the accept loop can never outlive Close
	// holding an untracked just-accepted connection.
	c.loopWg.Add(1)
	c.mu.Unlock()
	defer c.loopWg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			c.mu.Lock()
			closed := c.closed
			c.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			conn.Close()
			return nil
		}
		c.conns[conn] = struct{}{}
		c.wg.Add(1)
		c.mu.Unlock()
		go func() {
			defer c.wg.Done()
			defer func() {
				c.mu.Lock()
				delete(c.conns, conn)
				c.mu.Unlock()
				conn.Close()
			}()
			c.handleConn(conn)
		}()
	}
}

// Close stops the listener, tears down every connection and waits for the
// accept loop and every per-connection goroutine to drain — after Close
// returns, the coordinator holds no open connections and has leaked no
// goroutines.
func (c *Coordinator) Close() error {
	c.mu.Lock()
	c.closed = true
	ln := c.ln
	for conn := range c.conns {
		conn.Close()
	}
	c.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	c.loopWg.Wait()
	c.wg.Wait()
	return nil
}

// hbInterval, hbTimeout and hsTimeout resolve the coordinator's liveness
// knobs: zero means the protocol default, negative disables.
func (c *Coordinator) hbInterval() time.Duration {
	if c.HeartbeatInterval == 0 {
		return DefaultHeartbeatInterval
	}
	return c.HeartbeatInterval
}

func (c *Coordinator) hbTimeout() time.Duration {
	if c.HeartbeatTimeout == 0 {
		return DefaultHeartbeatTimeout
	}
	if c.HeartbeatTimeout < 0 {
		return 0
	}
	return c.HeartbeatTimeout
}

func (c *Coordinator) hsTimeout() time.Duration {
	if c.HandshakeTimeout <= 0 {
		return defaultHandshakeTimeout
	}
	return c.HandshakeTimeout
}

// handleConn performs the hello handshake, which admits only workers, and
// serves the worker until it disconnects.
func (c *Coordinator) handleConn(conn net.Conn) {
	w := newWire(conn)
	w.inj = c.Faults
	w.sendSite, w.recvSite = FaultCoordSend, FaultCoordRecv
	// Bound the hello exchange: a peer that connects and never speaks
	// (or dies mid-handshake) must not pin this goroutine until Close.
	_ = conn.SetDeadline(faults.System.Now().Add(c.hsTimeout()))
	hello, err := handshake(w, Hello{
		Role:       roleCoordinator,
		PingMillis: c.hbInterval().Milliseconds(),
		DeadMillis: c.hbTimeout().Milliseconds(),
	}, roleWorker)
	if err != nil {
		if errors.Is(err, os.ErrDeadlineExceeded) {
			c.Metrics.handshakeTimeout()
			c.Log.Event("sweepd.handshake_timeout", "addr", conn.RemoteAddr().String(), "timeout", c.hsTimeout())
		} else {
			c.Log.Event("sweepd.handshake_failed", "addr", conn.RemoteAddr().String(), "err", err)
		}
		return
	}
	_ = conn.SetDeadline(time.Time{})
	w.readTimeout = c.hbTimeout()
	w.writeTimeout = c.hbTimeout()
	if iv := c.hbInterval(); iv > 0 {
		stop := make(chan struct{})
		defer close(stop)
		go w.heartbeat(iv, stop)
	}
	c.serveWorker(w, hello.Name)
}

// serveWorker registers the connection as a worker and pumps its messages
// until it disconnects; pending assignments then fail over to survivors.
func (c *Coordinator) serveWorker(w *wire, name string) {
	rw := &remoteWorker{c: c, w: w, name: name, calls: make(map[uint64]*groupCall)}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.workers[rw] = struct{}{}
	c.mu.Unlock()
	c.Metrics.workerConnected()
	c.Log.Event("sweepd.worker_registered", "worker", name, "addr", w.conn.RemoteAddr().String())
	c.workersChanged()
	err := rw.readLoop()
	c.mu.Lock()
	delete(c.workers, rw)
	c.mu.Unlock()
	if errors.Is(err, os.ErrDeadlineExceeded) {
		// The TCP connection is still up but nothing — not even pings —
		// arrived within the heartbeat timeout: the worker is hung, not
		// merely disconnected. Same recovery either way (fail every
		// pending call, so the scheduler requeues the groups from their
		// latest checkpoints), but counted and logged distinctly.
		c.Metrics.heartbeatTimeout()
		c.Log.Event("sweepd.worker_heartbeat_timeout", "worker", name, "timeout", c.hbTimeout())
	}
	rw.fail(err)
	c.Metrics.workerGone()
	c.Log.Event("sweepd.worker_gone", "worker", name, "err", err)
	c.workersChanged()
}

// workersChanged fires the OnWorkersChanged dispatch hook, if any.
func (c *Coordinator) workersChanged() {
	if c.OnWorkersChanged != nil {
		c.OnWorkersChanged()
	}
}

// Workers returns a snapshot of the currently registered workers — the
// worker pool a scheduler dispatches groups onto. Workers that register
// later appear in later snapshots (OnWorkersChanged signals when to take a
// fresh one); workers that die mid-group are handled by the caller's
// requeue on RunGroup error.
func (c *Coordinator) Workers() []Worker {
	c.mu.Lock()
	defer c.mu.Unlock()
	ws := make([]Worker, 0, len(c.workers))
	for rw := range c.workers {
		ws = append(ws, rw)
	}
	return ws
}

// groupCall is one in-flight assignment on a remote worker.
type groupCall struct {
	job    *Job
	emit   func(PointResult)
	onCkpt func(index int, data []byte)                // nil when the scheduler keeps no checkpoints
	onTel  func(index int, snap core.IntervalSnapshot) // nil when the job streams no telemetry
	done   chan error                                  // buffered; receives exactly one completion
	// ckptLogged marks points whose first checkpoint receipt was logged;
	// later shipments (one per cadence interval) stay quiet. Guarded by the
	// owning remoteWorker's mutex.
	ckptLogged map[int]bool
}

// remoteWorker proxies a registered worker connection behind the Worker
// interface, multiplexing concurrent assignments (possibly from several
// jobs) over the single connection by call ID.
type remoteWorker struct {
	c    *Coordinator
	w    *wire
	name string

	mu      sync.Mutex
	calls   map[uint64]*groupCall
	dead    bool
	deadErr error
}

// Name reports the worker's self-declared registration name, attributing
// dispatches and results to a host in logs and job traces.
func (rw *remoteWorker) Name() string { return rw.name }

// RunGroup implements Worker: ship the assignment (including any prior
// checkpoints to resume from), stream results into emit and shipped
// checkpoints into gr.OnCheckpoint, and return when the worker reports the
// group closed (or dies).
func (rw *remoteWorker) RunGroup(ctx context.Context, job *Job, gr GroupRun, emit func(PointResult)) error {
	call := &groupCall{job: job, emit: emit, onCkpt: gr.OnCheckpoint, onTel: gr.OnTelemetry,
		done: make(chan error, 1), ckptLogged: make(map[int]bool)}
	id := rw.c.callSeq.Add(1)

	rw.mu.Lock()
	if rw.dead {
		err := rw.deadErr
		rw.mu.Unlock()
		return err
	}
	rw.calls[id] = call
	rw.mu.Unlock()
	defer func() {
		rw.mu.Lock()
		delete(rw.calls, id)
		rw.mu.Unlock()
	}()

	asg, err := rw.assignment(id, job, gr)
	if err != nil {
		// Serialization failure is deterministic, not a worker fault — but a
		// point that cannot cross the wire cannot run remotely at all, so
		// surface it as this worker's death; if every worker refuses, the
		// job fails with the cause attached.
		rw.c.Metrics.groupRequeued()
		return err
	}
	start := time.Now()
	if err := rw.w.send(&Message{Type: msgAssign, Assign: asg}); err != nil {
		rw.fail(err)
		rw.c.Metrics.groupRequeued()
		return err
	}
	rw.c.Metrics.groupDispatched()
	select {
	case err := <-call.done:
		rw.c.Metrics.groupDone(start)
		if err != nil {
			rw.c.Metrics.groupRequeued()
		}
		return err
	case <-ctx.Done():
		// Tell the worker to stop simulating; best effort. A cancelled
		// round trip observes no RTT — the distribution measures completed
		// work, not how fast callers give up.
		rw.w.send(&Message{Type: msgCancel, Cancel: &Cancel{Call: id}}) //nolint:errcheck
		return ctx.Err()
	}
}

// assignment builds the wire form of one key-group, attaching the trace
// container when the coordinator's cache already holds it, and the group's
// latest per-point checkpoints so a requeued group resumes mid-run.
func (rw *remoteWorker) assignment(id uint64, job *Job, gr GroupRun) (*Assignment, error) {
	indices := gr.Indices
	asg := &Assignment{Call: id, Profile: job.Profile, Instructions: job.Instructions,
		Points: make([]WirePoint, len(indices)), Checkpoints: gr.Checkpoints,
		TelemetryEvery: job.TelemetryEvery}
	for i, idx := range indices {
		spec, err := SpecOf(job.Points[idx].Config)
		if err != nil {
			return nil, fmt.Errorf("sweepd: point %d (%s): %w", idx, job.Points[idx].Name, err)
		}
		asg.Points[i] = WirePoint{Index: idx, Name: job.Points[idx].Name, Config: spec}
	}
	if tc := rw.c.Traces; tc != nil && tc.Cacheable(job.Instructions) {
		key := tracecache.KeyFor(job.Profile, job.Points[indices[0]].Config.TraceConfig(), job.Instructions)
		asg.KeyID = key.ID()
		var buf bytes.Buffer
		if ok, err := tc.ExportContainer(key, &buf); ok && err == nil {
			asg.Trace = buf.Bytes()
			rw.c.Metrics.traceShipped(buf.Len())
			rw.c.Log.Event("sweepd.trace_shipped", "key", asg.KeyID, "bytes", buf.Len(), "worker", rw.name)
		}
	}
	return asg, nil
}

// readLoop pumps worker messages until the connection fails.
func (rw *remoteWorker) readLoop() error {
	for {
		m, err := rw.w.recv()
		if err != nil {
			return err
		}
		switch m.Type {
		case msgResult:
			r := m.Result
			if r == nil {
				continue
			}
			rw.mu.Lock()
			call := rw.calls[r.Call]
			rw.mu.Unlock()
			if call == nil || r.Index < 0 || r.Index >= len(call.job.Points) {
				continue // late result for a finished/cancelled call
			}
			call.emit(PointResult{Index: r.Index, Result: r.Result(call.job.Points[r.Index])})
		case msgCheckpoint:
			ck := m.Checkpoint
			if ck == nil {
				continue
			}
			rw.mu.Lock()
			call := rw.calls[ck.Call]
			first := false
			if call != nil && !call.ckptLogged[ck.Index] {
				call.ckptLogged[ck.Index] = true
				first = true
			}
			rw.mu.Unlock()
			if call == nil || call.onCkpt == nil || ck.Index < 0 || ck.Index >= len(call.job.Points) {
				continue // late shipment for a finished/cancelled call
			}
			if first {
				// One line per point, on its first shipment: the point now
				// has resume state. Per-interval shipments stay quiet.
				rw.c.Log.Event("sweepd.checkpoint_received", "point", ck.Index, "bytes", len(ck.Data), "worker", rw.name)
			}
			call.onCkpt(ck.Index, ck.Data)
		case msgTelemetry:
			ts := m.Telemetry
			if ts == nil {
				continue
			}
			rw.mu.Lock()
			call := rw.calls[ts.Call]
			rw.mu.Unlock()
			if call == nil || call.onTel == nil || ts.Index < 0 || ts.Index >= len(call.job.Points) {
				continue // late snapshot for a finished/cancelled call
			}
			// No per-snapshot logging: at a fine cadence these are the
			// chattiest messages on the wire. Forwarded outside rw.mu;
			// consumers must not block (jobd's broker drops instead).
			call.onTel(ts.Index, ts.Snap)
		case msgGroupEnd:
			ge := m.GroupEnd
			if ge == nil {
				continue
			}
			rw.mu.Lock()
			call := rw.calls[ge.Call]
			rw.mu.Unlock()
			if call == nil {
				continue
			}
			var err error
			if ge.Err != "" {
				err = errors.New(ge.Err)
			}
			select {
			case call.done <- err:
			default:
			}
		case msgPing:
			// Liveness only: receiving any frame already fed the read
			// deadline, so there is nothing further to do.
		}
	}
}

// fail marks the worker dead and completes every pending call with err, so
// the scheduler requeues their remainders.
func (rw *remoteWorker) fail(err error) {
	if err == nil {
		err = errors.New("sweepd: worker connection closed")
	}
	rw.mu.Lock()
	rw.dead = true
	rw.deadErr = err
	calls := make([]*groupCall, 0, len(rw.calls))
	for _, call := range rw.calls {
		calls = append(calls, call)
	}
	rw.mu.Unlock()
	for _, call := range calls {
		select {
		case call.done <- err:
		default:
		}
	}
}
