// Wire protocol for the sharded sweep service. Everything that crosses the
// network is defined in this file: length-prefixed JSON envelopes over TCP,
// with the engine configuration shipped as the declarative configfile
// schema (plus the fields that schema omits) rather than Go values —
// hooks are not part of a configuration and never travel. Trace payloads
// ride along as delta-compressed containers (the tracecache spill format),
// base64-coded by JSON.
//
// Compatibility: protoVersion gates the envelope shape, and the trace-key
// content address (tracecache.Key.ID()) gates routing — a golden test pins
// the latter so an accidental key-format change fails loudly instead of
// silently splitting coordinator and worker caches across versions.
package sweepd

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/cache"
	"repro/internal/configfile"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/stats"
	"repro/internal/sweep"
	"repro/internal/uarch"
	"repro/internal/workload"
)

// protoVersion is bumped on any incompatible change to the wire types.
// Version 2 added checkpoint shipping: assignments carry prior per-point
// checkpoints to resume from, and workers stream msgCheckpoint messages so
// a requeued group resumes on a survivor instead of restarting at cycle 0.
// Version 3 added live telemetry streaming: jobs and assignments carry a
// TelemetryEvery cadence, and workers stream msgTelemetry messages — one
// core.IntervalSnapshot window delta per in-flight point per boundary —
// which the coordinator hands to the job's scheduler.
// Version 4 added liveness: both ends of every connection stream msgPing
// heartbeat frames and arm read/write deadlines, so a hung peer — TCP
// established, nothing flowing — is detected within the heartbeat timeout
// and treated as dead instead of stalling a job forever.
const protoVersion = 4

// Liveness defaults for protocol v4 connections. Any received frame
// (pings included) feeds the read deadline, so the timeout only fires
// after that much genuine silence — at the default ratio, four missed
// heartbeats.
const (
	// DefaultHeartbeatInterval is the cadence at which each end of a
	// connection emits msgPing frames when the owner does not override it.
	DefaultHeartbeatInterval = 5 * time.Second
	// DefaultHeartbeatTimeout is the silence after which a peer is
	// declared hung: reads and writes past it fail with
	// os.ErrDeadlineExceeded and the connection is torn down.
	DefaultHeartbeatTimeout = 20 * time.Second
	// defaultHandshakeTimeout bounds the hello exchange, so a peer that
	// connects and never speaks cannot pin a handler goroutine.
	defaultHandshakeTimeout = 10 * time.Second
)

// maxMessageBytes bounds one framed message; a 4M-instruction shipped
// trace container is on the order of 10 MB, so 1 GiB is generous headroom
// while still rejecting a corrupt length prefix immediately.
const maxMessageBytes = 1 << 30

// recvChunk is the most recv allocates for a frame before its payload
// arrives. A length prefix is only the peer's claim, read before the
// coordinator even knows who the peer is, so larger frames grow as their
// bytes are read instead of being allocated up front.
const recvChunk = 64 << 10

// Roles sent in the hello handshake. Sweeps are submitted through the job
// service's HTTP API (internal/jobd), never over this wire, so a peer
// claiming any other role is refused at the hello.
const (
	roleWorker      = "worker"
	roleCoordinator = "coordinator"
)

// Message types.
const (
	msgHello      = "hello"      // both directions, first message on a connection
	msgAssign     = "assign"     // coordinator -> worker: run one key-group
	msgCancel     = "cancel"     // coordinator -> worker: abort one assignment
	msgResult     = "result"     // worker -> coordinator: one point done
	msgCheckpoint = "checkpoint" // worker -> coordinator: one point's latest engine state
	msgTelemetry  = "telemetry"  // worker -> coordinator: one point's interval snapshot
	msgGroupEnd   = "group_end"  // worker -> coordinator: assignment finished
	msgPing       = "ping"       // both directions: liveness heartbeat, no payload
)

// Fault-injection site keys for the wire layer (see internal/faults and
// docs/ROBUSTNESS.md). Each names one guarded operation; the chaos suite
// arms seeded schedules against them. Exported so chaos tests and
// operators' fault configs can name them.
const (
	// FaultWorkerSend guards every frame a worker writes to the
	// coordinator (results, checkpoints, heartbeats).
	FaultWorkerSend = "sweepd.worker.send"
	// FaultWorkerRecv guards every frame a worker reads.
	FaultWorkerRecv = "sweepd.worker.recv"
	// FaultCoordSend guards every frame the coordinator writes to one
	// worker (assignments, cancellations, heartbeats).
	FaultCoordSend = "sweepd.coordinator.send"
	// FaultCoordRecv guards every frame the coordinator reads.
	FaultCoordRecv = "sweepd.coordinator.recv"
)

// ErrKillMidFrame, injected at a send site, makes the wire write a torn
// frame (prefix plus half the payload) and drop the connection — the
// observable signature of a process dying inside a write.
var ErrKillMidFrame = errors.New("sweepd: injected mid-frame kill")

// Message is the single wire envelope; Type selects which payload field is
// populated.
type Message struct {
	Type       string          `json:"type"`
	Hello      *Hello          `json:"hello,omitempty"`
	Assign     *Assignment     `json:"assign,omitempty"`
	Cancel     *Cancel         `json:"cancel,omitempty"`
	Result     *WireResult     `json:"result,omitempty"`
	Checkpoint *CheckpointShip `json:"checkpoint,omitempty"`
	Telemetry  *TelemetryShip  `json:"telemetry,omitempty"`
	GroupEnd   *GroupEnd       `json:"group_end,omitempty"`
}

// Hello opens every connection.
type Hello struct {
	Proto int    `json:"proto"`
	Role  string `json:"role"`
	Name  string `json:"name,omitempty"`
	// PingMillis and DeadMillis, set in the coordinator's hello, advertise
	// the fabric's heartbeat cadence and silence tolerance. Workers
	// without explicit overrides adopt them, so one coordinator
	// setting tunes the whole cluster's liveness — and a peer never pings
	// slower than the coordinator's patience.
	PingMillis int64 `json:"ping_ms,omitempty"`
	DeadMillis int64 `json:"dead_ms,omitempty"`
}

// ConfigSpec is the wire form of core.Config: the configfile schema plus
// the engine fields that schema does not carry.
type ConfigSpec struct {
	configfile.File
	FUs       uarch.FUConfig `json:"fus"`
	MaxCycles uint64         `json:"max_cycles,omitempty"`
}

// SpecOf converts an engine configuration for the wire. It fails on a
// configuration the spec does not materialize back to, cache names aside:
// an invalid one.
func SpecOf(cfg core.Config) (ConfigSpec, error) {
	spec := ConfigSpec{File: configfile.FromConfig(cfg), FUs: cfg.FUs, MaxCycles: cfg.MaxCycles}
	back, err := spec.Config()
	if err == nil && unnamed(back) != unnamed(cfg) {
		err = errors.New("its spec materializes to a different machine")
	}
	if err != nil {
		return ConfigSpec{}, fmt.Errorf("sweepd: configuration has no wire form: %w", err)
	}
	return spec, nil
}

// unnamed is cfg with its cache names cleared, which the wire does not
// carry.
func unnamed(cfg core.Config) core.Config {
	for _, side := range []*cache.Side{&cfg.ICache, &cfg.DCache} {
		side.L1.Name, side.L2.Name = "", ""
	}
	return cfg
}

// Config materializes the spec into a validated engine configuration.
// Materialization is deterministic, so a coordinator and its workers derive
// identical trace keys from the same spec.
func (s ConfigSpec) Config() (core.Config, error) {
	cfg, err := s.File.ToConfig()
	if err != nil {
		return core.Config{}, err
	}
	cfg.FUs = s.FUs
	cfg.MaxCycles = s.MaxCycles
	if err := cfg.Validate(); err != nil {
		return core.Config{}, err
	}
	return cfg, nil
}

// WirePoint is one design point on the wire. Index is the point's position
// in the submitted job, the identity results are keyed by.
type WirePoint struct {
	Index  int        `json:"index"`
	Name   string     `json:"name"`
	Config ConfigSpec `json:"config"`
}

// WireJob is the serialized form of a sweep job, as the job service
// journals it.
type WireJob struct {
	Profile      workload.Profile `json:"profile"`
	Instructions uint64           `json:"instructions"`
	Points       []WirePoint      `json:"points"`
}

// WireJobOf converts an in-process job for submission, validating every
// point is expressible on the wire: the canonical job serialization, shared
// by the job platform (internal/jobd) and its clients.
func WireJobOf(job *Job) (*WireJob, error) {
	wj := &WireJob{Profile: job.Profile, Instructions: job.Instructions,
		Points: make([]WirePoint, len(job.Points))}
	for i, pt := range job.Points {
		spec, err := SpecOf(pt.Config)
		if err != nil {
			return nil, fmt.Errorf("point %d (%s): %w", i, pt.Name, err)
		}
		wj.Points[i] = WirePoint{Index: i, Name: pt.Name, Config: spec}
	}
	return wj, nil
}

// JobFromWire materializes a received job, validating every point's
// configuration. Point order follows the wire order; each point's Index
// must equal its position.
func JobFromWire(wj *WireJob) (*Job, error) {
	job := &Job{Profile: wj.Profile, Instructions: wj.Instructions,
		Points: make([]sweep.Point, len(wj.Points))}
	for i, wp := range wj.Points {
		if wp.Index != i {
			return nil, fmt.Errorf("sweepd: point %d arrived with index %d", i, wp.Index)
		}
		cfg, err := wp.Config.Config()
		if err != nil {
			return nil, fmt.Errorf("sweepd: point %d (%s): %w", i, wp.Name, err)
		}
		job.Points[i] = sweep.Point{Name: wp.Name, Config: cfg}
	}
	return job, nil
}

// Assignment hands one key-group to a worker. Call identifies the
// assignment for results, completion and cancellation. Trace, when
// non-empty, is the group's generated trace as a delta-compressed container
// — shipped from the coordinator's cache so the worker can seed its own
// instead of regenerating.
type Assignment struct {
	Call         uint64           `json:"call"`
	KeyID        string           `json:"key_id"`
	Profile      workload.Profile `json:"profile"`
	Instructions uint64           `json:"instructions"`
	Points       []WirePoint      `json:"points"`
	Trace        []byte           `json:"trace,omitempty"`
	// Checkpoints carries the latest serialized engine checkpoint per
	// job-wide point index (core.Checkpoint encoding), captured by a
	// previous owner of this group; the worker resumes those points from
	// their checkpointed cycle instead of cycle 0.
	Checkpoints map[int][]byte `json:"checkpoints,omitempty"`
	// TelemetryEvery, when non-zero, makes the worker stream msgTelemetry
	// snapshots for every in-flight point at this cycle cadence (the job's
	// cadence, copied into each assignment).
	TelemetryEvery uint64 `json:"telemetry_every,omitempty"`
}

// Cancel aborts one in-flight assignment on a worker.
type Cancel struct {
	Call uint64 `json:"call"`
}

// CheckpointShip streams one point's latest serialized engine state from a
// worker to the coordinator, which holds it as the group's resume point in
// case the worker dies. Data is the core.Checkpoint encoding.
type CheckpointShip struct {
	Call  uint64 `json:"call"`
	Index int    `json:"index"`
	Data  []byte `json:"data"`
}

// TelemetryShip streams one point's per-interval telemetry snapshot.
// It carries Call, and the group-relative point is already remapped:
// Index (and Snap.Core) are the job-wide point index. Pipe-trace tails
// never cross the wire (they are a local-sink feature).
type TelemetryShip struct {
	Call  uint64                `json:"call,omitempty"`
	Index int                   `json:"index"`
	Snap  core.IntervalSnapshot `json:"snap"`
}

// WireRunResult is core.Result without the live Config (reconstructed from
// the point's spec on the receiving side).
type WireRunResult struct {
	core.Counters
	ICache cache.Stats     `json:"icache"`
	DCache cache.Stats     `json:"dcache"`
	IFQ    stats.Occupancy `json:"ifq"`
	RB     stats.Occupancy `json:"rb"`
	LSQ    stats.Occupancy `json:"lsq"`
}

// WireRunResultOf strips a result to its wire form (the configuration is
// reattached receiver-side via Result). Shared with the job platform.
func WireRunResultOf(r core.Result) *WireRunResult {
	return &WireRunResult{Counters: r.Counters,
		ICache: r.ICache, DCache: r.DCache, IFQ: r.IFQ, RB: r.RB, LSQ: r.LSQ}
}

// Result rebuilds the engine result around the receiver-side configuration.
func (w *WireRunResult) Result(cfg core.Config) core.Result {
	return core.Result{Counters: w.Counters,
		ICache: w.ICache, DCache: w.DCache, IFQ: w.IFQ, RB: w.RB, LSQ: w.LSQ,
		Config: cfg}
}

// WireResult reports one completed point. Worker -> coordinator it carries
// Call; the job service's result stream and journal carry it without.
type WireResult struct {
	Call  uint64         `json:"call,omitempty"`
	Index int            `json:"index"`
	Name  string         `json:"name,omitempty"`
	Err   string         `json:"err,omitempty"`
	Res   *WireRunResult `json:"res,omitempty"`
}

// WireResultOf is the wire form of point index's result.
func WireResultOf(index int, res sweep.Result) *WireResult {
	wr := &WireResult{Index: index, Name: res.Name}
	if res.Err != nil {
		wr.Err = res.Err.Error()
	} else {
		wr.Res = WireRunResultOf(res.Res)
	}
	return wr
}

// Result rebuilds the scheduler result for pt, the point the result
// belongs to; the engine result takes pt's configuration.
func (r *WireResult) Result(pt sweep.Point) sweep.Result {
	res := sweep.Result{Point: pt}
	if r.Err != "" {
		res.Err = errors.New(r.Err)
	} else if r.Res != nil {
		res.Res = r.Res.Result(pt.Config)
	}
	return res
}

// GroupEnd closes one assignment. A non-empty Err means the worker could
// not finish the group (shutdown mid-run); the coordinator requeues the
// remainder elsewhere.
type GroupEnd struct {
	Call uint64 `json:"call"`
	Err  string `json:"err,omitempty"`
}

// wire frames messages over one connection: a 4-byte big-endian length
// prefix followed by the JSON envelope. Reads are single-consumer; writes
// are mutex-serialized so result streams from concurrent assignments
// interleave whole messages.
//
// Liveness (protocol v4): when readTimeout/writeTimeout are set, every
// framed operation arms a connection deadline from faults.System,
// and a heartbeat goroutine keeps frames flowing in quiet periods — so a
// hung peer surfaces as os.ErrDeadlineExceeded on this end. sendSite and
// recvSite name the wire's fault-injection points (nil inj injects
// nothing and costs one pointer test).
type wire struct {
	conn net.Conn
	br   *bufio.Reader
	wmu  sync.Mutex
	bw   *bufio.Writer

	inj          *faults.Injector
	sendSite     string
	recvSite     string
	readTimeout  time.Duration // max silence tolerated per framed read (0 = none)
	writeTimeout time.Duration // max block per framed write (0 = none)
}

func newWire(conn net.Conn) *wire {
	return &wire{conn: conn, br: bufio.NewReader(conn), bw: bufio.NewWriter(conn)}
}

func (w *wire) send(m *Message) error {
	payload, err := json.Marshal(m)
	if err != nil {
		return err
	}
	if len(payload) > maxMessageBytes {
		return fmt.Errorf("sweepd: message of %d bytes exceeds the %d-byte frame limit", len(payload), maxMessageBytes)
	}
	var prefix [4]byte
	binary.BigEndian.PutUint32(prefix[:], uint32(len(payload)))
	w.wmu.Lock()
	defer w.wmu.Unlock()
	// The injection point sits inside the write lock: a Hang rule here
	// wedges the whole write path — heartbeats included — which is
	// exactly how a truly hung process looks from the other end.
	if err := w.inj.At(w.sendSite); err != nil {
		if errors.Is(err, ErrKillMidFrame) {
			w.bw.Write(prefix[:])
			w.bw.Write(payload[:len(payload)/2])
			w.bw.Flush()
			w.conn.Close()
		}
		return err
	}
	if w.writeTimeout > 0 {
		_ = w.conn.SetWriteDeadline(faults.System.Now().Add(w.writeTimeout))
	}
	if _, err := w.bw.Write(prefix[:]); err != nil {
		return err
	}
	if _, err := w.bw.Write(payload); err != nil {
		return err
	}
	return w.bw.Flush()
}

func (w *wire) recv() (*Message, error) {
	if err := w.inj.At(w.recvSite); err != nil {
		w.conn.Close()
		return nil, err
	}
	var prefix [4]byte
	if w.readTimeout > 0 {
		_ = w.conn.SetReadDeadline(faults.System.Now().Add(w.readTimeout))
	}
	if _, err := io.ReadFull(w.br, prefix[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(prefix[:])
	if n > maxMessageBytes {
		return nil, fmt.Errorf("sweepd: frame of %d bytes exceeds the %d-byte limit", n, maxMessageBytes)
	}
	if w.readTimeout > 0 {
		_ = w.conn.SetReadDeadline(faults.System.Now().Add(w.readTimeout))
	}
	payload, err := readPayload(w.br, int(n))
	if err != nil {
		return nil, err
	}
	var m Message
	if err := json.Unmarshal(payload, &m); err != nil {
		return nil, fmt.Errorf("sweepd: corrupt frame: %w", err)
	}
	return &m, nil
}

// readPayload reads an n-byte frame payload. It starts with at most
// recvChunk bytes and at most doubles what it has received before reading
// on, so memory tracks the bytes that actually arrive; a frame within
// recvChunk costs one allocation.
func readPayload(r io.Reader, n int) ([]byte, error) {
	buf := make([]byte, min(n, recvChunk))
	got := 0
	for {
		m, err := io.ReadFull(r, buf[got:])
		got += m
		if err != nil {
			if err == io.EOF && got > 0 {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
		if got == n {
			return buf, nil
		}
		buf = append(buf, make([]byte, min(n-got, got))...)
	}
}

// heartbeat streams msgPing frames every interval until stop closes or a
// send fails. Any frame feeds the peer's read deadline, so pings only
// matter when no data is flowing — which is precisely when a hung peer
// would otherwise be indistinguishable from a quiet one.
func (w *wire) heartbeat(interval time.Duration, stop <-chan struct{}) {
	for {
		select {
		case <-stop:
			return
		case <-faults.System.After(interval):
			if w.send(&Message{Type: msgPing}) != nil {
				return
			}
		}
	}
}

func (w *wire) Close() error { return w.conn.Close() }

// handshake sends our hello (Proto filled in) and validates the peer's,
// which must carry role want.
func handshake(w *wire, hello Hello, want string) (*Hello, error) {
	hello.Proto = protoVersion
	if err := w.send(&Message{Type: msgHello, Hello: &hello}); err != nil {
		return nil, err
	}
	m, err := w.recv()
	if err != nil {
		return nil, err
	}
	if m.Type != msgHello || m.Hello == nil {
		return nil, fmt.Errorf("sweepd: expected hello, got %q", m.Type)
	}
	if m.Hello.Proto != protoVersion {
		return nil, fmt.Errorf("sweepd: protocol version %d, want %d", m.Hello.Proto, protoVersion)
	}
	if m.Hello.Role != want {
		return nil, fmt.Errorf("sweepd: unexpected peer role %q", m.Hello.Role)
	}
	return m.Hello, nil
}

// livenessParams resolves a worker's heartbeat interval and timeout from
// the coordinator's hello: its advertised values, or the protocol
// defaults where it advertised none.
func livenessParams(hello *Hello) (interval, timeout time.Duration) {
	interval, timeout = DefaultHeartbeatInterval, DefaultHeartbeatTimeout
	if hello.PingMillis > 0 {
		interval = time.Duration(hello.PingMillis) * time.Millisecond
	}
	if hello.DeadMillis > 0 {
		timeout = time.Duration(hello.DeadMillis) * time.Millisecond
	}
	return interval, timeout
}

// errString flattens an error for the wire.
func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}
