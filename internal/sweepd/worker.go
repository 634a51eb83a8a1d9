package sweepd

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/sweep"
	"repro/internal/tracecache"
)

// WorkerOptions configures one network worker process.
type WorkerOptions struct {
	// Name identifies the worker in coordinator logs.
	Name string
	// Parallelism bounds concurrent engines within one assigned group;
	// 0 uses GOMAXPROCS.
	Parallelism int
	// Traces is the worker's shared trace cache — every group this worker
	// runs generates (or seeds, when the coordinator ships a container)
	// each distinct trace once into it. nil builds a private default cache.
	Traces *tracecache.Cache
	// Observer, when non-nil, receives the worker's own per-point progress
	// through the standard Observer hook: Core is remapped to the point's
	// job-wide index, Done/Total count within the assigned group.
	Observer core.Observer
	// CheckpointEvery is the cadence (major cycles) at which the worker
	// serializes each in-flight engine's state and ships it to the
	// coordinator, so a group this worker dies holding resumes on a
	// survivor from the shipped cycle instead of cycle 0.
	// 0 selects core.DefaultObserverInterval.
	CheckpointEvery uint64
	// Log, when non-nil, receives worker log events.
	Log *obs.Logger
	// Faults, when non-nil, arms the worker side of the wire with a
	// fault-injection schedule (sites sweepd.worker.send/recv); nil
	// injects nothing. See internal/faults.
	Faults *faults.Injector
}

// Work dials the coordinator at addr, registers as a worker and serves
// key-group assignments until the context is cancelled or the connection
// fails. Each assignment runs through the ordinary sweep machinery against
// the worker's shared trace cache, streaming one result message per
// completed point.
func Work(ctx context.Context, addr string, opts WorkerOptions) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if opts.Traces == nil {
		opts.Traces = tracecache.New(tracecache.Config{})
	}

	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return err
	}
	w := newWire(conn)
	defer w.Close()
	w.inj = opts.Faults
	w.sendSite, w.recvSite = FaultWorkerSend, FaultWorkerRecv
	// Bound the handshake too: a hung coordinator must not wedge the
	// reconnect loop before liveness is even armed.
	_ = conn.SetDeadline(faults.System.Now().Add(defaultHandshakeTimeout))
	hello, err := handshake(w, Hello{Role: roleWorker, Name: opts.Name}, roleCoordinator)
	if err != nil {
		return err
	}
	_ = conn.SetDeadline(time.Time{})
	hbInterval, hbTimeout := livenessParams(hello)
	w.readTimeout, w.writeTimeout = hbTimeout, hbTimeout
	opts.Log.Event("sweepd.worker_connected", "worker", opts.Name, "coordinator", addr)

	// Tear the connection down on cancellation so the blocking recv returns.
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		select {
		case <-ctx.Done():
			w.Close()
		case <-stop:
		}
	}()
	go w.heartbeat(hbInterval, stop)

	var (
		mu      sync.Mutex
		cancels = make(map[uint64]context.CancelFunc)
		wg      sync.WaitGroup
	)
	defer wg.Wait()
	for {
		m, err := w.recv()
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			return err
		}
		switch m.Type {
		case msgAssign:
			asg := m.Assign
			if asg == nil {
				continue
			}
			actx, cancel := context.WithCancel(ctx)
			mu.Lock()
			cancels[asg.Call] = cancel
			mu.Unlock()
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer func() {
					mu.Lock()
					delete(cancels, asg.Call)
					mu.Unlock()
					cancel()
				}()
				serveAssignment(actx, w, asg, opts)
			}()
		case msgCancel:
			if m.Cancel == nil {
				continue
			}
			mu.Lock()
			if cancel := cancels[m.Cancel.Call]; cancel != nil {
				cancel()
			}
			mu.Unlock()
		case msgPing:
			// Liveness only; receiving it already fed the read deadline.
		}
	}
}

// serveAssignment runs one key-group and streams its results back.
func serveAssignment(ctx context.Context, w *wire, asg *Assignment, opts WorkerOptions) {
	end := func(err error) {
		w.send(&Message{Type: msgGroupEnd, GroupEnd: &GroupEnd{Call: asg.Call, Err: errString(err)}}) //nolint:errcheck
	}
	pts := make([]sweep.Point, len(asg.Points))
	indices := make([]int, len(asg.Points))
	for i, wp := range asg.Points {
		cfg, err := wp.Config.Config()
		if err != nil {
			// A point the worker cannot materialize is a deterministic
			// per-point failure, reported as an ordinary errored result so
			// the job completes instead of bouncing between workers.
			fail := fmt.Errorf("sweepd: materialize point %d (%s): %w", wp.Index, wp.Name, err)
			for _, p := range asg.Points {
				w.send(&Message{Type: msgResult, Result: &WireResult{ //nolint:errcheck
					Call: asg.Call, Index: p.Index, Name: p.Name, Err: fail.Error(),
				}})
			}
			end(nil)
			return
		}
		pts[i] = sweep.Point{Name: wp.Name, Config: cfg}
		indices[i] = wp.Index
	}
	if len(pts) == 0 {
		end(nil)
		return
	}

	// Seed the shipped trace, if any, under the key this worker derives
	// from its own materialized configuration — the same derivation the
	// sweep runner uses to look it up, so a key mismatch is impossible.
	if len(asg.Trace) > 0 && opts.Traces.Cacheable(asg.Instructions) {
		key := tracecache.KeyFor(asg.Profile, pts[0].Config.TraceConfig(), asg.Instructions)
		if _, err := opts.Traces.Seed(key, bytes.NewReader(asg.Trace)); err != nil {
			opts.Log.Event("sweepd.trace_seed_failed", "worker", opts.Name, "key", asg.KeyID, "err", err)
		} else {
			opts.Log.Event("sweepd.trace_seeded", "worker", opts.Name, "key", asg.KeyID)
		}
	}

	ckptEvery := opts.CheckpointEvery
	if ckptEvery == 0 {
		ckptEvery = core.DefaultObserverInterval
	}
	// Telemetry streams at the job's cadence, carried by the assignment.
	job := &Job{Profile: asg.Profile, Instructions: asg.Instructions, TelemetryEvery: asg.TelemetryEvery}
	// Every sink ships a frame tagged with the job-wide point index, so the
	// coordinator and the job service never see group-relative slots.
	err := runGroup(ctx, job, pts, indices, asg.Checkpoints, groupHost{
		parallelism:     opts.Parallelism,
		traces:          opts.Traces,
		checkpointEvery: ckptEvery,
		observer:        opts.Observer,
		result: func(index int, res sweep.Result) {
			wr := WireResultOf(index, res)
			wr.Call = asg.Call
			w.send(&Message{Type: msgResult, Result: wr}) //nolint:errcheck
		},
		checkpoint: func(index int, data []byte) {
			w.send(&Message{Type: msgCheckpoint, Checkpoint: &CheckpointShip{ //nolint:errcheck
				Call: asg.Call, Index: index, Data: data,
			}})
		},
		telemetry: func(index int, snap core.IntervalSnapshot) {
			w.send(&Message{Type: msgTelemetry, Telemetry: &TelemetryShip{ //nolint:errcheck
				Call: asg.Call, Index: index, Snap: snap,
			}})
		},
		resumed: func(index int, cycles uint64) {
			opts.Log.Event("sweepd.point_resumed", "worker", opts.Name, "point", index, "cycle", cycles)
		},
		// A shipped checkpoint that fails to decode just runs its point
		// from scratch.
		undecodable: func(index int, err error) {
			opts.Log.Event("sweepd.checkpoint_undecodable", "worker", opts.Name, "point", index, "err", err)
		},
	})
	end(err)
	opts.Log.Event("sweepd.group_done", "worker", opts.Name, "call", asg.Call, "points", len(pts), "err", err)
}
