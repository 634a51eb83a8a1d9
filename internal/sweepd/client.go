package sweepd

import (
	"context"
	"fmt"
	"net"

	"repro/internal/core"
	"repro/internal/sweep"
)

// RunRemote submits the job to the coordinator at addr and streams results
// until the job completes. The returned slice matches the job's point order
// regardless of shard or worker completion order — the same contract as the
// local scheduler. obs, when non-nil, receives one Progress callback per
// completed point carrying the coordinator-side completion counters
// (Done/Total) as they stream in, and a Final callback on the last point.
//
// Every point must be expressible on the wire (no custom cache models, no
// pipe tracers); RunRemote validates before dialing so an unserializable
// sweep fails fast and locally. Cancelling the context closes the
// connection, which aborts the job coordinator-side.
//
// When job.TelemetryEvery > 0 and job.OnTelemetry is set, live interval
// snapshots relayed by the coordinator are delivered to job.OnTelemetry on
// the receive goroutine, interleaved with results; the callback must not
// block (see Job.OnTelemetry for the ordering contract).
func RunRemote(ctx context.Context, addr string, job *Job, obs core.Observer) ([]sweep.Result, error) {
	if len(job.Points) == 0 {
		return nil, fmt.Errorf("sweepd: no design points")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	wj, err := WireJobOf(job)
	if err != nil {
		return nil, err
	}

	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	w := newWire(conn)
	defer w.Close()
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		select {
		case <-ctx.Done():
			w.Close()
		case <-stop:
		}
	}()

	hello, err := handshake(w, Hello{Role: roleClient}, roleCoordinator)
	if err != nil {
		return nil, wrapCtx(ctx, err)
	}
	// Protocol v4 liveness: the coordinator arms a read deadline on every
	// accepted connection, so the client must keep frames flowing through
	// quiet stretches; symmetrically, coordinator pings feed the deadline
	// armed here, surfacing a hung coordinator as a failed run instead of
	// a job that never finishes. The cadence is the coordinator's own,
	// adopted from its hello.
	hbInterval, hbTimeout := livenessParams(0, 0, hello)
	if hbTimeout > 0 {
		w.readTimeout = hbTimeout
		w.writeTimeout = hbTimeout
	}
	if hbInterval > 0 {
		go w.heartbeat(hbInterval, stop)
	}
	if err := w.send(&Message{Type: msgJob, Job: wj}); err != nil {
		return nil, wrapCtx(ctx, err)
	}

	// Point configurations are materialized lazily from the submitted specs
	// — the exact derivation the worker used — so a returned result carries
	// the same validated configuration a local run would.
	cfgs := make([]*core.Config, len(job.Points))
	configFor := func(i int) (core.Config, error) {
		if cfgs[i] == nil {
			cfg, err := wj.Points[i].Config.Config()
			if err != nil {
				return core.Config{}, err
			}
			cfgs[i] = &cfg
		}
		return *cfgs[i], nil
	}

	results := make([]sweep.Result, len(job.Points))
	got := make([]bool, len(job.Points))
	received := 0
	for {
		m, err := w.recv()
		if err != nil {
			return nil, wrapCtx(ctx, err)
		}
		switch m.Type {
		case msgResult:
			r := m.Result
			if r == nil || r.Index < 0 || r.Index >= len(results) {
				continue
			}
			res := r.Result(job.Points[r.Index])
			if r.Err == "" && r.Res != nil {
				if res.Res.Config, err = configFor(r.Index); err != nil {
					return nil, fmt.Errorf("sweepd: reconstruct point %d: %w", r.Index, err)
				}
			}
			if !got[r.Index] {
				got[r.Index] = true
				received++
			}
			results[r.Index] = res
			if obs != nil {
				p := sweep.PointProgress(r.Index, res.Res, r.Done, r.Total)
				p.Final = r.Done == r.Total && r.Total > 0
				obs.Progress(p)
			}
		case msgTelemetry:
			ts := m.Telemetry
			if ts == nil || job.OnTelemetry == nil || ts.Index < 0 || ts.Index >= len(results) {
				continue
			}
			job.OnTelemetry(ts.Index, ts.Snap)
		case msgDone:
			if m.Done != nil && m.Done.Err != "" {
				return nil, fmt.Errorf("sweepd: remote sweep failed: %s", m.Done.Err)
			}
			if received != len(results) {
				return nil, fmt.Errorf("sweepd: coordinator reported done after %d of %d results", received, len(results))
			}
			return results, nil
		}
	}
}

// wrapCtx prefers the context's cancellation error over the I/O error it
// caused (the watchdog closes the connection on cancellation, so the recv
// error is just "use of closed network connection").
func wrapCtx(ctx context.Context, err error) error {
	if cerr := ctx.Err(); cerr != nil {
		return cerr
	}
	return err
}
