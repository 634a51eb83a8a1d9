package resim

import (
	"context"
	"fmt"

	"repro/internal/jobd"
	"repro/internal/sweep"
	"repro/internal/sweepd"
	"repro/internal/workload"
)

// SubmitOptions configures a SubmitRemote submission.
type SubmitOptions struct {
	// Token is the tenant's bearer token for the job service (empty for a
	// service running with authentication disabled).
	Token string
	// Priority orders dispatch: higher-priority jobs' groups always
	// dispatch first. Default 0.
	Priority int
}

// JobStatus is a submitted job's externally visible state.
type JobStatus = jobd.JobStatus

// JobState is a submitted job's lifecycle state ("queued", "running",
// "done", "failed", "canceled"); see JobStatus.State and
// JobHandle.Telemetry.
type JobState = jobd.State

// JobHandle tracks one job submitted to a job service. The submission is
// durable server-side the moment SubmitRemote returns (on a service
// running with -journal): the handle's owner can exit and a later process
// (or `resim jobs`) can pick the results up by ID, and a crashed
// coordinator recovers the job from its journal.
type JobHandle struct {
	client *jobd.Client
	id     string
	points []SweepPoint
}

// SubmitRemote submits a sweep to the job service at server (base URL,
// e.g. "http://coordinator:8080") and returns immediately with a handle.
// The design points must be expressible on the wire, which is validated
// before submitting.
//
// Where Sweep and SweepRemote block for results, SubmitRemote queues: the
// service admits the job (or refuses with queue-full/tenant-busy, a
// retryable error), schedules it fairly against other tenants' work, and
// streams results to Results whenever the caller asks.
func (s *Session) SubmitRemote(ctx context.Context, server, workloadName string, instructions uint64, points []SweepPoint, opts *SubmitOptions) (*JobHandle, error) {
	p, err := workload.ByName(workloadName)
	if err != nil {
		return nil, err
	}
	wj, err := sweepd.WireJobOf(&sweepd.Job{Profile: p, Instructions: instructions, Points: points})
	if err != nil {
		return nil, err
	}
	var o SubmitOptions
	if opts != nil {
		o = *opts
	}
	c := &jobd.Client{Server: server, Token: o.Token}
	st, err := c.Submit(ctx, jobd.SubmitRequest{
		Workload:     workloadName,
		Instructions: instructions,
		Priority:     o.Priority,
		Points:       wj.Points,
	})
	if err != nil {
		return nil, err
	}
	return &JobHandle{client: c, id: st.ID, points: points}, nil
}

// ID returns the service-assigned job ID.
func (h *JobHandle) ID() string { return h.id }

// Status fetches the job's current state and per-point progress.
func (h *JobHandle) Status(ctx context.Context) (JobStatus, error) {
	return h.client.Status(ctx, h.id)
}

// Cancel cancels the job. Already-completed points' results remain
// readable; canceling a finished job is a no-op.
func (h *JobHandle) Cancel(ctx context.Context) error {
	_, err := h.client.Cancel(ctx, h.id)
	return err
}

// Telemetry follows the job's live interval-snapshot stream, calling sink
// for every snapshot until the job reaches a terminal state (which it
// returns). Snapshots carry the job-wide point index in Core and arrive in
// per-point emission order; a handle attaching mid-run first replays the
// service's buffered ring, then follows live. The service never lets a slow
// sink stall the simulation — snapshots the server-side ring wraps past
// while sink is busy are simply absent (Seq gaps within a point reveal the
// loss). See docs/TELEMETRY.md for the wire format and drop semantics.
func (h *JobHandle) Telemetry(ctx context.Context, sink func(IntervalSnapshot) error) (JobState, error) {
	return h.client.Telemetry(ctx, h.id, sink)
}

// TraceSpan is one recorded lifecycle event of a submitted job: when it
// was queued, dispatched (to which worker, in which trace-key group),
// requeued after a worker died, resumed past a checkpointed cycle, and
// completed. See JobHandle.Trace and docs/OBSERVABILITY.md.
type TraceSpan = jobd.TraceSpan

// Trace follows the job's lifecycle span stream, calling sink for every
// recorded span until the job reaches a terminal state (which it returns).
// A handle attaching mid-run first replays the service's buffered span
// log, then follows live. Traces are ephemeral and bounded server-side:
// spans evicted before this handle attached are absent, and Seq gaps
// reveal the loss. See docs/OBSERVABILITY.md for the span schema.
func (h *JobHandle) Trace(ctx context.Context, sink func(TraceSpan) error) (JobState, error) {
	return h.client.Trace(ctx, h.id, sink)
}

// Results blocks until the job finishes and returns its results in point
// order — the same contract as Sweep, so a sweep routed through the job
// service is byte-for-byte comparable to a local one. A canceled or failed
// job returns an error.
func (h *JobHandle) Results(ctx context.Context) ([]SweepResult, error) {
	return h.results(ctx, nil)
}

// results is Results that also reports each point to obs, when non-nil,
// as its result first streams in: Done counts the distinct points received
// so far, Total is the job's point count, and Final fires when the two
// meet.
func (h *JobHandle) results(ctx context.Context, obs Observer) ([]SweepResult, error) {
	results := make([]SweepResult, len(h.points))
	got := make([]bool, len(results))
	done := 0
	state, err := h.client.Results(ctx, h.id, func(wr *sweepd.WireResult) error {
		if wr.Index < 0 || wr.Index >= len(results) {
			return fmt.Errorf("resim: job %s streamed result for unknown point %d", h.id, wr.Index)
		}
		results[wr.Index] = wr.Result(h.points[wr.Index])
		if got[wr.Index] {
			return nil
		}
		got[wr.Index] = true
		done++
		if obs != nil {
			p := sweep.PointProgress(wr.Index, results[wr.Index].Res, done, len(results))
			p.Final = done == len(results)
			obs.Progress(p)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if state != jobd.StateDone {
		return nil, fmt.Errorf("resim: job %s ended %s", h.id, state)
	}
	for i, ok := range got {
		if !ok {
			return nil, fmt.Errorf("resim: job %s finished without a result for point %d", h.id, i)
		}
	}
	return results, nil
}
