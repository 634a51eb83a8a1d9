// Job lifecycle tracing: where did job J spend its time? Every job carries
// a bounded span log — one TraceSpan per lifecycle event (submit, journal,
// admit, dispatch with worker and group attribution, resume past a
// checkpointed cycle, checkpoint receipt, first result, per-point
// completion, requeue on worker death, terminal) recorded under the
// platform lock at the moment the event happens, with the elapsed time
// since submission stamped on each.
//
// Traces answer the latency question telemetry cannot: telemetry
// (telemetry.go) is the engines' view — simulated-cycle windows — while
// traces are the platform's view — wall-clock scheduling and attribution.
// Like telemetry they are ephemeral: never journaled, bounded per job
// (oldest spans drop when the log wraps, counted in Metrics.TraceDropped),
// and a recovered job's trace restarts at its "recovered" span. Watchers
// stream them via GET /v1/jobs/{id}/trace, one of the job streams
// (stream.go) alongside results and telemetry.
package jobd

import (
	"encoding/json"
	"time"
)

// Span event names, in rough lifecycle order. A span's Event is always one
// of these; docs/OBSERVABILITY.md documents the schema.
const (
	SpanSubmit      = "submit"       // job validated, ID assigned
	SpanJournal     = "journal"      // submission persisted (journaled platforms)
	SpanAdmit       = "admit"        // past admission control, queued
	SpanRecovered   = "recovered"    // re-queued from the journal after a restart
	SpanDispatch    = "dispatch"     // group assigned to a worker
	SpanResume      = "resume"       // point dispatched with a checkpoint to resume from
	SpanCheckpoint  = "checkpoint"   // first resume checkpoint received for a point
	SpanFirstResult = "first_result" // first point result landed
	SpanPointDone   = "point_done"   // one point completed
	SpanRequeue     = "requeue"      // worker died; group's remainder back in queue
	SpanComplete    = "complete"     // terminal state reached
)

// DefaultTraceSpans is the per-job span log capacity when
// Options.TraceSpans is zero. A job's span count scales with points ×
// requeues, not with runtime, so 512 holds the full history of anything
// but a pathological requeue storm.
const DefaultTraceSpans = 512

// TraceSpan is one recorded lifecycle event of a job.
type TraceSpan struct {
	// Seq numbers the job's spans from 1; a stream whose first span has
	// Seq > 1 lost its head to the bounded log.
	Seq uint64 `json:"seq"`
	// Time is the event's wall-clock instant; ElapsedMS is the same
	// instant as milliseconds since submission (duration-friendly).
	Time      time.Time `json:"time"`
	ElapsedMS float64   `json:"elapsed_ms"`
	// Event is one of the Span* constants.
	Event string `json:"event"`
	// State is the job state after the event, on events that change it.
	State State `json:"state,omitempty"`
	// Point is the design-point index the event concerns, -1 for
	// job-scoped events.
	Point int `json:"point"`
	// Group is the trace-key group ID on dispatch/requeue events.
	Group string `json:"group,omitempty"`
	// Worker attributes the event to a worker (dispatch, point_done,
	// requeue).
	Worker string `json:"worker,omitempty"`
	// Points is the number of points the event covers (dispatch: points in
	// the assignment; requeue: points left unfinished).
	Points int `json:"points,omitempty"`
	// Cycle is the engine cycle a resume span restarts past (>0 proves the
	// point did not restart from scratch).
	Cycle uint64 `json:"cycle,omitempty"`
	// Detail is event-specific color: error strings, checkpoint sizes.
	Detail string `json:"detail,omitempty"`
}

// spanLocked stamps and appends one span to the job's log, evicting the
// oldest past the cap, and wakes stream waiters. Callers hold p.mu.
func (p *Platform) spanLocked(j *job, s TraceSpan) {
	now := time.Now()
	s.Seq = j.spans.end + 1
	s.Time = now
	s.ElapsedMS = float64(now.Sub(j.submitted)) / float64(time.Millisecond)
	p.traceDropped += uint64(j.spans.append(s))
	p.traceSpansTotal++
	p.broadcastLocked(j)
}

// checkpointCycles extracts the checkpointed major-cycle count from a
// serialized core.Checkpoint without decoding the full engine state.
func checkpointCycles(data []byte) uint64 {
	var v struct {
		Counters struct {
			Cycles uint64
		} `json:"counters"`
	}
	if json.Unmarshal(data, &v) != nil {
		return 0
	}
	return v.Counters.Cycles
}
