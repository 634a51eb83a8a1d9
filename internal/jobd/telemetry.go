// Live telemetry for the job platform. Every running job's engines emit
// core.IntervalSnapshot windows at the platform's telemetry cadence (see
// Options.TelemetryEvery); the platform retains the most recent snapshots
// in the job's bounded telemetry stream (stream.go), so any number of
// clients — including ones that connect mid-run — can watch one job
// concurrently without ever blocking the simulation. Snapshots a slow
// watcher loses to eviction are counted in Metrics.TelemetryDropped.
// Telemetry is ephemeral by design: it is never journaled, a recovered
// job's stream starts empty, and a terminal job serves only what it still
// holds.
package jobd

import "repro/internal/core"

// DefaultTelemetryRing is the per-job snapshot ring capacity when
// Options.TelemetryRing is zero. At the default cadence one slot covers
// 65536 cycles, so 256 slots buffer several million cycles of history for
// late-joining watchers.
const DefaultTelemetryRing = 256

// onTelemetry is the GroupRun sink for one job: it stamps the job-wide
// point index, appends the snapshot to the job's telemetry stream (evicting
// the oldest when full) and wakes stream waiters. Snapshots for points the
// ledger already holds a result for drop here, like duplicate results.
func (p *Platform) onTelemetry(j *job, index int, snap core.IntervalSnapshot) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if j.state.Terminal() || j.ctx.Err() != nil || !j.ledger.Pending(index) {
		return
	}
	snap.Core = index
	j.telemetry.append(snap)
	p.telemetrySnaps++
	p.broadcastLocked(j)
}
