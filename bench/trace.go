package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/sweepd"
	"repro/internal/tracecache"
)

// perLayer lists the traced run's metrics in print order; README.md
// defines each.
var perLayer = []struct{ name, unit string }{
	{"core.runs", "count"},
	{"core.busy_s", "s"},
	{"core.host_mips", "MIPS"},
	{"core.mcycles_per_s", "Mcycles/s"},
	{"core.idle_cycle_frac", "fraction"},
	{"core.new_us_p50", "us"},
	{"core.stage.commit_pct", "%"},
	{"core.stage.writeback_pct", "%"},
	{"core.stage.lsq_refresh_pct", "%"},
	{"core.stage.issue_pct", "%"},
	{"core.stage.dispatch_pct", "%"},
	{"core.stage.fetch_pct", "%"},
	{"core.stage.skip_idle_pct", "%"},
	{"core.stage.other_pct", "%"},
	{"tracecache.gets", "count"},
	{"tracecache.hits", "count"},
	{"tracecache.generations", "count"},
	{"tracecache.hit_ratio", "fraction"},
	{"tracecache.gen_busy_s", "s"},
	{"tracecache.gen_mrec_per_s", "Mrec/s"},
	{"tracecache.hit_us_p50", "us"},
	{"tracecache.resident_mb", "MB"},
	{"tracecache.export_mb_per_s", "MB/s"},
	{"tracecache.seed_mb_per_s", "MB/s"},
	{"sweepd.groups", "count"},
	{"sweepd.points", "count"},
	{"sweepd.group_ms_p50", "ms"},
	{"sweepd.group_ms_p90", "ms"},
	{"sweepd.worker_idle_frac", "fraction"},
	{"sweepd.result_frame_bytes", "bytes"},
	{"sweepd.codec_us_per_result", "us"},
	{"sweepd.codec_us_per_snapshot", "us"},
	{"sweepd.requeues", "count"},
	{"jobd.submit_ms_p50", "ms"},
	{"jobd.submit_ms_p90", "ms"},
	{"jobd.journal_ms_p50", "ms"},
	{"jobd.queue_wait_ms_p50", "ms"},
	{"jobd.queue_wait_ms_p90", "ms"},
	{"jobd.first_result_ms_p50", "ms"},
	{"jobd.stream_tail_ms_p50", "ms"},
	{"jobd.telemetry_snapshots", "count"},
	{"jobd.telemetry_dropped", "count"},
	{"jobd.rejected", "count"},
	{"multicore.runs", "count"},
	{"multicore.busy_s", "s"},
	{"multicore.host_mips", "MIPS"},
	{"multicore.mcycles_per_s", "Mcycles/s"},
	{"multicore.idle_cycle_frac", "fraction"},
	{"go.gc_cpu_frac", "fraction"},
	{"go.alloc_mb_per_op", "MB"},
	{"go.allocs_per_op", "count"},
	{"go.heap_peak_mb", "MB"},
	{"trace.overhead_frac", "fraction"},
	{"trace.unattributed_frac", "fraction"},
}

// engineStages maps each core.stage.*_pct metric to the engine method
// whose cumulative CPU share it reports.
var engineStages = []struct{ metric, fn string }{
	{"core.stage.commit_pct", "repro/internal/core.(*Engine).commit"},
	{"core.stage.writeback_pct", "repro/internal/core.(*Engine).writeback"},
	{"core.stage.lsq_refresh_pct", "repro/internal/core.(*Engine).lsqRefresh"},
	{"core.stage.issue_pct", "repro/internal/core.(*Engine).issue"},
	{"core.stage.dispatch_pct", "repro/internal/core.(*Engine).dispatch"},
	{"core.stage.fetch_pct", "repro/internal/core.(*Engine).fetch"},
	{"core.stage.skip_idle_pct", "repro/internal/core.(*Engine).skipIdle"},
}

const (
	// engineLoop is the run loop every engine path goes through
	// (RunContext and the multicore cluster's Drive); stage shares are
	// relative to it.
	engineLoop = "repro/internal/core.drive"
	// traceGeneration is the trace cache's generator.
	traceGeneration = "repro/internal/tracecache.generate"
	// captureLimit bounds the wire values kept for the codec probe.
	captureLimit = 256
)

// span is one timed call the benchmark made into a layer. Op groups the
// spans of one op (0 for layer activity no op owns, such as a job
// platform's group runs); Parent 0 marks an op's root span.
type span struct {
	Name   string  `json:"name"`
	Op     int64   `json:"op"`
	ID     int64   `json:"id"`
	Parent int64   `json:"parent"`
	Start  float64 `json:"start_us"`
	End    float64 `json:"end_us"`
}

// tracer collects a traced run's spans, samples and counters. Tracing is
// on only during the traced slots; every method is a no-op on a nil
// tracer, so untraced runs pay one nil check per call site.
type tracer struct {
	dir    string
	t0     time.Time
	on     atomic.Bool
	nextID atomic.Int64

	mu       sync.Mutex
	spans    []span
	samples  map[string][]float64
	sums     map[string]float64
	deltas   map[string]float64 // counter growth over traced slots
	results  []sweepd.WireResult
	snaps    []core.IntervalSnapshot
	profiles []string
	heapPeak float64
}

func newTracer(dir string) *tracer {
	return &tracer{dir: dir, t0: time.Now(), samples: map[string][]float64{},
		sums: map[string]float64{}, deltas: map[string]float64{}}
}

func (t *tracer) since(at time.Time) float64 { return float64(at.Sub(t.t0)) / 1e3 }

// sample records one observation while tracing is on.
func (t *tracer) sample(name string, v float64) {
	if t == nil || !t.on.Load() {
		return
	}
	t.mu.Lock()
	t.samples[name] = append(t.samples[name], v)
	t.mu.Unlock()
}

// add accumulates into a named sum while tracing is on.
func (t *tracer) add(name string, v float64) {
	if t == nil || !t.on.Load() {
		return
	}
	t.mu.Lock()
	t.sums[name] += v
	t.mu.Unlock()
}

// interval records a finished span.
func (t *tracer) interval(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// opTrace is the traced view of one op: spans it opens hang under the
// op's root span. A nil opTrace (untraced op) ignores every call.
type opTrace struct {
	t     *tracer
	op    int64
	root  int64
	start time.Time
}

// beginOp opens an op's root span when tracing is on.
func (t *tracer) beginOp(op int64) *opTrace {
	if t == nil || !t.on.Load() {
		return nil
	}
	return &opTrace{t: t, op: op, root: t.nextID.Add(1), start: time.Now()}
}

// end closes the op's root span.
func (o *opTrace) end() {
	if o == nil {
		return
	}
	o.t.interval(span{Name: "op", Op: o.op, ID: o.root, Start: o.t.since(o.start), End: o.t.since(time.Now())})
	o.t.mu.Lock()
	o.t.sums["ops"]++
	var m [1]metrics.Sample
	m[0].Name = "/memory/classes/heap/objects:bytes"
	metrics.Read(m[:])
	if mb := float64(m[0].Value.Uint64()) / (1 << 20); mb > o.t.heapPeak {
		o.t.heapPeak = mb
	}
	o.t.mu.Unlock()
}

// begin opens a span under parent (0 = the op's root) and returns its ID
// and the function that closes it.
func (o *opTrace) begin(parent int64, name string) (int64, func()) {
	if o == nil {
		return 0, func() {}
	}
	if parent == 0 {
		parent = o.root
	}
	id := o.t.nextID.Add(1)
	start := time.Now()
	return id, func() {
		o.t.interval(span{Name: name, Op: o.op, ID: id, Parent: parent,
			Start: o.t.since(start), End: o.t.since(time.Now())})
	}
}

// serverSpan records, under parent, an interval the program timed itself
// (from its own clock readings).
func (o *opTrace) serverSpan(parent int64, name string, start, end time.Time) {
	if o == nil {
		return
	}
	o.t.interval(span{Name: name, Op: o.op, ID: o.t.nextID.Add(1), Parent: parent,
		Start: o.t.since(start), End: o.t.since(end)})
}

// sample and add record into the tracer for a traced op, whatever the
// slot the op ends in.
func (o *opTrace) sample(name string, v float64) {
	if o == nil {
		return
	}
	o.t.mu.Lock()
	o.t.samples[name] = append(o.t.samples[name], v)
	o.t.mu.Unlock()
}

func (o *opTrace) add(name string, v float64) {
	if o == nil {
		return
	}
	o.t.mu.Lock()
	o.t.sums[name] += v
	o.t.mu.Unlock()
}

// engineResults accounts engine runs to the core layer and keeps their
// wire form for the codec probe; names are the runs' point names.
func (o *opTrace) engineResults(names []string, rs ...core.Result) {
	if o == nil {
		return
	}
	o.t.mu.Lock()
	defer o.t.mu.Unlock()
	for i, r := range rs {
		o.t.sums["core.runs"]++
		o.t.sums["core.committed"] += float64(r.Committed)
		o.t.sums["core.cycles"] += float64(r.Cycles)
		o.t.sums["core.idle_cycles"] += float64(r.FetchIdle + r.FetchStarved)
		if len(o.t.results) < captureLimit {
			wr := sweepd.WireResult{Index: i, Res: sweepd.WireRunResultOf(r)}
			if i < len(names) {
				wr.Name = names[i]
			}
			o.t.results = append(o.t.results, wr)
		}
	}
}

// snapshot keeps a streamed telemetry snapshot for the codec probe.
func (o *opTrace) snapshot(s core.IntervalSnapshot) {
	if o == nil {
		return
	}
	o.t.mu.Lock()
	if len(o.t.snaps) < captureLimit {
		o.t.snaps = append(o.t.snaps, s)
	}
	o.t.mu.Unlock()
}

// alternate runs the traced run's slot schedule: `windows` equal slots,
// untraced and traced in turn, starting untraced. Each traced slot runs
// the CPU profiler into its own file and accumulates the growth of the
// instance's counters. It returns whether each slot was traced.
func (t *tracer) alternate(inst instance, start time.Time, length time.Duration, stop <-chan struct{}) []bool {
	n := windows
	slots := make([]bool, n)
	if err := os.MkdirAll(t.dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench: trace dir:", err)
	}
	for k := 0; k < n; k++ {
		select {
		case <-stop:
			return slots[:k] // the phase ended early
		default:
		}
		traced := k%2 == 1
		slots[k] = traced
		var before map[string]float64
		var prof *os.File
		if traced {
			before = readCounters(inst)
			path := filepath.Join(t.dir, fmt.Sprintf("cpu-%02d.pprof", k))
			if f, err := os.Create(path); err == nil && pprof.StartCPUProfile(f) == nil {
				prof = f
				t.profiles = append(t.profiles, path)
			} else if f != nil {
				f.Close()
			}
			t.on.Store(true)
		}
		select {
		case <-time.After(time.Until(start.Add(length * time.Duration(k+1) / time.Duration(n)))):
		case <-stop:
		}
		if traced {
			t.on.Store(false)
			if prof != nil {
				pprof.StopCPUProfile()
				prof.Close()
			}
			after := readCounters(inst)
			t.mu.Lock()
			for name, v := range after {
				t.deltas[name] += v - before[name]
			}
			t.mu.Unlock()
		}
	}
	return slots
}

// readCounters snapshots the instance's layer counters plus the Go
// runtime's CPU and allocation counters.
func readCounters(inst instance) map[string]float64 {
	c := inst.counters()
	ms := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/heap/allocs:objects"},
	}
	metrics.Read(ms)
	c["go.gc_cpu_s"] = ms[0].Value.Float64()
	c["go.cpu_s"] = ms[1].Value.Float64()
	c["go.alloc_bytes"] = float64(ms[2].Value.Uint64())
	c["go.alloc_objects"] = float64(ms[3].Value.Uint64())
	return c
}

// layerMetrics assembles the per-layer metrics after the phase and writes
// spans.jsonl and layers.json. Layers a workload does not exercise report
// 0.
func (t *tracer) layerMetrics(ctx context.Context, inst instance, ph *phase) ([]namedMetric, error) {
	prof, err := profileCum(ctx, t.profiles)
	if err != nil {
		return nil, err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	v := map[string]float64{}
	s, d := t.sums, t.deltas
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}

	loop := prof[engineLoop]
	v["core.runs"] = s["core.runs"]
	v["core.busy_s"] = loop
	v["core.host_mips"] = ratio(s["core.committed"], loop) / 1e6
	v["core.mcycles_per_s"] = ratio(s["core.cycles"], loop) / 1e6
	v["core.idle_cycle_frac"] = ratio(s["core.idle_cycles"], s["core.cycles"])
	v["core.new_us_p50"] = quantile(t.samples["core.new_us"], 0.5)
	other := 100.0
	for _, st := range engineStages {
		pct := 100 * ratio(prof[st.fn], loop)
		v[st.metric] = pct
		other -= pct
	}
	if loop > 0 {
		v["core.stage.other_pct"] = other
	}

	v["tracecache.gets"] = d["tracecache.gets"]
	v["tracecache.hits"] = d["tracecache.hits"]
	v["tracecache.generations"] = d["tracecache.generations"]
	v["tracecache.hit_ratio"] = ratio(d["tracecache.hits"], d["tracecache.gets"])
	v["tracecache.gen_busy_s"] = prof[traceGeneration]
	v["tracecache.gen_mrec_per_s"] = ratio(d["tracecache.generated_records"], prof[traceGeneration]) / 1e6
	v["tracecache.resident_mb"] = inst.counters()["tracecache.resident_bytes"] / (1 << 20)
	probe := probeCache(ctx, inst.traces())
	v["tracecache.hit_us_p50"] = probe.hitUS
	v["tracecache.export_mb_per_s"] = probe.exportMBps
	v["tracecache.seed_mb_per_s"] = probe.seedMBps

	v["sweepd.groups"] = s["sweepd.groups"]
	v["sweepd.points"] = s["sweepd.points"]
	v["sweepd.group_ms_p50"] = quantile(t.samples["sweepd.group_ms"], 0.5)
	v["sweepd.group_ms_p90"] = quantile(t.samples["sweepd.group_ms"], 0.9)
	if capacity := s["sweepd.worker_s"] + d["sweepd.worker_s"]; capacity > 0 {
		v["sweepd.worker_idle_frac"] = 1 - s["sweepd.group_busy_s"]/capacity
	}
	v["sweepd.result_frame_bytes"], v["sweepd.codec_us_per_result"] = codecProbe(t.results, func(r sweepd.WireResult) any {
		return &sweepd.Message{Type: "result", Result: &r}
	})
	_, v["sweepd.codec_us_per_snapshot"] = codecProbe(t.snaps, func(sn core.IntervalSnapshot) any {
		return &sweepd.Message{Type: "telemetry", Telemetry: &sweepd.TelemetryShip{Index: sn.Core, Snap: sn}}
	})
	v["sweepd.requeues"] = s["sweepd.requeues"] + d["jobd.requeues"]

	for _, q := range []struct {
		metric, sample string
		q              float64
	}{
		{"jobd.submit_ms_p50", "jobd.submit_ms", 0.5},
		{"jobd.submit_ms_p90", "jobd.submit_ms", 0.9},
		{"jobd.journal_ms_p50", "jobd.journal_ms", 0.5},
		{"jobd.queue_wait_ms_p50", "jobd.queue_wait_ms", 0.5},
		{"jobd.queue_wait_ms_p90", "jobd.queue_wait_ms", 0.9},
		{"jobd.first_result_ms_p50", "jobd.first_result_ms", 0.5},
		{"jobd.stream_tail_ms_p50", "jobd.stream_tail_ms", 0.5},
	} {
		v[q.metric] = quantile(t.samples[q.sample], q.q)
	}
	v["jobd.telemetry_snapshots"] = d["jobd.telemetry_snapshots"]
	v["jobd.telemetry_dropped"] = d["jobd.telemetry_dropped"]
	v["jobd.rejected"] = d["jobd.rejected"]

	v["multicore.runs"] = s["multicore.ops"]
	v["multicore.busy_s"] = s["multicore.busy_s"]
	v["multicore.host_mips"] = ratio(s["multicore.committed"], s["multicore.busy_s"]) / 1e6
	v["multicore.mcycles_per_s"] = ratio(s["multicore.cycles"], s["multicore.busy_s"]) / 1e6
	v["multicore.idle_cycle_frac"] = ratio(s["multicore.idle_cycles"], s["multicore.cycles"])

	v["go.gc_cpu_frac"] = ratio(d["go.gc_cpu_s"], d["go.cpu_s"])
	v["go.alloc_mb_per_op"] = ratio(d["go.alloc_bytes"], s["ops"]) / (1 << 20)
	v["go.allocs_per_op"] = ratio(d["go.alloc_objects"], s["ops"])
	v["go.heap_peak_mb"] = t.heapPeak

	v["trace.overhead_frac"] = overheadFrac(ph)
	v["trace.unattributed_frac"] = unattributed(t.spans)

	out := make([]namedMetric, len(perLayer))
	for i, m := range perLayer {
		out[i] = namedMetric{m.name, v[m.name], m.unit}
	}
	if err := t.write(out); err != nil {
		return nil, err
	}
	return out, nil
}

// overheadFrac compares the op rate of traced slots with that of the
// untraced slots between them: 1 - traced/untraced. Each op counts in every
// slot it overlaps, in proportion to the overlap, so rates are not
// quantized to whole ops per slot.
func overheadFrac(ph *phase) float64 {
	n := len(ph.slots)
	if n == 0 {
		return 0
	}
	var ops, secs [2]float64
	slotLen := ph.length / time.Duration(n)
	for k, traced := range ph.slots {
		i := 0
		if traced {
			i = 1
		}
		secs[i] += slotLen.Seconds()
		lo, hi := slotLen*time.Duration(k), slotLen*time.Duration(k+1)
		for _, c := range ph.completions {
			if overlap := min(c.end, hi) - max(c.start, lo); !c.failed && overlap > 0 {
				ops[i] += float64(overlap) / float64(c.end-c.start)
			}
		}
	}
	if ops[0] == 0 || secs[1] == 0 {
		return 0
	}
	return 1 - (ops[1]/secs[1])/(ops[0]/secs[0])
}

// unattributed is the share of traced op time that none of the op's
// child spans covers.
func unattributed(spans []span) float64 {
	roots := map[int64]span{}
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent == 0 && s.Op != 0 {
			roots[s.ID] = s
		}
	}
	for _, s := range spans {
		if _, ok := roots[s.Parent]; ok {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	var total, uncovered float64
	for id, r := range roots {
		cs := children[id]
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
		covered, reach := 0.0, r.Start
		for _, c := range cs {
			lo, hi := max(c.Start, reach), min(c.End, r.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		total += r.End - r.Start
		uncovered += r.End - r.Start - covered
	}
	if total == 0 {
		return 0
	}
	return uncovered / total
}

// write saves spans.jsonl (one span per line) and layers.json (the
// per-layer metrics plus each span name's count, total and self time).
func (t *tracer) write(ms []namedMetric) error {
	if err := os.MkdirAll(t.dir, 0o755); err != nil {
		return err
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	if err := os.WriteFile(filepath.Join(t.dir, "spans.jsonl"), buf.Bytes(), 0o644); err != nil {
		return err
	}
	type agg struct {
		Count   int     `json:"count"`
		TotalMS float64 `json:"total_ms"`
		SelfMS  float64 `json:"self_ms"`
	}
	childTime := map[int64]float64{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			childTime[s.Parent] += s.End - s.Start
		}
	}
	spans := map[string]*agg{}
	for _, s := range t.spans {
		a := spans[s.Name]
		if a == nil {
			a = &agg{}
			spans[s.Name] = a
		}
		a.Count++
		a.TotalMS += (s.End - s.Start) / 1e3
		a.SelfMS += max(0, s.End-s.Start-childTime[s.ID]) / 1e3
	}
	metricsOut := map[string]metric{}
	for _, m := range ms {
		metricsOut[m.name] = metric{Value: m.value, Unit: m.unit}
	}
	data, err := json.MarshalIndent(map[string]any{"metrics": metricsOut, "spans": spans}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(t.dir, "layers.json"), append(data, '\n'), 0o644)
}

// profileCum runs the installed `go tool pprof -top -cum` over the traced
// slots' CPU profiles and returns each function's cumulative CPU seconds.
// These are sampled shares of CPU time (100 Hz), not timings.
func profileCum(ctx context.Context, files []string) (map[string]float64, error) {
	cum := map[string]float64{}
	if len(files) == 0 {
		return cum, nil
	}
	args := append([]string{"tool", "pprof", "-top", "-cum", "-unit=ms", "-nodecount=1000000"}, files...)
	cmd := exec.CommandContext(ctx, "go", args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, strings.TrimSpace(stderr.String()))
	}
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		// "flat flat% sum% cum cum% function", values in ms.
		f := strings.Fields(sc.Text())
		if len(f) < 6 || !strings.HasSuffix(f[4], "%") {
			continue
		}
		ms, err := strconv.ParseFloat(strings.TrimSuffix(f[3], "ms"), 64)
		if err != nil {
			continue
		}
		name := strings.TrimSuffix(strings.Join(f[5:], " "), " (inline)")
		cum[name] += ms / 1e3
	}
	return cum, sc.Err()
}

// cachedTrace is one warm trace-cache entry.
type cachedTrace struct {
	cache *tracecache.Cache
	key   tracecache.Key
}

// cacheProbe is the trace cache's micro-measurements.
type cacheProbe struct {
	hitUS, exportMBps, seedMBps float64
}

// probeCache times warm Gets, container export and seeding a fresh cache
// from the exported bytes, over the workload's warm entries.
func probeCache(ctx context.Context, entries []cachedTrace) cacheProbe {
	var p cacheProbe
	var hits []float64
	var bytesOut, exportS, seedS float64
	for _, e := range entries {
		for i := 0; i < 16; i++ {
			start := time.Now()
			if _, err := e.cache.Get(ctx, e.key.Profile, e.key.TC, e.key.Limit); err != nil {
				return p
			}
			hits = append(hits, float64(time.Since(start))/1e3)
		}
		var buf bytes.Buffer
		start := time.Now()
		if ok, err := e.cache.ExportContainer(e.key, &buf); !ok || err != nil {
			continue
		}
		exportS += time.Since(start).Seconds()
		n := buf.Len()
		start = time.Now()
		if _, err := tracecache.New(tracecache.Config{}).Seed(e.key, &buf); err != nil {
			continue
		}
		seedS += time.Since(start).Seconds()
		bytesOut += float64(n)
	}
	p.hitUS = quantile(hits, 0.5)
	if exportS > 0 {
		p.exportMBps = bytesOut / (1 << 20) / exportS
		p.seedMBps = bytesOut / (1 << 20) / seedS
	}
	return p
}

// codecProbe JSON-encodes each captured value as the sweepd frame that
// carries it and decodes it back, returning the mean frame size in bytes
// (with its 4-byte length prefix) and the mean round trip in microseconds.
func codecProbe[T any](vals []T, frame func(T) any) (bytesPerFrame, usPerTrip float64) {
	if len(vals) == 0 {
		return 0, 0
	}
	var size int
	start := time.Now()
	for _, v := range vals {
		data, err := json.Marshal(frame(v))
		if err != nil {
			return 0, 0
		}
		size += 4 + len(data)
		var m sweepd.Message
		if err := json.Unmarshal(data, &m); err != nil {
			return 0, 0
		}
	}
	n := float64(len(vals))
	return float64(size) / n, float64(time.Since(start)) / 1e3 / n
}
