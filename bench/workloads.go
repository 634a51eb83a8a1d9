package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
	"unsafe"

	resim "repro"
	"repro/internal/core"
	"repro/internal/funcsim"
	"repro/internal/sweep"
	"repro/internal/sweepd"
	"repro/internal/trace"
	"repro/internal/tracecache"
	"repro/internal/workload"
)

// workloads are the benchmark's workloads; README.md says why each exists.
var workloads = map[string]setupFunc{
	"replay":     setupReplay,
	"sweep_cold": setupSweepCold,
	"jobs_tcp":   setupJobs,
	"multicore":  setupMulticore,
}

// cacheCounters sums the trace caches' cumulative statistics.
func cacheCounters(caches ...*tracecache.Cache) map[string]float64 {
	c := map[string]float64{}
	for _, tc := range caches {
		st := tc.Stats()
		c["tracecache.gets"] += float64(st.Hits + st.Generations + st.SpillLoads)
		c["tracecache.hits"] += float64(st.Hits)
		c["tracecache.generations"] += float64(st.Generations)
		c["tracecache.resident_bytes"] += float64(st.Resident)
	}
	return c
}

// shuffled returns names in an order drawn from rng.
func shuffled(rng *rand.Rand, names []string) []string {
	out := append([]string(nil), names...)
	sort.Strings(out)
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// --- replay -----------------------------------------------------------------

// replayInput is one warm trace and the machine that replays it.
type replayInput struct {
	config  func() core.Config // fresh per op, so simulated caches start empty
	profile *workload.Profile  // nil for synthesized streams
	tc      funcsim.TraceConfig
	records []trace.Record // synthesized streams only
	startPC uint32
}

// replay is engine-bound: one client replays warm in-memory traces through
// core.New + Engine.RunContext, so nearly all CPU is in the engine.
type replay struct {
	cache  *tracecache.Cache
	limit  uint64
	inputs map[string]replayInput
	order  []string
}

// replayStreams are the synthesized streams, each stressing one part of
// the cycle loop.
func replayStreams(rng *rand.Rand) map[string]workload.StreamProfile {
	wake := workload.DefaultStreamProfile(rng.Int63())
	wake.LoadFrac, wake.StoreFrac, wake.BranchFrac = 0.05, 0.03, 0.02
	wake.MulFrac, wake.DivFrac = 0.10, 0.02
	wake.DepWindow = 2 // tight chains: wakeup and ready-queue bound

	mem := workload.DefaultStreamProfile(rng.Int63())
	mem.LoadFrac, mem.StoreFrac, mem.BranchFrac = 0.45, 0.22, 0.05
	mem.MemRange = 1 << 10 // dense aliasing: forwarding and LSQ refresh

	mispred := workload.DefaultStreamProfile(rng.Int63())
	mispred.BranchFrac, mispred.TakenProb, mispred.MispredProb = 0.25, 0.7, 0.5
	// Frequent recoveries leave fetch idle for whole penalties, which the
	// engine fast-forwards.
	return map[string]workload.StreamProfile{
		"stream/wake": wake, "stream/mem": mem, "stream/mispredict": mispred,
	}
}

func setupReplay(ctx context.Context, e setupEnv) (instance, error) {
	rng := rand.New(rand.NewSource(e.o.seed))
	r := &replay{
		cache:  tracecache.New(tracecache.Config{MaxResidentBytes: -1}),
		limit:  e.o.size.replayInstr,
		inputs: map[string]replayInput{},
	}
	// Table 1's two machines: the 4-wide perfect-memory core and the
	// 2-wide FAST-comparison core with 32 KiB L1s.
	machines := map[string]func() core.Config{
		"4wide": core.DefaultConfig,
		"fast":  core.FASTComparisonConfig,
	}
	for _, p := range workload.Profiles() {
		for m, cfg := range machines {
			r.inputs[p.Name+"/"+m] = replayInput{config: cfg, profile: &p, tc: cfg().TraceConfig()}
		}
	}
	for name, sp := range replayStreams(rng) {
		recs, err := sp.Records(int(r.limit))
		if err != nil {
			return nil, err
		}
		r.inputs[name] = replayInput{config: core.DefaultConfig, records: recs, startPC: sp.StartPC()}
	}
	names := make([]string, 0, len(r.inputs))
	for name := range r.inputs {
		names = append(names, name)
	}
	r.order = shuffled(rng, names)
	// Generate the profile traces on every core; warm-up then replays each.
	err := forEach(ctx, r.traces(), func(t cachedTrace) error {
		_, err := t.cache.Get(ctx, t.key.Profile, t.key.TC, t.key.Limit)
		return err
	})
	if err != nil {
		return nil, err
	}
	return r, nil
}

func (r *replay) clients() int                 { return 1 }
func (r *replay) schedule() []string           { return r.order }
func (r *replay) warmup() []string             { return r.order }
func (r *replay) counters() map[string]float64 { return cacheCounters(r.cache) }
func (r *replay) close() error                 { return nil }

func (r *replay) traces() []cachedTrace {
	var out []cachedTrace
	for _, name := range r.order {
		if in := r.inputs[name]; in.profile != nil {
			out = append(out, cachedTrace{r.cache, tracecache.KeyFor(*in.profile, in.tc, r.limit)})
		}
	}
	return out
}

func (r *replay) op(ctx context.Context, _, _ int, input string, tc *opTrace) (outcome, error) {
	in := r.inputs[input]
	var src trace.Source = trace.NewSliceSource(in.records)
	startPC := in.startPC
	if in.profile != nil {
		_, end := tc.begin(0, "tracecache.get")
		tr, err := r.cache.Get(ctx, *in.profile, in.tc, r.limit)
		end()
		if err != nil {
			return outcome{}, err
		}
		src, startPC = tr.Source(), tr.StartPC()
	}
	_, end := tc.begin(0, "core.new")
	start := time.Now()
	eng, err := core.New(in.config(), src, startPC)
	tc.sample("core.new_us", float64(time.Since(start))/1e3)
	end()
	if err != nil {
		return outcome{}, err
	}
	_, end = tc.begin(0, "core.run")
	res, err := eng.RunContext(ctx)
	end()
	if err != nil {
		return outcome{}, err
	}
	tc.engineResults([]string{input}, res)
	return outcome{digest: resultsDigest(res), committed: res.Committed}, nil
}

// forEach runs fn over items on GOMAXPROCS goroutines and returns the
// first error.
func forEach[T any](ctx context.Context, items []T, fn func(T) error) error {
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		next int
		ferr error
	)
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				if next == len(items) || ferr != nil || ctx.Err() != nil {
					mu.Unlock()
					return
				}
				item := items[next]
				next++
				mu.Unlock()
				if err := fn(item); err != nil {
					mu.Lock()
					if ferr == nil {
						ferr = err
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	if ferr != nil {
		return ferr
	}
	return ctx.Err()
}

// --- sweep_cold -------------------------------------------------------------

// sweepCold is design-space exploration from a cold start: every op is one
// Session.Sweep of a 16-point RB x LSQ grid with a fresh trace cache, so
// it pays trace generation (one trace per RB value) plus 16 engine runs
// fanned out by the loopback scheduler.
type sweepCold struct {
	limit  uint64
	points []sweep.Point
	order  []string // workload profiles in seeded rotation

	mu        sync.Mutex
	cum       map[string]float64 // trace-cache counters summed over ops
	lastCache *tracecache.Cache
	lastKeys  []tracecache.Key
}

func setupSweepCold(_ context.Context, e setupEnv) (instance, error) {
	var pts []sweep.Point
	for _, rb := range []int{16, 32, 48, 64} {
		for _, lsq := range []int{8, 16, 32, 64} {
			cfg := core.DefaultConfig()
			cfg.RBSize, cfg.LSQSize = rb, lsq
			pts = append(pts, sweep.Point{Name: fmt.Sprintf("rb=%d,lsq=%d", rb, lsq), Config: cfg})
		}
	}
	return &sweepCold{
		limit:  e.o.size.sweepInstr,
		points: pts,
		order:  shuffled(rand.New(rand.NewSource(e.o.seed)), workload.Names()),
		cum:    map[string]float64{},
	}, nil
}

func (s *sweepCold) clients() int       { return 1 }
func (s *sweepCold) schedule() []string { return s.order }
func (s *sweepCold) warmup() []string   { return workload.Names()[:1] }
func (s *sweepCold) close() error       { return nil }

func (s *sweepCold) counters() map[string]float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	c := map[string]float64{}
	for k, v := range s.cum {
		c[k] = v
	}
	if s.lastCache != nil {
		c["tracecache.resident_bytes"] = float64(s.lastCache.Stats().Resident)
	}
	return c
}

func (s *sweepCold) traces() []cachedTrace {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []cachedTrace
	for _, k := range s.lastKeys {
		out = append(out, cachedTrace{s.lastCache, k})
	}
	return out
}

func (s *sweepCold) op(ctx context.Context, _, _ int, input string, tc *opTrace) (outcome, error) {
	p, err := workload.ByName(input)
	if err != nil {
		return outcome{}, err
	}
	cache := tracecache.New(tracecache.Config{})
	var res []sweep.Result
	if tc == nil {
		var ses *resim.Session
		ses, err = resim.New(resim.WithTraceCache(cache))
		if err == nil {
			res, err = ses.Sweep(ctx, input, s.limit, s.points)
		}
	} else {
		res, err = s.tracedSweep(ctx, tc, cache, p)
	}
	if err != nil {
		return outcome{}, err
	}
	rs := make([]core.Result, len(res))
	names := make([]string, len(res))
	var committed uint64
	for i, pr := range res {
		if pr.Err != nil {
			return outcome{}, fmt.Errorf("point %s: %w", pr.Name, pr.Err)
		}
		rs[i], names[i] = pr.Res, pr.Name
		committed += pr.Res.Committed
	}
	tc.engineResults(names, rs...)

	st := cacheCounters(cache)
	keys := make(map[tracecache.Key]bool)
	for _, pt := range s.points {
		keys[tracecache.KeyFor(p, pt.Config.TraceConfig(), s.limit)] = true
	}
	s.mu.Lock()
	for _, k := range []string{"tracecache.gets", "tracecache.hits", "tracecache.generations"} {
		s.cum[k] += st[k]
	}
	// A fresh cache never evicts, so everything resident was generated.
	s.cum["tracecache.generated_records"] += st["tracecache.resident_bytes"] / recordBytes
	s.lastCache, s.lastKeys = cache, nil
	for k := range keys {
		s.lastKeys = append(s.lastKeys, k)
	}
	s.mu.Unlock()
	return outcome{digest: resultsDigest(rs...), committed: committed}, nil
}

// recordBytes is the trace cache's resident cost of one record.
const recordBytes = float64(unsafe.Sizeof(trace.Record{}))

// tracedSweep runs the same sweep as Session.Sweep — one loopback worker
// per trace-key group up to GOMAXPROCS, sharing the op's cache — through
// sweepd.Run directly, with every worker timed.
func (s *sweepCold) tracedSweep(ctx context.Context, tc *opTrace, cache *tracecache.Cache, p workload.Profile) ([]sweep.Result, error) {
	job := &sweepd.Job{Profile: p, Instructions: s.limit, Points: s.points}
	nw := min(len(job.Groups()), runtime.GOMAXPROCS(0))
	id, end := tc.begin(0, "sweepd.run")
	workers := make([]sweepd.Worker, nw)
	for i := range workers {
		workers[i] = &timedWorker{
			w: sweepd.NewLoopbackWorker(sweepd.LoopbackOptions{
				Parallelism: runtime.GOMAXPROCS(0), Traces: cache}),
			rec: tc, span: func() func() { _, end := tc.begin(id, "sweepd.group"); return end },
		}
	}
	start := time.Now()
	res, err := sweepd.Run(ctx, job, workers, nil)
	end()
	tc.add("sweepd.worker_s", float64(nw)*time.Since(start).Seconds())
	return res, err
}

// recorder takes layer samples and sums; *opTrace and *tracer both are
// one, and both ignore calls on a nil receiver.
type recorder interface {
	sample(name string, v float64)
	add(name string, v float64)
}

// timedWorker decorates a sweepd.Worker with group timing.
type timedWorker struct {
	w    sweepd.Worker
	rec  recorder
	span func() func() // opens the group's span, nil for none
}

// Name keeps the wrapped worker's name in job traces and logs.
func (t *timedWorker) Name() string {
	if n, ok := t.w.(interface{ Name() string }); ok {
		return n.Name()
	}
	return ""
}

// RunGroup implements sweepd.Worker.
func (t *timedWorker) RunGroup(ctx context.Context, job *sweepd.Job, gr sweepd.GroupRun, emit func(sweepd.PointResult)) error {
	end := func() {}
	if t.span != nil {
		end = t.span()
	}
	start := time.Now()
	err := t.w.RunGroup(ctx, job, gr, emit)
	d := time.Since(start)
	end()
	t.rec.sample("sweepd.group_ms", float64(d)/1e6)
	t.rec.add("sweepd.groups", 1)
	t.rec.add("sweepd.points", float64(len(gr.Indices)))
	t.rec.add("sweepd.group_busy_s", d.Seconds())
	if err != nil && ctx.Err() == nil {
		t.rec.add("sweepd.requeues", 1)
	}
	return err
}

// --- multicore --------------------------------------------------------------

// multicoreWL is the lockstep cluster: four cores stepped cycle by cycle
// through core.Drive, private 16 KiB L1 data caches over one shared
// 512 KiB L2.
type multicoreWL struct {
	cache *tracecache.Cache
	ses   *resim.Session
	opts  resim.MulticoreOptions
	name  string
}

func setupMulticore(_ context.Context, e setupEnv) (instance, error) {
	cache := tracecache.New(tracecache.Config{})
	ses, err := resim.New(resim.WithTraceCache(cache))
	if err != nil {
		return nil, err
	}
	order := shuffled(rand.New(rand.NewSource(e.o.seed)), []string{"gzip", "bzip2", "parser", "vpr"})
	return &multicoreWL{
		cache: cache,
		ses:   ses,
		name:  "cluster/" + strings.Join(order, "+"),
		opts: resim.MulticoreOptions{
			Workloads: order,
			Limit:     e.o.size.coreInstr,
			L1: &resim.CacheConfig{Name: "dl1", SizeBytes: 16 << 10, Assoc: 4,
				BlockBytes: 64, HitLatency: 1, MissLatency: 20},
			SharedL2: &resim.CacheConfig{Name: "l2", SizeBytes: 512 << 10, Assoc: 8,
				BlockBytes: 64, HitLatency: 6, MissLatency: 40},
		},
	}, nil
}

func (m *multicoreWL) clients() int                 { return 1 }
func (m *multicoreWL) schedule() []string           { return []string{m.name} }
func (m *multicoreWL) warmup() []string             { return []string{m.name} }
func (m *multicoreWL) counters() map[string]float64 { return cacheCounters(m.cache) }
func (m *multicoreWL) close() error                 { return nil }

func (m *multicoreWL) traces() []cachedTrace {
	var out []cachedTrace
	for _, name := range m.opts.Workloads {
		p, err := workload.ByName(name)
		if err != nil {
			continue
		}
		out = append(out, cachedTrace{m.cache, tracecache.KeyFor(p, m.ses.Config().TraceConfig(), m.opts.Limit)})
	}
	return out
}

func (m *multicoreWL) op(ctx context.Context, _, _ int, _ string, tc *opTrace) (outcome, error) {
	_, end := tc.begin(0, "multicore.run")
	start := time.Now()
	res, err := m.ses.Multicore(ctx, m.opts)
	d := time.Since(start)
	end()
	if err != nil {
		return outcome{}, err
	}
	var committed, cycles, idle uint64
	for _, r := range res.PerCore {
		committed += r.Committed
		cycles += r.Cycles
		idle += r.FetchIdle + r.FetchStarved
	}
	tc.engineResults(res.Names, res.PerCore...)
	tc.add("multicore.ops", 1)
	tc.add("multicore.busy_s", d.Seconds())
	tc.add("multicore.committed", float64(committed))
	tc.add("multicore.cycles", float64(cycles))
	tc.add("multicore.idle_cycles", float64(idle))
	return outcome{digest: resultsDigest(res.PerCore...), committed: committed}, nil
}
