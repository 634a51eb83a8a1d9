package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/jobd"
	"repro/internal/sweep"
	"repro/internal/sweepd"
	"repro/internal/tracecache"
	"repro/internal/workload"
)

const (
	// jobWorkers is the number of TCP workers behind the coordinator.
	jobWorkers = 2
	// jobTelemetryEvery is the platform's telemetry cadence in cycles, so a
	// 10k-instruction point streams a handful of snapshots.
	jobTelemetryEvery = 2048
)

// jobTemplate is one catalogue entry: a submission and the local
// sweep.Runner reference result of each of its points, in wire JSON.
type jobTemplate struct {
	req  jobd.SubmitRequest
	refs [][]byte
}

// jobsTCP is the end-to-end job: a journaled jobd platform behind HTTP on
// loopback, scheduling over a sweepd coordinator with two TCP workers. Two
// tenants run a closed loop with one connection each; tenant B watches
// every other job's telemetry stream to the end before reading its
// results.
type jobsTCP struct {
	started   time.Time
	templates map[string]jobTemplate
	order     []string
	cache     *tracecache.Cache // shared by both workers, like one host
	clientsOf [2]*jobd.Client
	transport [2]*http.Transport

	coord    *sweepd.Coordinator
	platform *jobd.Platform
	srv      *http.Server
	stop     context.CancelFunc
	workers  sync.WaitGroup
}

// jobCatalogue builds the template catalogue: for every profile, one job
// whose four LSQ points share a trace (one group) and one whose four RB
// points need four traces (four groups).
func jobCatalogue(limit uint64) (map[string]jobd.SubmitRequest, error) {
	out := map[string]jobd.SubmitRequest{}
	grids := map[string]func(*core.Config, int){
		"lsq": func(c *core.Config, v int) { c.LSQSize = v },
		"rb":  func(c *core.Config, v int) { c.RBSize = v },
	}
	values := map[string][]int{"lsq": {4, 8, 16, 32}, "rb": {16, 24, 32, 48}}
	for _, p := range workload.Profiles() {
		for grid, apply := range grids {
			req := jobd.SubmitRequest{Workload: p.Name, Instructions: limit}
			for _, pt := range sweep.Grid(grid, core.DefaultConfig(), values[grid], apply) {
				spec, err := sweepd.SpecOf(pt.Config)
				if err != nil {
					return nil, err
				}
				req.Points = append(req.Points, sweepd.WirePoint{Index: len(req.Points), Name: pt.Name, Config: spec})
			}
			out[p.Name+"/"+grid] = req
		}
	}
	return out, nil
}

func setupJobs(ctx context.Context, e setupEnv) (instance, error) {
	reqs, err := jobCatalogue(e.o.size.jobInstr)
	if err != nil {
		return nil, err
	}
	j := &jobsTCP{templates: map[string]jobTemplate{}, cache: tracecache.New(tracecache.Config{})}
	names := make([]string, 0, len(reqs))
	refCache := tracecache.New(tracecache.Config{})
	for name, req := range reqs {
		names = append(names, name)
		refs, err := localReference(ctx, req, refCache)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		j.templates[name] = jobTemplate{req: req, refs: refs}
	}
	j.order = shuffled(rand.New(rand.NewSource(e.o.seed)), names)
	if err := j.up(ctx, e); err != nil {
		j.close()
		return nil, err
	}
	return j, nil
}

// localReference runs a submission's points in-process through
// sweep.Runner and returns each point's wire-form result as JSON.
func localReference(ctx context.Context, req jobd.SubmitRequest, cache *tracecache.Cache) ([][]byte, error) {
	p, err := workload.ByName(req.Workload)
	if err != nil {
		return nil, err
	}
	job, err := sweepd.JobFromWire(&sweepd.WireJob{Profile: p, Instructions: req.Instructions, Points: req.Points})
	if err != nil {
		return nil, err
	}
	res, err := sweep.Runner{Workload: p, Instructions: req.Instructions, Parallelism: 1, Traces: cache}.Run(ctx, job.Points)
	if err != nil {
		return nil, err
	}
	refs := make([][]byte, len(res))
	for i, r := range res {
		if r.Err != nil {
			return nil, r.Err
		}
		if refs[i], err = json.Marshal(sweepd.WireRunResultOf(r.Res)); err != nil {
			return nil, err
		}
	}
	return refs, nil
}

// up brings the platform up: coordinator, platform over a timed view of
// the coordinator's pool, two TCP workers and the HTTP front door.
func (j *jobsTCP) up(ctx context.Context, e setupEnv) error {
	journal := filepath.Join(e.work, "journal")
	if err := os.MkdirAll(journal, 0o755); err != nil {
		return err
	}
	j.coord = sweepd.NewCoordinator()
	var err error
	j.platform, err = jobd.New(jobd.Options{
		Pool:           &timedPool{coord: j.coord, tr: e.tr, wrapped: map[sweepd.Worker]*timedWorker{}},
		JournalDir:     journal,
		Tenants:        []jobd.Tenant{{Name: "a", Token: "tok-a"}, {Name: "b", Token: "tok-b"}},
		TelemetryEvery: jobTelemetryEvery,
	})
	if err != nil {
		return err
	}
	j.coord.OnWorkersChanged = j.platform.Kick
	addr, err := j.coord.Start("127.0.0.1:0")
	if err != nil {
		return err
	}
	wctx, stop := context.WithCancel(context.Background())
	j.stop = stop
	for i := 0; i < jobWorkers; i++ {
		j.workers.Add(1)
		go func() {
			defer j.workers.Done()
			sweepd.Work(wctx, addr, sweepd.WorkerOptions{ //nolint:errcheck // ends at close
				Name: fmt.Sprintf("w%d", i+1), Parallelism: 1, Traces: j.cache})
		}()
	}
	for deadline := time.Now().Add(10 * time.Second); j.coord.WorkerCount() < jobWorkers; {
		if time.Now().After(deadline) || ctx.Err() != nil {
			return fmt.Errorf("only %d of %d workers registered", j.coord.WorkerCount(), jobWorkers)
		}
		time.Sleep(time.Millisecond)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	j.srv = &http.Server{Handler: j.platform.Handler()}
	go j.srv.Serve(ln) //nolint:errcheck // ends at close
	for i, token := range []string{"tok-a", "tok-b"} {
		// One connection per tenant: the load is two closed-loop clients.
		j.transport[i] = &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
		j.clientsOf[i] = &jobd.Client{Server: "http://" + ln.Addr().String(), Token: token,
			HTTPClient: &http.Client{Transport: j.transport[i]}}
	}
	j.started = time.Now()
	return nil
}

func (j *jobsTCP) clients() int       { return 2 }
func (j *jobsTCP) schedule() []string { return j.order }
func (j *jobsTCP) warmup() []string   { return j.order }

func (j *jobsTCP) counters() map[string]float64 {
	c := cacheCounters(j.cache)
	m := j.platform.Snapshot()
	c["jobd.telemetry_snapshots"] = float64(m.TelemetrySnaps)
	c["jobd.telemetry_dropped"] = float64(m.TelemetryDropped)
	c["jobd.rejected"] = float64(m.Rejected)
	c["jobd.requeues"] = float64(m.Requeues)
	// Worker capacity grows with wall time; idle is what groups leave of it.
	c["sweepd.worker_s"] = jobWorkers * time.Since(j.started).Seconds()
	return c
}

func (j *jobsTCP) traces() []cachedTrace {
	seen := map[tracecache.Key]bool{}
	var out []cachedTrace
	for _, name := range j.order {
		req := j.templates[name].req
		p, err := workload.ByName(req.Workload)
		if err != nil {
			continue
		}
		for _, pt := range req.Points {
			cfg, err := pt.Config.Config()
			if err != nil {
				continue
			}
			if k := tracecache.KeyFor(p, cfg.TraceConfig(), req.Instructions); !seen[k] {
				seen[k] = true
				out = append(out, cachedTrace{j.cache, k})
			}
		}
	}
	return out
}

// close tears the platform down: HTTP first, then the platform (its
// journal keeps nothing in flight), the coordinator and the workers.
func (j *jobsTCP) close() error {
	if j.srv != nil {
		j.srv.Close()
	}
	for _, t := range j.transport {
		if t != nil {
			t.CloseIdleConnections()
		}
	}
	if j.platform != nil {
		j.platform.Close()
	}
	if j.coord != nil {
		j.coord.Close()
	}
	if j.stop != nil {
		j.stop()
	}
	j.workers.Wait()
	return nil
}

// op submits one job as tenant c and follows it to its last result. Tenant
// B watches every other job's telemetry first and checks that the streamed
// windows add up to the results.
func (j *jobsTCP) op(ctx context.Context, c, n int, input string, tc *opTrace) (outcome, error) {
	tpl := j.templates[input]
	cl := j.clientsOf[c]
	_, end := tc.begin(0, "jobd.submit")
	start := time.Now()
	st, err := cl.Submit(ctx, tpl.req)
	tc.sample("jobd.submit_ms", float64(time.Since(start))/1e6)
	end()
	if err != nil {
		return outcome{}, err
	}
	var streamed []uint64 // committed instructions per point, summed over windows
	if c == 1 && n%2 == 0 {
		streamed = make([]uint64, len(tpl.refs))
		_, end := tc.begin(0, "jobd.telemetry")
		state, err := cl.Telemetry(ctx, st.ID, func(s core.IntervalSnapshot) error {
			if s.Core < 0 || s.Core >= len(streamed) {
				return fmt.Errorf("telemetry for unknown point %d", s.Core)
			}
			streamed[s.Core] += s.Counters.Committed
			tc.snapshot(s)
			return nil
		})
		end()
		if err != nil {
			return outcome{}, err
		}
		if state != jobd.StateDone {
			return outcome{}, fmt.Errorf("job %s telemetry ended %s", st.ID, state)
		}
	}
	resultsID, end := tc.begin(0, "jobd.results")
	got := make([]*sweepd.WireResult, len(tpl.refs))
	state, err := cl.Results(ctx, st.ID, func(wr *sweepd.WireResult) error {
		if wr.Index < 0 || wr.Index >= len(got) {
			return fmt.Errorf("result for unknown point %d", wr.Index)
		}
		got[wr.Index] = wr
		return nil
	})
	received := time.Now()
	end()
	if err != nil {
		return outcome{}, err
	}
	if state != jobd.StateDone {
		return outcome{}, fmt.Errorf("job %s ended %s", st.ID, state)
	}
	res := make([]*sweepd.WireRunResult, len(got))
	var committed uint64
	for i, wr := range got {
		if wr == nil || wr.Err != "" || wr.Res == nil {
			return outcome{}, fmt.Errorf("job %s point %d: missing or failed result", st.ID, i)
		}
		data, err := json.Marshal(wr.Res)
		if err != nil {
			return outcome{}, err
		}
		if !bytes.Equal(data, tpl.refs[i]) {
			return outcome{}, fmt.Errorf("job %s point %d differs from the local sweep.Runner reference", st.ID, i)
		}
		if streamed != nil && streamed[i] != wr.Res.Committed {
			return outcome{}, fmt.Errorf("job %s point %d: telemetry windows commit %d, result %d", st.ID, i, streamed[i], wr.Res.Committed)
		}
		res[i] = wr.Res
		committed += wr.Res.Committed
		tc.engineResults([]string{wr.Name}, wr.Res.Result(core.Config{}))
	}
	// Reading the platform's spans is an extra HTTP stream, so only every
	// fourth traced job pays for it.
	if tc != nil && n%4 == 0 {
		_, end := tc.begin(0, "jobd.trace")
		err := lifecycle(ctx, cl, st.ID, received, resultsID, tc)
		end()
		if err != nil {
			return outcome{}, err
		}
	}
	return outcome{digest: wireDigest(res...), committed: committed}, nil
}

// lifecycle reads the job's platform-side spans through Client.Trace and
// records the platform's share of the op: journal write, queue wait,
// first result and the stream tail from completion to the client's
// receipt of the last line.
func lifecycle(ctx context.Context, cl *jobd.Client, id string, received time.Time, parent int64, tc *opTrace) error {
	at := map[string]time.Time{}
	_, err := cl.Trace(ctx, id, func(s jobd.TraceSpan) error {
		if _, ok := at[s.Event]; !ok {
			at[s.Event] = s.Time // first of each: the first dispatch
		}
		return nil
	})
	if err != nil {
		return err
	}
	interval := func(name string, from, to time.Time) {
		if from.IsZero() || to.IsZero() {
			return
		}
		tc.sample(name+"_ms", float64(to.Sub(from))/1e6)
		tc.serverSpan(parent, name, from, to)
	}
	interval("jobd.journal", at[jobd.SpanSubmit], at[jobd.SpanJournal])
	interval("jobd.queue_wait", at[jobd.SpanAdmit], at[jobd.SpanDispatch])
	interval("jobd.first_result", at[jobd.SpanDispatch], at[jobd.SpanFirstResult])
	interval("jobd.stream_tail", at[jobd.SpanComplete], received)
	if _, ok := at[jobd.SpanComplete]; !ok {
		return errors.New("job trace has no completion span")
	}
	return nil
}

// timedPool is the job platform's view of the coordinator's pool with
// every worker timed. It returns one stable wrapper per worker, because
// the platform keys its per-worker accounting by worker identity.
type timedPool struct {
	coord *sweepd.Coordinator
	tr    *tracer

	mu      sync.Mutex
	wrapped map[sweepd.Worker]*timedWorker
}

// Workers implements jobd.WorkerPool.
func (p *timedPool) Workers() []sweepd.Worker {
	ws := p.coord.Workers()
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]sweepd.Worker, len(ws))
	for i, w := range ws {
		tw := p.wrapped[w]
		if tw == nil {
			tw = &timedWorker{w: w, rec: p.tr}
			p.wrapped[w] = tw
		}
		out[i] = tw
	}
	return out
}
