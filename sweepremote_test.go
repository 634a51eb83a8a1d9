package resim_test

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	resim "repro"
	"repro/internal/jobd"
	"repro/internal/sweepd"
	"repro/internal/tracecache"
)

// startCluster brings up what `resimd -role coordinator` runs — a
// coordinator with n resimd-style workers (each with its own trace cache,
// standing in for distinct hosts) on localhost, and the job service
// scheduling over them — and returns the job service's base URL.
func startCluster(t *testing.T, n int) (string, []*tracecache.Cache) {
	t.Helper()
	caches := make([]*tracecache.Cache, n)
	for i := range caches {
		caches[i] = tracecache.New(tracecache.Config{})
	}
	return startClusterWith(t, caches), caches
}

// startClusterWith is startCluster with one worker per given trace cache.
func startClusterWith(t testing.TB, caches []*tracecache.Cache) string {
	t.Helper()
	coord := sweepd.NewCoordinator()
	p, err := jobd.New(jobd.Options{Pool: coord})
	if err != nil {
		t.Fatal(err)
	}
	coord.OnWorkersChanged = p.Kick
	addr, err := coord.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(p.Handler())
	// Cleanups run last-in first-out: HTTP, then the platform, then the
	// coordinator, the order resimd shuts down in.
	t.Cleanup(func() { coord.Close() })
	t.Cleanup(func() { p.Close() })
	t.Cleanup(srv.Close)
	wctx, stop := context.WithCancel(context.Background())
	t.Cleanup(stop)
	for _, c := range caches {
		go sweepd.Work(wctx, addr, sweepd.WorkerOptions{Traces: c}) //nolint:errcheck
	}
	deadline := time.Now().Add(10 * time.Second)
	for coord.WorkerCount() < len(caches) {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d workers registered", coord.WorkerCount(), len(caches))
		}
		time.Sleep(2 * time.Millisecond)
	}
	return srv.URL
}

// acceptancePoints is a 4-point sweep with exactly 2 distinct trace keys:
// RB size feeds the wrong-path block length (and so the key), LSQ size is
// engine-only.
func acceptancePoints(base resim.Config) []resim.SweepPoint {
	var pts []resim.SweepPoint
	for _, rb := range []int{8, 16} {
		for _, lsq := range []int{4, 8} {
			cfg := base
			cfg.RBSize = rb
			cfg.LSQSize = lsq
			pts = append(pts, resim.SweepPoint{Name: "pt", Config: cfg})
		}
	}
	return pts
}

// TestSweepRemoteMatchesSweep is the PR's acceptance criterion: a 4-point
// sweep with 2 distinct trace keys served through SweepRemote against a
// 2-worker loopback cluster performs exactly 2 trace generations total
// (asserted via tracecache.Stats) and returns results byte-identical to
// Session.Sweep on the same points.
func TestSweepRemoteMatchesSweep(t *testing.T) {
	const instrs = 8000
	ctx := context.Background()
	server, caches := startCluster(t, 2)

	local, err := resim.New(resim.WithTraceCache(resim.NewTraceCache(resim.TraceCacheConfig{})))
	if err != nil {
		t.Fatal(err)
	}
	remote, err := resim.New()
	if err != nil {
		t.Fatal(err)
	}
	// The second base crosses the wire with a memory system, an L2
	// included.
	l1 := resim.CacheConfig{SizeBytes: 4 << 10, Assoc: 2, BlockBytes: 64, HitLatency: 1, MissLatency: 20}
	withL2 := resim.DefaultConfig()
	withL2.ICache = resim.CacheSide{L1: l1}
	withL2.DCache = resim.CacheSide{L1: l1, L2: resim.CacheConfig{SizeBytes: 64 << 10, Assoc: 8, BlockBytes: 64,
		HitLatency: 6, MissLatency: 40}}
	for i, base := range []resim.Config{resim.DefaultConfig(), withL2} {
		pts := acceptancePoints(base)
		want, err := local.Sweep(ctx, "gzip", instrs, pts)
		if err != nil {
			t.Fatal(err)
		}
		got, err := remote.SweepRemote(ctx, server, "gzip", instrs, pts)
		if err != nil {
			t.Fatal(err)
		}

		wantJSON, err := json.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}
		gotJSON, err := json.Marshal(got)
		if err != nil {
			t.Fatal(err)
		}
		if string(gotJSON) != string(wantJSON) {
			t.Fatalf("SweepRemote results are not byte-identical to Sweep results\nremote: %.400s\nlocal:  %.400s",
				gotJSON, wantJSON)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatal("SweepRemote results differ structurally from Sweep results")
		}
		if i > 0 {
			continue // a later job may route a key to the other worker
		}
		var gens uint64
		for _, c := range caches {
			gens += c.Stats().Generations
		}
		if gens != 2 {
			t.Fatalf("cluster performed %d trace generations for 2 distinct trace keys, want exactly 2", gens)
		}
	}
}

// TestWithCoordinatorRoutesSweep: a session built WithCoordinator runs its
// plain Sweep calls through the remote service transparently.
func TestWithCoordinatorRoutesSweep(t *testing.T) {
	const instrs = 6000
	ctx := context.Background()
	server, caches := startCluster(t, 1)

	ses, err := resim.New(resim.WithCoordinator(server))
	if err != nil {
		t.Fatal(err)
	}
	pts := acceptancePoints(ses.Config())
	res, err := ses.Sweep(ctx, "gzip", instrs, pts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != len(pts) {
		t.Fatalf("got %d results, want %d", len(res), len(pts))
	}
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("point %d: %v", i, r.Err)
		}
	}
	// Proof the job really ran on the remote worker: its cache did the
	// generations, two distinct keys' worth.
	if gens := caches[0].Stats().Generations; gens != 2 {
		t.Fatalf("remote worker performed %d generations, want 2", gens)
	}
}

// TestSweepObserverDoneTotal: the local Sweep path reports sweep completion
// through the extended Progress fields — done counts 1..N against a fixed
// total, with exactly one Final.
func TestSweepObserverDoneTotal(t *testing.T) {
	var (
		mu     sync.Mutex
		dones  []int
		totals []int
		finals int
	)
	ses, err := resim.New(resim.WithObserver(resim.ObserverFunc(func(p resim.Progress) {
		mu.Lock()
		defer mu.Unlock()
		dones = append(dones, p.Done)
		totals = append(totals, p.Total)
		if p.Final {
			finals++
		}
	}), 0))
	if err != nil {
		t.Fatal(err)
	}
	pts := acceptancePoints(ses.Config())
	if _, err := ses.Sweep(context.Background(), "gzip", 5000, pts); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if !reflect.DeepEqual(dones, []int{1, 2, 3, 4}) {
		t.Errorf("done sequence = %v, want [1 2 3 4]", dones)
	}
	for _, tot := range totals {
		if tot != len(pts) {
			t.Errorf("total = %d, want %d", tot, len(pts))
		}
	}
	if finals != 1 {
		t.Errorf("final callbacks = %d, want exactly 1", finals)
	}
}

// TestSweepRemoteForwardsObserver: SweepRemote feeds the session observer
// from the job's result stream.
func TestSweepRemoteForwardsObserver(t *testing.T) {
	server, _ := startCluster(t, 2)
	var (
		mu     sync.Mutex
		calls  int
		finals int
		lastD  int
	)
	ses, err := resim.New(resim.WithObserver(resim.ObserverFunc(func(p resim.Progress) {
		mu.Lock()
		defer mu.Unlock()
		calls++
		if p.Done <= lastD {
			// Done strictly increases: one callback per newly completed point.
			// (Guarded here rather than asserting the exact sequence so the
			// failure mode is readable.)
			finals = -1000
		}
		lastD = p.Done
		if p.Final {
			finals++
		}
	}), 0))
	if err != nil {
		t.Fatal(err)
	}
	pts := acceptancePoints(ses.Config())
	if _, err := ses.SweepRemote(context.Background(), server, "gzip", 5000, pts); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if calls != len(pts) {
		t.Errorf("observer calls = %d, want one per point (%d)", calls, len(pts))
	}
	if finals != 1 {
		t.Errorf("final callbacks = %d, want exactly 1 (and monotonic Done)", finals)
	}
}

// TestSweepRemoteCancelCancelsJob: a remote sweep's job lives on the
// service, not on the caller's connection, so cancelling SweepRemote's
// context must cancel the job there too — promptly, and without leaving
// the caller's streams or the service's engines running.
func TestSweepRemoteCancelCancelsJob(t *testing.T) {
	server := startJobService(t, nil)
	ses, err := resim.New()
	if err != nil {
		t.Fatal(err)
	}
	pts := acceptancePoints(ses.Config())
	before := runtime.NumGoroutine()

	// Far past the trace cache's per-trace cap: the engines stream their
	// traces and run until the cancellation reaches them.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sweepErr := make(chan error, 1)
	go func() {
		_, err := ses.SweepRemote(ctx, server, "gzip", 1<<40, pts)
		sweepErr <- err
	}()

	c := &jobd.Client{Server: server}
	var id string
	deadline := time.Now().Add(10 * time.Second)
	for id == "" {
		if time.Now().After(deadline) {
			t.Fatal("the remote sweep's job never started running")
		}
		jobs, err := c.List(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if len(jobs) == 1 && jobs[0].State == jobd.StateRunning {
			id = jobs[0].ID
		}
		time.Sleep(5 * time.Millisecond)
	}

	cancel()
	select {
	case err := <-sweepErr:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled SweepRemote returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled SweepRemote did not return within 5s")
	}

	deadline = time.Now().Add(5 * time.Second)
	for {
		st, err := c.Status(context.Background(), id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State == jobd.StateCanceled {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job state %s 5s after SweepRemote was cancelled, want %s", st.State, jobd.StateCanceled)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Kept-alive HTTP connections are the transport's, not leaks.
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	deadline = time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines did not settle after the cancelled sweep: before=%d after=%d\n%s",
				before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}
