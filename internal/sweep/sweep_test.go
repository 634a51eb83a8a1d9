package sweep

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/tracecache"
	"repro/internal/workload"
)

func gzipRunner(t *testing.T) Runner {
	t.Helper()
	p, err := workload.ByName("gzip")
	if err != nil {
		t.Fatal(err)
	}
	return Runner{Workload: p, Instructions: 8000}
}

func TestGridBuildsPoints(t *testing.T) {
	pts := Grid("rb", core.DefaultConfig(), []int{8, 16, 32}, func(c *core.Config, v int) {
		c.RBSize = v
	})
	if len(pts) != 3 {
		t.Fatalf("points = %d", len(pts))
	}
	if pts[0].Name != "rb=8" || pts[0].Config.RBSize != 8 {
		t.Errorf("point 0 = %+v", pts[0])
	}
	if pts[2].Config.RBSize != 32 {
		t.Errorf("point 2 RB = %d", pts[2].Config.RBSize)
	}
	// Base is not mutated.
	if core.DefaultConfig().RBSize != 16 {
		t.Error("base config mutated")
	}
}

func TestParallelMatchesSerial(t *testing.T) {
	r := gzipRunner(t)
	pts := Grid("rb", core.DefaultConfig(), []int{4, 8, 16, 32}, func(c *core.Config, v int) {
		c.RBSize = v
	})

	r.Parallelism = 1
	serial, err := r.Run(context.Background(), pts)
	if err != nil {
		t.Fatal(err)
	}
	r.Parallelism = 4
	parallel, err := r.Run(context.Background(), pts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range serial {
		if serial[i].Err != nil || parallel[i].Err != nil {
			t.Fatalf("point %d errs: %v / %v", i, serial[i].Err, parallel[i].Err)
		}
		if serial[i].Res.Counters != parallel[i].Res.Counters {
			t.Errorf("point %s differs between serial and parallel runs", serial[i].Name)
		}
		if serial[i].Name != parallel[i].Name {
			t.Errorf("order not preserved at %d", i)
		}
	}
	// Bigger RBs never hurt: IPC non-decreasing across the grid.
	for i := 1; i < len(serial); i++ {
		if serial[i].Res.IPC() < serial[i-1].Res.IPC()-1e-9 {
			t.Errorf("IPC decreased from %s to %s", serial[i-1].Name, serial[i].Name)
		}
	}
}

func TestBadPointReportsError(t *testing.T) {
	r := gzipRunner(t)
	bad := core.DefaultConfig()
	bad.Width = 0
	res, err := r.Run(context.Background(), []Point{{Name: "bad", Config: bad}})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Err == nil {
		t.Error("invalid point did not report an error")
	}
}

func TestEmptySweepRejected(t *testing.T) {
	r := gzipRunner(t)
	if _, err := r.Run(context.Background(), nil); err == nil {
		t.Error("empty sweep accepted")
	}
}

// TestSweepSharedTraceGeneratesOnce is the issue's acceptance criterion: a
// >= 4-point sweep whose points differ only in engine parameters performs
// exactly one trace generation.
func TestSweepSharedTraceGeneratesOnce(t *testing.T) {
	r := gzipRunner(t)
	r.Traces = tracecache.New(tracecache.Config{})
	// LSQ depth is engine-only: unlike RBSize (which feeds the wrong-path
	// block length RB+IFQ) it leaves the trace configuration untouched.
	pts := Grid("lsq", core.DefaultConfig(), []int{2, 4, 8, 16, 32}, func(c *core.Config, v int) {
		c.LSQSize = v
	})
	res, err := r.Run(context.Background(), pts)
	if err != nil {
		t.Fatal(err)
	}
	for _, pr := range res {
		if pr.Err != nil {
			t.Fatalf("%s: %v", pr.Name, pr.Err)
		}
	}
	if got := r.Traces.Stats().Generations; got != 1 {
		t.Errorf("generations = %d, want 1 for %d points sharing a trace config", got, len(pts))
	}
}

// TestSweepCachedMatchesUncached: caching must not change a single counter
// of any point's result.
func TestSweepCachedMatchesUncached(t *testing.T) {
	r := gzipRunner(t)
	pts := Grid("width", core.DefaultConfig(), []int{2, 4, 8}, func(c *core.Config, v int) {
		c.Width = v
		if max := c.Organization.MaxMemPorts(v); c.MemReadPorts > max {
			c.MemReadPorts = max
		}
	})
	// A point with a different trace key rides along to cover grouping.
	perfect := core.DefaultConfig()
	perfect.PerfectBP = true
	pts = append(pts, Point{Name: "perfectbp", Config: perfect})

	r.Traces = nil
	uncached, err := r.Run(context.Background(), pts)
	if err != nil {
		t.Fatal(err)
	}
	r.Traces = tracecache.New(tracecache.Config{})
	cached, err := r.Run(context.Background(), pts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range uncached {
		if uncached[i].Err != nil || cached[i].Err != nil {
			t.Fatalf("point %d errs: %v / %v", i, uncached[i].Err, cached[i].Err)
		}
		if !reflect.DeepEqual(uncached[i].Res, cached[i].Res) {
			t.Errorf("point %s: cached result differs from uncached", uncached[i].Name)
		}
	}
	// The perfect-BP trace has no wrong path, so it derives from the
	// default one.
	if st := r.Traces.Stats(); st.Generations != 1 || st.Derivations != 1 {
		t.Errorf("generations, derivations = %d, %d; want 1 (default trace), 1 (perfect-BP trace)", st.Generations, st.Derivations)
	}
}

// TestSweepUncacheableBudgetFallsBack: Instructions over the cache's cap
// streams per point and still completes.
func TestSweepUncacheableBudgetFallsBack(t *testing.T) {
	r := gzipRunner(t)
	r.Traces = tracecache.New(tracecache.Config{MaxInstructions: 100}) // below r.Instructions
	pts := Grid("rb", core.DefaultConfig(), []int{8, 16}, func(c *core.Config, v int) {
		c.RBSize = v
	})
	res, err := r.Run(context.Background(), pts)
	if err != nil {
		t.Fatal(err)
	}
	for _, pr := range res {
		if pr.Err != nil {
			t.Fatalf("%s: %v", pr.Name, pr.Err)
		}
	}
	if got := r.Traces.Stats().Generations; got != 0 {
		t.Errorf("generations = %d, want 0 (uncacheable budget must stream)", got)
	}
}

// TestOnResultStreamsEveryPoint: the per-point streaming hook delivers each
// full result exactly once (serialized, in completion order), matching the
// point-ordered slice Run returns — the contract the sharded sweep service
// workers rely on.
func TestOnResultStreamsEveryPoint(t *testing.T) {
	r := gzipRunner(t)
	base := core.DefaultConfig()
	pts := Grid("rb", base, []int{8, 16, 32}, func(c *core.Config, v int) { c.RBSize = v })

	streamed := make(map[int]Result, len(pts))
	var progress []core.Progress
	r.OnResult = func(i int, res Result) {
		if _, dup := streamed[i]; dup {
			t.Errorf("point %d streamed twice", i)
		}
		streamed[i] = res // serialized with Observer callbacks; no lock needed
	}
	r.Observer = core.ObserverFunc(func(p core.Progress) { progress = append(progress, p) })

	got, err := r.Run(context.Background(), pts)
	if err != nil {
		t.Fatal(err)
	}
	if len(streamed) != len(pts) {
		t.Fatalf("streamed %d results, want %d", len(streamed), len(pts))
	}
	for i := range got {
		if !reflect.DeepEqual(streamed[i], got[i]) {
			t.Errorf("streamed result %d differs from returned result", i)
		}
	}
	if len(progress) != len(pts) {
		t.Fatalf("observer calls = %d, want %d", len(progress), len(pts))
	}
	seen := map[int]bool{}
	for k, p := range progress {
		if p.Total != len(pts) {
			t.Errorf("Progress.Total = %d, want %d", p.Total, len(pts))
		}
		if p.Done != k+1 {
			t.Errorf("Progress.Done = %d at callback %d, want %d", p.Done, k, k+1)
		}
		seen[p.Core] = true
	}
	if len(seen) != len(pts) {
		t.Errorf("observer reported %d distinct points, want %d", len(seen), len(pts))
	}
}
