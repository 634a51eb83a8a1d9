package sweep

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/bpred"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/tracecache"
	"repro/internal/workload"
)

// ladderInstr is the per-point budget of the differential tests: long
// enough for LSQ pressure to show, short enough for -race.
const ladderInstr = 6000

// memorySetup builds one point's configuration.
type memorySetup struct {
	name string
	base func() core.Config
}

func memorySetups() []memorySetup {
	return []memorySetup{
		{"perfect", core.DefaultConfig},
		{"fast-l1", core.FASTComparisonConfig},
		{"l2", func() core.Config {
			c := core.DefaultConfig()
			c.DCache = cache.Side{
				L1: cache.Config{Name: "dl1", SizeBytes: 2 << 10, Assoc: 2, BlockBytes: 32, HitLatency: 1, MissLatency: 12},
				L2: cache.Config{Name: "dl2", SizeBytes: 16 << 10, Assoc: 4, BlockBytes: 32, HitLatency: 4, MissLatency: 30},
			}
			return c
		}},
		{"maxcycles", func() core.Config {
			c := core.DefaultConfig()
			c.DCache = cache.Side{Latency: 3}
			c.MaxCycles = 2500
			return c
		}},
	}
}

// ladderPoints is RB{8,16,32} x LSQ{4..64}: LSQ values below, at and
// above every RB value.
func ladderPoints(m memorySetup) []Point {
	var pts []Point
	for _, rb := range []int{8, 16, 32} {
		for _, lsq := range []int{4, 8, 16, 32, 64} {
			c := m.base()
			c.RBSize, c.LSQSize = rb, lsq
			pts = append(pts, Point{Name: fmt.Sprintf("%s/rb=%d,lsq=%d", m.name, rb, lsq), Config: c})
		}
	}
	return pts
}

// directRun simulates cfg through core.New and RunContext with a streamed
// trace — the reference a sweep result must equal field for field.
func directRun(t *testing.T, p workload.Profile, n uint64, cfg core.Config) core.Result {
	t.Helper()
	ctx := context.Background()
	src, pc, err := tracecache.SourceFor(ctx, nil, p, cfg.TraceConfig(), n)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.New(cfg, src, pc)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.RunContext(ctx)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestSweepMatchesDirectRuns is the differential pin for LSQ ladders:
// every Runner.Run result, Config included, equals a direct engine run of that point, over several profiles,
// memory systems and a MaxCycles-truncated ladder; and a sweep simulates
// only the rungs no smaller rung could answer, serial or parallel.
func TestSweepMatchesDirectRuns(t *testing.T) {
	profiles := workload.Names()[:3]
	for _, m := range memorySetups() {
		for _, name := range profiles {
			t.Run(m.name+"/"+name, func(t *testing.T) {
				p, err := workload.ByName(name)
				if err != nil {
					t.Fatal(err)
				}
				pts := ladderPoints(m)
				want := make([]core.Result, len(pts))
				for i, pt := range ladderPoints(m) {
					want[i] = directRun(t, p, ladderInstr, pt.Config)
				}
				for _, par := range []int{1, 4} {
					r := Runner{Workload: p, Instructions: ladderInstr, Parallelism: par,
						Traces: tracecache.New(tracecache.Config{})}
					got, err := r.Run(context.Background(), pts)
					if err != nil {
						t.Fatal(err)
					}
					for i, g := range got {
						if g.Err != nil {
							t.Fatalf("par=%d %s: %v", par, g.Name, g.Err)
						}
						if g.Point.Name != pts[i].Name {
							t.Errorf("par=%d result %d is %s, want %s", par, i, g.Point.Name, pts[i].Name)
						}
						if !reflect.DeepEqual(g.Res, want[i]) {
							t.Errorf("par=%d %s: sweep result differs from the direct run", par, g.Name)
						}
					}
					// At any parallelism a sweep simulates each ladder up to
					// its first rung whose LSQ never filled, and answers the
					// rest. Every point shares one predictor and PerfectBP,
					// so the sweep is one trace family: its longest wrong
					// path is generated and the shorter ones derived.
					st := r.Traces.Stats()
					if n := st.Hits + st.Generations + st.Derivations; n != simulated(want) {
						t.Errorf("par=%d: simulated %d points, want %d", par, n, simulated(want))
					}
					if st.Generations != 1 || st.Derivations != 2 {
						t.Errorf("par=%d: %d generations, %d derivations; want 1 per family and 2", par, st.Generations, st.Derivations)
					}
				}
			})
		}
	}
}

// simulated counts the points a serial sweep of ladderPoints simulates,
// given their direct results: each ladder of five LSQ rungs runs up to and
// including its first rung whose LSQ never filled.
func simulated(want []core.Result) uint64 {
	var n uint64
	for l := 0; l < len(want); l += 5 {
		for _, res := range want[l : l+5] {
			n++
			if res.LSQ.FullFrac() == 0 {
				break
			}
		}
	}
	return n
}

// TestFilledRunKeepsNoWindows: a run with larger rungs records its
// telemetry windows only until one shows a full LSQ, so a run that filled
// reaches finish holding none, and one that never filled holds every
// window of its result.
func TestFilledRunKeepsNoWindows(t *testing.T) {
	p, err := workload.ByName("gzip")
	if err != nil {
		t.Fatal(err)
	}
	r := Runner{Workload: p, Instructions: ladderInstr, TelemetryEvery: 256,
		OnTelemetry: func(int, core.IntervalSnapshot) {}}
	for _, lsq := range []int{2, 128} {
		c := core.DefaultConfig()
		c.LSQSize = lsq
		rn := &run{record: true}
		res := r.runOne(context.Background(), 0, Point{Config: c}, rn)
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		if filled := res.Res.LSQ.FullFrac() > 0; filled != (lsq == 2) {
			t.Fatalf("lsq=%d: LSQ filled %t; the test needs LSQ 2 to fill and 128 not to", lsq, filled)
		}
		if lsq == 2 {
			if rn.record || rn.windows != nil {
				t.Errorf("filled run: still recording %t, %d windows held", rn.record, len(rn.windows))
			}
			continue
		}
		var sum core.Result
		for _, w := range rn.windows {
			w.Accumulate(&sum)
		}
		if len(rn.windows) == 0 || sum.Counters != res.Res.Counters {
			t.Errorf("unfilled run: %d windows held, summing to %d cycles, want %d", len(rn.windows), sum.Cycles, res.Res.Cycles)
		}
	}
}

// TestLaddersNeverSpanTraceKeys: points that vary every field the trace
// key reads (Predictor, PerfectBP, RBSize and IFQSize, through
// TraceConfig) as well as LSQSize group into ladders that each hold one
// trace key. Run hands every key of a sweep to one scheduler, so a
// TraceConfig field left out of CheckpointDigest would merge points with
// different traces into one ladder and answer them from the wrong run.
func TestLaddersNeverSpanTraceKeys(t *testing.T) {
	p, err := workload.ByName("gzip")
	if err != nil {
		t.Fatal(err)
	}
	base := core.DefaultConfig()
	wide := base.Predictor
	wide.PHTSize *= 2
	var pts []Point
	for _, pred := range []bpred.Config{base.Predictor, wide} {
		for _, perfect := range []bool{false, true} {
			for _, rb := range []int{8, 16} {
				for _, ifq := range []int{4, 8} {
					for _, lsq := range []int{4, 8, 16} {
						c := base
						c.Predictor, c.PerfectBP = pred, perfect
						c.RBSize, c.IFQSize, c.LSQSize = rb, ifq, lsq
						pts = append(pts, Point{Name: fmt.Sprintf("pht=%d,pbp=%t,rb=%d,ifq=%d,lsq=%d",
							pred.PHTSize, perfect, rb, ifq, lsq), Config: c})
					}
				}
			}
		}
	}
	lads := ladders(pts, nil)
	for _, lad := range lads {
		want := tracecache.KeyFor(p, pts[lad[0]].Config.TraceConfig(), ladderInstr).ID()
		for _, i := range lad[1:] {
			if got := tracecache.KeyFor(p, pts[i].Config.TraceConfig(), ladderInstr).ID(); got != want {
				t.Errorf("ladder spans trace keys: %s and %s", pts[lad[0]].Name, pts[i].Name)
			}
		}
	}
	// Each LSQ triple is one ladder, so the check above saw real ladders.
	if len(lads) != len(pts)/3 {
		t.Errorf("%d ladders from %d points, want %d", len(lads), len(pts), len(pts)/3)
	}
}

// TestRandomLaddersMatchDirectRuns is the randomized oracle for ladder
// shortcuts: seeded random machines (width, RB, IFQ, organization,
// predictor, PerfectBP and memory system), each swept over 3-5 random LSQ
// rungs on every workload profile. Every result Runner.Run returns, and so
// every point it answers without simulating, equals a direct run of the
// same configuration. The test reports how many points were answered and
// checks that count against the cache's simulated-point count.
func TestRandomLaddersMatchDirectRuns(t *testing.T) {
	const seed = 1
	perProfile := 10
	if testing.Short() {
		perProfile = 4
	}
	rng := rand.New(rand.NewSource(seed))
	var total, answered, answeredL2 int
	var derivations uint64
	for _, name := range workload.Names() {
		p, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		var pts []Point
		var want []core.Result
		var wantAnswered int
		seen := map[core.Config]bool{}
		for len(seen) < perProfile {
			machine := randomMachine(rng)
			key := machine()
			key.LSQSize = 0
			if seen[key] {
				continue
			}
			seen[key] = true
			lsqs := randomRungs(rng, machine().RBSize)
			results := map[int]core.Result{}
			for _, lsq := range lsqs {
				c := machine()
				c.LSQSize = lsq
				pts = append(pts, Point{Name: fmt.Sprintf("%s/%d/lsq=%d", name, len(seen), lsq), Config: c})
				c = machine()
				c.LSQSize = lsq
				results[lsq] = directRun(t, p, ladderInstr, c)
				want = append(want, results[lsq])
			}
			// A ladder simulates its rungs smallest LSQ first, up to the
			// first whose LSQ never filled, and answers every larger one.
			slices.Sort(lsqs)
			for i, lsq := range lsqs {
				if res := results[lsq]; res.LSQ.FullFrac() == 0 {
					wantAnswered += len(lsqs) - 1 - i
					if key.DCache.L2 != (cache.Config{}) {
						answeredL2 += len(lsqs) - 1 - i
					}
					break
				}
			}
		}
		r := Runner{Workload: p, Instructions: ladderInstr, Parallelism: 2,
			Traces: tracecache.New(tracecache.Config{})}
		got, err := r.Run(context.Background(), pts)
		if err != nil {
			t.Fatal(err)
		}
		for i, g := range got {
			if g.Err != nil {
				t.Fatalf("%s: %v", g.Name, g.Err)
			}
			if !reflect.DeepEqual(g.Res, want[i]) {
				t.Errorf("%s (%+v): sweep result differs from the direct run", g.Name, g.Config)
			}
		}
		st := r.Traces.Stats()
		if n := len(pts) - int(st.Hits+st.Generations+st.Derivations); n != wantAnswered {
			t.Errorf("%s: answered %d points, want %d", name, n, wantAnswered)
		}
		derivations += st.Derivations
		total += len(pts)
		answered += wantAnswered
	}
	t.Logf("seed %d: %d of %d points answered from a smaller rung, %d of them with a D-side L2; %d traces derived",
		seed, answered, total, answeredL2, derivations)
	if answered == 0 || answeredL2 == 0 {
		t.Error("no point (or no point with a D-side L2) was answered, so that shortcut was not checked")
	}
	if derivations == 0 {
		t.Error("no trace was derived from a longer one, so derived traces were not checked")
	}
}

// randomMachine draws one ladder's machine and returns a builder of its
// Config.
func randomMachine(rng *rand.Rand) func() core.Config {
	width := 1 + rng.Intn(4)
	rb := []int{4, 8, 16, 32}[rng.Intn(4)]
	ifq := []int{2, 4, 8}[rng.Intn(3)]
	org := []sched.Organization{sched.OrgSimple, sched.OrgImproved, sched.OrgOptimized}[rng.Intn(3)]
	if org.MaxMemPorts(width) < 1 {
		org = sched.OrgImproved
	}
	pred := bpred.Default()
	pred.Dir = bpred.DirKind(rng.Intn(5))
	pred.HistLen = 2 + rng.Intn(10)
	pred.PHTSize = 256 << rng.Intn(5)
	pred.BimodSize = 256 << rng.Intn(4)
	pred.MetaSize = 256 << rng.Intn(4)
	perfectBP := rng.Intn(4) == 0
	mem := rng.Intn(4)
	latency := 1 + rng.Intn(4)
	geom := cache.Config{SizeBytes: 1 << (10 + rng.Intn(4)), Assoc: 1 << rng.Intn(3),
		BlockBytes: 16 << rng.Intn(3), HitLatency: 1, MissLatency: 6 + rng.Intn(15)}
	return func() core.Config {
		c := core.DefaultConfig()
		c.Width, c.RBSize, c.IFQSize, c.Organization = width, rb, ifq, org
		c.MemReadPorts = min(c.MemReadPorts, org.MaxMemPorts(width))
		c.Predictor, c.PerfectBP = pred, perfectBP
		switch mem {
		case 1:
			c.ICache, c.DCache = cache.Side{Latency: latency}, cache.Side{Latency: latency}
		case 2, 3:
			ic, dc := geom, geom
			ic.Name, dc.Name = "il1", "dl1"
			c.ICache, c.DCache = cache.Side{L1: ic}, cache.Side{L1: dc}
			if mem == 3 {
				l2 := geom
				l2.Name, l2.SizeBytes, l2.HitLatency, l2.MissLatency = "dl2", geom.SizeBytes*8, 4, 40
				c.DCache.L2 = l2
			}
		}
		return c
	}
}

// randomRungs draws 3-5 distinct LSQ sizes in random order, spanning sizes
// below and above rb so some rungs fill and some never can.
func randomRungs(rng *rand.Rand, rb int) []int {
	var sizes []int
	for _, s := range []int{1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64} {
		if s <= 2*rb {
			sizes = append(sizes, s)
		}
	}
	rng.Shuffle(len(sizes), func(i, j int) { sizes[i], sizes[j] = sizes[j], sizes[i] })
	return sizes[:3+rng.Intn(3)]
}
