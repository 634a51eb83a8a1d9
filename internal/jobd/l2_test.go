package jobd

import (
	"context"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/sweep"
	"repro/internal/sweepd"
	"repro/internal/tracecache"
)

// reported returns the value the statistics report prints for name, and
// whether it prints the line at all.
func reported(report, name string) (uint64, bool) {
	for _, line := range strings.Split(report, "\n") {
		if f := strings.Fields(line); len(f) > 1 && f[0] == name {
			v, err := strconv.ParseUint(f[1], 10, 64)
			return v, err == nil
		}
	}
	return 0, false
}

// TestPrivateL2ReportedEverywhere: a private L2, on either side, reports its
// accesses and misses in the Result, its statistics report, the sum of its
// telemetry windows and a remote job's streamed result, and the side
// without one reports no L2.
func TestPrivateL2ReportedEverywhere(t *testing.T) {
	l1 := cache.Config{Name: "l1", SizeBytes: 1 << 10, Assoc: 2, BlockBytes: 32, HitLatency: 1, MissLatency: 12}
	l2 := cache.Config{Name: "l2", SizeBytes: 8 << 10, Assoc: 4, BlockBytes: 64, HitLatency: 6, MissLatency: 40}
	two := cache.Side{L1: l1, L2: l2}
	cases := []struct {
		name, level, other string
		set                func(*core.Config)
		l2, none           func(core.Stats) cache.Stats
	}{
		{"dside", "dl2", "il2", func(c *core.Config) { c.DCache = two },
			func(s core.Stats) cache.Stats { return s.DL2 }, func(s core.Stats) cache.Stats { return s.IL2 }},
		{"iside", "il2", "dl2", func(c *core.Config) { c.ICache = two },
			func(s core.Stats) cache.Stats { return s.IL2 }, func(s core.Stats) cache.Stats { return s.DL2 }},
	}
	const instrs = 6000
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := core.DefaultConfig()
			tc.set(&cfg)
			spec, err := sweepd.SpecOf(cfg)
			if err != nil {
				t.Fatal(err)
			}
			pts := []sweepd.WirePoint{{Name: "L2/" + tc.name, Config: spec}}
			sj, err := sweepd.JobFromWire(&sweepd.WireJob{Profile: mustProfile(t, "gzip"),
				Instructions: instrs, Points: pts})
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
			defer cancel()

			// Result and its statistics report.
			var windows core.Stats
			local, err := sweep.Runner{Workload: sj.Profile, Instructions: instrs,
				Traces: tracecache.New(tracecache.Config{}), TelemetryEvery: 1024,
				OnTelemetry: func(_ int, s core.IntervalSnapshot) { windows = windows.Add(s.Stats) },
			}.Run(ctx, sj.Points)
			if err != nil || local[0].Err != nil {
				t.Fatalf("local run: %v %v", err, local[0].Err)
			}
			res := local[0].Res
			st := tc.l2(res.Stats)
			if st.Accesses() == 0 || st.Misses() == 0 || st.Accesses() != res.DCache.Misses()+res.ICache.Misses() {
				t.Fatalf("Result's %s = %+v, want one access per L1 miss (%d)", tc.level, st,
					res.DCache.Misses()+res.ICache.Misses())
			}
			if none := tc.none(res.Stats); none != (cache.Stats{}) {
				t.Errorf("Result reports an %s %+v on a side without one", tc.other, none)
			}
			report := res.Registry().String()
			if v, ok := reported(report, tc.level+"_accesses"); !ok || v != st.Accesses() {
				t.Errorf("report's %s_accesses = %d (printed %t), want %d", tc.level, v, ok, st.Accesses())
			}
			if v, ok := reported(report, tc.level+"_misses"); !ok || v != st.Misses() {
				t.Errorf("report's %s_misses = %d (printed %t), want %d", tc.level, v, ok, st.Misses())
			}
			if _, ok := reported(report, tc.other+"_accesses"); ok {
				t.Errorf("report prints %s lines for a side without an L2", tc.other)
			}

			// The telemetry windows sum to the final statistics, L2 included.
			if windows != res.Stats {
				t.Errorf("telemetry windows sum to %s %+v, want %+v", tc.level, tc.l2(windows), st)
			}

			// A remote job streams the same statistics.
			p, err := New(Options{Pool: StaticPool{sweepd.NewLoopbackWorker(sweepd.LoopbackOptions{})}})
			if err != nil {
				t.Fatal(err)
			}
			defer p.Close()
			srv := httptest.NewServer(p.Handler())
			defer srv.Close()
			c := &Client{Server: srv.URL, HTTPClient: srv.Client()}
			job, err := c.Submit(ctx, SubmitRequest{Workload: "gzip", Instructions: instrs, Points: pts})
			if err != nil {
				t.Fatal(err)
			}
			var remote *core.Stats
			state, err := c.Results(ctx, job.ID, func(wr *sweepd.WireResult) error {
				remote = wr.Res
				return nil
			})
			if err != nil || state != StateDone || remote == nil {
				t.Fatalf("remote job: state=%s err=%v result=%v", state, err, remote)
			}
			if *remote != res.Stats {
				t.Errorf("remote job streamed %s %+v, want %+v", tc.level, tc.l2(*remote), st)
			}
		})
	}
}
