package core_test

import (
	"fmt"
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/funcsim"
	"repro/internal/sched"
	"repro/internal/trace"
	"repro/internal/workload"
)

// TestMetamorphicInvariants checks relations every run must satisfy
// whatever the engine's internals, over all five workload profiles: a
// perfect predictor never mispredicts and never fetches down a wrong
// path, perfect caches never miss, every correct-path record of the trace
// commits, and IPC never exceeds the machine width.
func TestMetamorphicInvariants(t *testing.T) {
	const limit = 20_000
	perfectCaches := func(c core.Config) core.Config {
		c.ICache, c.DCache = cache.NewPerfect(1), cache.NewPerfect(1)
		return c
	}
	configs := []struct {
		name string
		cfg  func() core.Config
	}{
		{"default", core.DefaultConfig},
		{"fast-perfect-bp-l1", core.FASTComparisonConfig},
		{"perfect-caches-rb32", func() core.Config {
			c := perfectCaches(core.DefaultConfig())
			c.RBSize, c.LSQSize = 32, 16
			return c
		}},
		{"perfect-bp-caches-scalar", func() core.Config {
			c := perfectCaches(core.DefaultConfig())
			c.Width, c.MemReadPorts, c.PerfectBP, c.Organization = 1, 1, true, sched.OrgSimple
			return c
		}},
	}
	for _, p := range workload.Profiles() {
		for _, tc := range configs {
			t.Run(fmt.Sprintf("%s/%s", p.Name, tc.name), func(t *testing.T) {
				cfg := tc.cfg()
				recs := ckptRecords(t, p.Name, cfg, limit)
				var correct uint64
				for _, r := range recs {
					if !r.Tag {
						correct++
					}
				}
				eng, err := core.New(cfg, trace.NewSliceSource(recs), funcsim.CodeBase)
				if err != nil {
					t.Fatal(err)
				}
				res, err := eng.Run()
				if err != nil {
					t.Fatal(err)
				}
				if res.Committed != correct {
					t.Errorf("committed %d, trace holds %d correct-path records", res.Committed, correct)
				}
				if ipc := res.IPC(); ipc > float64(cfg.Width) {
					t.Errorf("IPC %.3f above width %d", ipc, cfg.Width)
				}
				if cfg.PerfectBP {
					if res.CommittedBranches == 0 {
						t.Error("no branches committed: the perfect-predictor check is vacuous")
					}
					if res.MispredDetected != 0 || res.MispredResolved != 0 || res.MispredictByKind != [7]uint64{} {
						t.Errorf("perfect predictor mispredicted: detected %d, resolved %d, by kind %v",
							res.MispredDetected, res.MispredResolved, res.MispredictByKind)
					}
					if res.WrongPathFetched != 0 || res.WPBlocksEntered != 0 {
						t.Errorf("perfect predictor fetched %d wrong-path records in %d blocks",
							res.WrongPathFetched, res.WPBlocksEntered)
					}
				}
				for side, m := range map[string]cache.Model{"I": cfg.ICache, "D": cfg.DCache} {
					if _, ok := m.(*cache.Perfect); !ok {
						continue
					}
					st := res.ICache
					if side == "D" {
						st = res.DCache
					}
					if st.Accesses() == 0 || st.Misses() != 0 {
						t.Errorf("perfect %s-cache: %d accesses, %d misses; want some accesses and no misses",
							side, st.Accesses(), st.Misses())
					}
				}
			})
		}
	}
}
