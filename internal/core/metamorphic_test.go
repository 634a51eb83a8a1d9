package core_test

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/funcsim"
	"repro/internal/sched"
	"repro/internal/stats"
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
		c.ICache, c.DCache = cache.Side{}, cache.Side{}
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
				for side, m := range map[string]cache.Side{"I": cfg.ICache, "D": cfg.DCache} {
					if !m.Perfect() {
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

// TestOccupancyObeysLittlesLaw checks Little's law exactly, per structure:
// the engine samples each occupancy once per cycle after fetch, so an
// instruction resident from cycle a up to (not including) cycle b adds b−a
// to its structure's occupancy sum. The IFQ holds an instruction from fetch
// to dispatch (or to a squash in the IFQ), the reorder buffer from dispatch
// to commit or squash, and the LSQ the same span for memory instructions.
// A PipeTracer gives the spans; the sums must equal the engine's
// accumulators, read exactly through Occupancy's JSON "sum" field. The run
// goes through RunHooks, so the idle fast-forward's bulk samples are held
// to the same account.
func TestOccupancyObeysLittlesLaw(t *testing.T) {
	const limit = 20_000
	predicted := func() core.Config {
		c := core.FASTComparisonConfig()
		c.PerfectBP = false
		return c
	}
	configs := []struct {
		name string
		cfg  func() core.Config
	}{
		{"fast", core.FASTComparisonConfig},
		{"fast-predicted", predicted},
	}
	for _, p := range workload.Profiles() {
		for _, tc := range configs {
			t.Run(fmt.Sprintf("%s/%s", p.Name, tc.name), func(t *testing.T) {
				cfg := tc.cfg()
				recs := ckptRecords(t, p.Name, cfg, limit)
				eng, err := core.New(cfg, trace.NewSliceSource(recs), funcsim.CodeBase)
				if err != nil {
					t.Fatal(err)
				}
				tr := &residencyTracer{insts: map[int64]*residency{}}
				res, err := eng.RunHooks(context.Background(), core.Hooks{PipeTracer: tr})
				if err != nil {
					t.Fatal(err)
				}
				var ifq, rb, lsq uint64
				for seq, in := range tr.insts {
					if in.leave < 0 {
						t.Fatalf("seq %d never committed or squashed", seq)
					}
					if in.dispatch < 0 {
						ifq += uint64(in.leave - in.fetch)
						continue
					}
					ifq += uint64(in.dispatch - in.fetch)
					rb += uint64(in.leave - in.dispatch)
					if in.mem {
						lsq += uint64(in.leave - in.dispatch)
					}
				}
				for _, c := range []struct {
					name string
					occ  stats.Occupancy
					want uint64
				}{{"IFQ", res.IFQ, ifq}, {"RB", res.RB, rb}, {"LSQ", res.LSQ, lsq}} {
					if got := occupancySum(t, c.occ); got != c.want {
						t.Errorf("%s occupancy sum %d, residencies sum to %d", c.name, got, c.want)
					}
				}
				if rb == 0 || lsq == 0 {
					t.Errorf("RB sum %d, LSQ sum %d: the check is vacuous", rb, lsq)
				}
			})
		}
	}
}

// residency is one instruction's stay in the pipeline: the cycles it was
// fetched, dispatched (−1 if never) and committed or squashed (−1 until
// then).
type residency struct {
	mem                    bool
	fetch, dispatch, leave int64
}

// residencyTracer is a PipeTracer recording every instruction's residency.
type residencyTracer struct{ insts map[int64]*residency }

func (r *residencyTracer) Fetched(seq, cycle int64, _ uint32, desc string, _ bool) {
	r.insts[seq] = &residency{mem: strings.HasPrefix(desc, "M{"), fetch: cycle, dispatch: -1, leave: -1}
}

func (r *residencyTracer) Stage(seq, cycle int64, stage string) {
	switch stage {
	case "dispatch":
		r.insts[seq].dispatch = cycle
	case "commit", "squash":
		r.insts[seq].leave = cycle
	}
}

// occupancySum returns o's accumulated sum, which only its JSON form
// exposes.
func occupancySum(t *testing.T, o stats.Occupancy) uint64 {
	t.Helper()
	data, err := json.Marshal(o)
	if err != nil {
		t.Fatal(err)
	}
	var v struct{ Sum uint64 }
	if err := json.Unmarshal(data, &v); err != nil {
		t.Fatal(err)
	}
	return v.Sum
}
