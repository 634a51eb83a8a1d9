// Randomized engine-equivalence harness: the regression net under the
// event-aware engine refactor. Across dozens of seeded random
// configurations (width, queue sizes, FU mixes, predictor styles, cache
// hierarchies, organizations) and seeded synthetic workloads, the full
// Result — every counter, both cache stat blocks and all three occupancy
// accumulators — must stay byte-identical to golden fixtures captured from
// the pre-refactor scan-based engine. Regenerate deliberately with
//
//	go test ./internal/core -run TestRandomizedEquivalence -update-equiv
//
// but never as part of a change that intends to preserve statistics: the
// whole point of the file is that a silent statistics drift fails loudly.
package core_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/bpred"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/uarch"
	"repro/internal/workload"
)

var updateEquiv = flag.Bool("update-equiv", false, "rewrite testdata/equiv_golden.json from the current engine")

const equivGoldenPath = "testdata/equiv_golden.json"

// equivStartPC matches workload.StreamProfile's synthetic code base.
const equivStartPC = 0x0000_1000

// equivSnapshot is the byte-comparable projection of a core.Result: every
// statistic the engine accumulates, excluding only the Config echo (which
// is not a statistic).
type equivSnapshot struct {
	Counters core.Counters   `json:"counters"`
	ICache   cache.Stats     `json:"icache"`
	DCache   cache.Stats     `json:"dcache"`
	IFQ      stats.Occupancy `json:"ifq"`
	RB       stats.Occupancy `json:"rb"`
	LSQ      stats.Occupancy `json:"lsq"`
}

func snapshotOf(res core.Result) equivSnapshot {
	return equivSnapshot{
		Counters: res.Counters,
		ICache:   res.ICache, DCache: res.DCache,
		IFQ: res.IFQ, RB: res.RB, LSQ: res.LSQ,
	}
}

// equivCase is one (configuration, workload) pair. Record streams are
// pre-materialized so both the fixture generator and the verifier consume
// the identical input regardless of any trace-generation changes. mkcfg
// re-draws the case's Config on every call.
type equivCase struct {
	name  string
	mkcfg func() core.Config
	recs  []trace.Record
}

// equivCaseCount is the size of the randomized sweep. Changing it (or any
// generation code below) requires regenerating the fixtures.
const equivCaseCount = 50

func equivCases(t testing.TB) []equivCase {
	var cases []equivCase
	for i := 0; i < equivCaseCount; i++ {
		seed := 0xE0_0000 + int64(i)
		// Replayable: every mkcfg call re-draws the identical configuration
		// from the case seed.
		mkcfg := func() core.Config { return randomEquivConfig(rand.New(rand.NewSource(seed))) }
		rng := rand.New(rand.NewSource(seed))
		cfg := randomEquivConfig(rng) // advance rng past the config draws
		recs := randomEquivStream(t, rng, cfg, 0x51_0000+int64(i))
		cases = append(cases, equivCase{name: fmt.Sprintf("rand-%02d", i), mkcfg: mkcfg, recs: recs})
	}
	cases = append(cases, fastForwardCases(t)...)
	return cases
}

// randomEquivConfig draws a valid engine configuration covering the design
// space: widths 1-8, all three organizations, every predictor style, plain
// and hierarchical caches, mixed FU pools and penalties.
func randomEquivConfig(rng *rand.Rand) core.Config {
	cfg := core.DefaultConfig()
	cfg.Width = 1 + rng.Intn(8)
	cfg.IFQSize = 1 + rng.Intn(12)
	cfg.RBSize = 2 + rng.Intn(47)
	cfg.LSQSize = 2 + rng.Intn(23)

	var fus uarch.FUConfig
	fus[uarch.FUALU] = uarch.FUSpec{Count: 1 + rng.Intn(4), Latency: 1 + rng.Intn(2), Pipelined: true}
	fus[uarch.FUMult] = uarch.FUSpec{Count: 1 + rng.Intn(2), Latency: 2 + rng.Intn(3), Pipelined: rng.Intn(2) == 0}
	fus[uarch.FUDiv] = uarch.FUSpec{Count: 1, Latency: 4 + rng.Intn(9), Pipelined: false}
	cfg.FUs = fus

	cfg.MisfetchPenalty = rng.Intn(6)
	cfg.MispredPenalty = rng.Intn(9)
	orgs := []sched.Organization{sched.OrgSimple, sched.OrgImproved, sched.OrgOptimized}
	cfg.Organization = orgs[rng.Intn(len(orgs))]
	maxPorts := cfg.Organization.MaxMemPorts(cfg.Width)
	if maxPorts < 1 {
		// A width-1 Optimized machine has no load-capable slot at all;
		// fall back to the Improved organization, as the paper's tooling does.
		cfg.Organization = sched.OrgImproved
		maxPorts = cfg.Organization.MaxMemPorts(cfg.Width)
	}
	if maxPorts > 3 {
		maxPorts = 3
	}
	cfg.MemReadPorts = 1 + rng.Intn(maxPorts)
	cfg.MemWritePorts = 1 + rng.Intn(2)

	switch rng.Intn(5) {
	case 0:
		cfg.PerfectBP = true
	case 1:
		// Paper default two-level.
	case 2:
		p := bpred.Default()
		p.Dir = bpred.DirBimodal
		p.BimodSize = 1 << (6 + rng.Intn(4))
		cfg.Predictor = p
	case 3:
		p := bpred.Default()
		p.XORIndex = true
		p.BTBTagBits = 6 + rng.Intn(6)
		cfg.Predictor = p
	case 4:
		p := bpred.Default()
		p.Dir = bpred.DirCombined
		p.MetaSize = 1 << (6 + rng.Intn(4))
		p.BimodSize = 1 << (6 + rng.Intn(4))
		cfg.Predictor = p
	}

	smallCache := func(name string, rng *rand.Rand) cache.Config {
		block := 16 << rng.Intn(3) // 16/32/64
		assoc := 1 << rng.Intn(3)  // 1/2/4
		sets := 1 << (3 + rng.Intn(4))
		return cache.Config{
			Name: name, SizeBytes: sets * assoc * block, Assoc: assoc, BlockBytes: block,
			HitLatency: 1, MissLatency: 5 + rng.Intn(40),
		}
	}
	switch rng.Intn(4) {
	case 0:
		// Perfect memory (zero sides).
	case 1:
		cfg.ICache = cache.Side{Latency: 1 + rng.Intn(2)}
		cfg.DCache = cache.Side{Latency: 1 + rng.Intn(3)}
	case 2:
		cfg.ICache = cache.Side{L1: smallCache("il1", rng)}
		cfg.DCache = cache.Side{L1: smallCache("dl1", rng)}
	case 3:
		l2 := smallCache("l2", rng)
		l2.SizeBytes *= 8
		l2.MissLatency = 40 + rng.Intn(160)
		cfg.DCache = cache.Side{L1: smallCache("dl1", rng), L2: l2}
		cfg.ICache = cache.Side{L1: smallCache("il1", rng)}
	}

	if rng.Intn(5) == 0 {
		cfg.MaxCycles = uint64(1500 + rng.Intn(4000))
	}
	if err := cfg.Validate(); err != nil {
		panic(fmt.Sprintf("generated invalid config: %v", err))
	}
	return cfg
}

// randomEquivStream synthesizes the case's record stream with knobs drawn
// from rng; the stream itself is seeded separately so configuration and
// stimulus vary independently.
func randomEquivStream(t testing.TB, rng *rand.Rand, cfg core.Config, seed int64) []trace.Record {
	sp := workload.DefaultStreamProfile(seed)
	sp.MulFrac = rng.Float64() * 0.08
	sp.DivFrac = rng.Float64() * 0.03
	sp.LoadFrac = 0.05 + rng.Float64()*0.30
	sp.StoreFrac = 0.03 + rng.Float64()*0.20
	sp.BranchFrac = 0.05 + rng.Float64()*0.25
	sp.TakenProb = rng.Float64()
	sp.MispredProb = rng.Float64() * 0.25
	sp.WrongPathLen = rng.Intn(cfg.WrongPathLen() + 4)
	sp.DepWindow = 1 + rng.Intn(24)
	sp.MemRange = 1 << (10 + rng.Intn(8))
	recs, err := sp.Records(4000 + rng.Intn(4000))
	if err != nil {
		t.Fatalf("stream profile: %v", err)
	}
	return recs
}

// fastForwardCases are handcrafted idle-heavy scenarios: tiny fetch queues
// in front of long miss latencies, starved wrong-path fetch, and a
// MaxCycles budget expiring inside an idle region — the paths the
// idle-cycle fast-forward must take without disturbing a single counter.
func fastForwardCases(t testing.TB) []equivCase {
	var cases []equivCase
	tiny := func(name string, miss int) cache.Side {
		return cache.Side{L1: cache.Config{Name: name, SizeBytes: 512, Assoc: 1, BlockBytes: 32,
			HitLatency: 1, MissLatency: miss}}
	}
	stream := func(seed int64, mut func(*workload.StreamProfile)) []trace.Record {
		sp := workload.DefaultStreamProfile(seed)
		if mut != nil {
			mut(&sp)
		}
		recs, err := sp.Records(5000)
		if err != nil {
			t.Fatalf("stream profile: %v", err)
		}
		return recs
	}

	cases = append(cases, equivCase{name: "ff-icache-miss",
		mkcfg: func() core.Config {
			cfg := core.DefaultConfig()
			cfg.IFQSize = 1
			cfg.ICache = tiny("il1", 200)
			cfg.DCache = tiny("dl1", 300)
			return cfg
		},
		recs: stream(0xFF01, func(sp *workload.StreamProfile) { sp.CodeRange = 1 << 18 })})

	cases = append(cases, equivCase{name: "ff-starved-wrongpath",
		mkcfg: func() core.Config {
			cfg := core.DefaultConfig()
			cfg.MispredPenalty = 8
			return cfg
		},
		recs: stream(0xFF02, func(sp *workload.StreamProfile) {
			sp.MispredProb = 0.3
			sp.WrongPathLen = 0 // mispredicts with no tagged block: fetch starves
		})})

	cases = append(cases, equivCase{name: "ff-maxcycles-idle",
		mkcfg: func() core.Config {
			cfg := core.DefaultConfig()
			cfg.IFQSize = 2
			cfg.ICache = tiny("il1", 500)
			cfg.MaxCycles = 1234 // budget expires mid-idle-region
			return cfg
		},
		recs: stream(0xFF03, func(sp *workload.StreamProfile) { sp.CodeRange = 1 << 18 })})

	cases = append(cases, equivCase{name: "ff-dcache-drain",
		mkcfg: func() core.Config {
			cfg := core.DefaultConfig()
			cfg.IFQSize = 1
			cfg.DCache = tiny("dl1", 400)
			return cfg
		},
		recs: stream(0xFF04, func(sp *workload.StreamProfile) {
			sp.LoadFrac, sp.StoreFrac = 0.45, 0.15
			sp.MemRange = 1 << 20
		})})
	return cases
}

func runEquivCase(t *testing.T, c equivCase) equivSnapshot {
	t.Helper()
	eng, err := core.New(c.mkcfg(), trace.NewSliceSource(c.recs), equivStartPC)
	if err != nil {
		t.Fatalf("%s: build engine: %v", c.name, err)
	}
	res, err := eng.Run()
	if err != nil {
		t.Fatalf("%s: run: %v", c.name, err)
	}
	return snapshotOf(res)
}

// TestRandomizedEquivalence pins the refactored engine's complete statistics
// against pre-refactor golden fixtures, case by case, byte for byte. Each
// case additionally cross-checks Engine.Run (the event-aware fast path with
// idle-cycle fast-forward) against a manual per-Cycle drive of a second
// engine over the same stream: the two stepping disciplines must agree
// exactly, independent of the fixtures.
func TestRandomizedEquivalence(t *testing.T) {
	cases := equivCases(t)

	if *updateEquiv {
		golden := make(map[string]json.RawMessage, len(cases))
		for _, c := range cases {
			snap := runEquivCase(t, c)
			data, err := json.Marshal(snap)
			if err != nil {
				t.Fatal(err)
			}
			golden[c.name] = data
		}
		out, err := json.MarshalIndent(golden, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(equivGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(equivGoldenPath, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d cases to %s", len(golden), equivGoldenPath)
		return
	}

	raw, err := os.ReadFile(equivGoldenPath)
	if err != nil {
		t.Fatalf("read fixtures (regenerate with -update-equiv): %v", err)
	}
	var golden map[string]json.RawMessage
	if err := json.Unmarshal(raw, &golden); err != nil {
		t.Fatalf("parse fixtures: %v", err)
	}
	if len(golden) != len(cases) {
		t.Fatalf("fixtures hold %d cases, harness generates %d (regenerate with -update-equiv)", len(golden), len(cases))
	}

	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			want, ok := golden[c.name]
			if !ok {
				t.Fatalf("no fixture for %s (regenerate with -update-equiv)", c.name)
			}
			snap := runEquivCase(t, c)
			got, err := json.Marshal(snap)
			if err != nil {
				t.Fatal(err)
			}
			// MarshalIndent re-indented the stored RawMessage; compare compact.
			var wantBuf bytes.Buffer
			if err := json.Compact(&wantBuf, want); err != nil {
				t.Fatal(err)
			}
			want = wantBuf.Bytes()
			if !bytes.Equal(got, []byte(want)) {
				t.Errorf("statistics drifted from pre-refactor fixture\n got: %s\nwant: %s", got, want)
			}

			// Fast path (Run, with fast-forward) vs per-cycle stepping.
			cfg := c.mkcfg()
			eng, err := core.New(cfg, trace.NewSliceSource(c.recs), equivStartPC)
			if err != nil {
				t.Fatal(err)
			}
			var cycles uint64
			for !eng.Done() && !(cfg.MaxCycles != 0 && cycles >= cfg.MaxCycles) {
				if err := eng.Cycle(); err != nil {
					t.Fatalf("cycle %d: %v", cycles, err)
				}
				cycles++
			}
			stepped, err := json.Marshal(snapshotOf(eng.Result()))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, stepped) {
				t.Errorf("Run and per-Cycle stepping disagree\n  run: %s\n step: %s", got, stepped)
			}
		})
	}
}
