package core

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/bpred"
	"repro/internal/cache"
	"repro/internal/funcsim"
	"repro/internal/isa"
	"repro/internal/sched"
	"repro/internal/trace"
	"repro/internal/workload"
)

func TestWritebackBandwidthLimited(t *testing.T) {
	// Eight independent single-cycle ops on a width-2 machine: at most two
	// writebacks per cycle, so completion spreads over >= 4 cycles even
	// though ALUs could finish faster.
	cfg := perfectCfg()
	cfg.Width = 2
	cfg.Organization = sched.OrgImproved
	cfg.MemReadPorts = 1
	res := run(t, cfg, indep(8))
	// width-2: fetch 2/cycle from cycle 0, dispatch trails, issue 2/cycle,
	// commit 2/cycle: 8 instructions need >= 4 commit cycles; total must
	// exceed the single-instruction latency by at least 3.
	if res.Cycles < 8 {
		t.Errorf("cycles = %d, want >= 8 for 8 ops at width 2", res.Cycles)
	}
}

func TestCommitStorePortContention(t *testing.T) {
	// Independent stores with one write port commit at most one per cycle.
	const k = 12
	recs := make([]trace.Record, k)
	for i := range recs {
		recs[i] = store(isa.Reg(2), isa.NoReg, uint32(0x1000+16*i))
	}
	res := run(t, perfectCfg(), recs)
	if res.CommittedStores != k {
		t.Fatalf("stores = %d", res.CommittedStores)
	}
	if res.Cycles < k {
		t.Errorf("cycles = %d, want >= %d (one store commit per cycle)", res.Cycles, k)
	}
	if res.StorePortStalls == 0 {
		t.Error("no store port stalls recorded despite contention")
	}
}

func TestIFQBackpressure(t *testing.T) {
	// A divide chain blocks commit; the RB fills, then dispatch stalls,
	// then the IFQ fills and fetch stops. All backpressure counters move.
	var recs []trace.Record
	for i := 0; i < 6; i++ {
		recs = append(recs, div(2, 2, isa.NoReg)) // dependent divides
	}
	recs = append(recs, indep(40)...)
	res := run(t, perfectCfg(), recs)
	if res.RBFullStalls == 0 {
		t.Error("RB never filled behind the divide chain")
	}
	if res.RB.FullFrac() == 0 {
		t.Error("RB occupancy never sampled full")
	}
}

func TestLSQFullStalls(t *testing.T) {
	// More in-flight memory ops than LSQ entries, blocked behind a divide
	// producing every base register: dispatch must stall on LSQ space.
	var recs []trace.Record
	recs = append(recs, div(2, isa.NoReg, isa.NoReg))
	for i := 0; i < 12; i++ {
		recs = append(recs, load(isa.Reg(3+i%8), 2, uint32(0x2000+4*i)))
	}
	res := run(t, perfectCfg(), recs)
	if res.LSQFullStalls == 0 {
		t.Errorf("LSQ never filled: %+v", res.Counters)
	}
}

func TestICacheMissStallsFetch(t *testing.T) {
	cfg := perfectCfg()
	cfg.ICache = cache.Side{L1: cache.Config{Name: "il1", SizeBytes: 512, Assoc: 1,
		BlockBytes: 64, HitLatency: 1, MissLatency: 15}}
	res := run(t, cfg, indep(32))
	if res.ICache.Misses() == 0 {
		t.Fatal("no I-cache misses")
	}
	if res.FetchIdle == 0 {
		t.Error("I-cache misses did not idle fetch")
	}
	// The cold miss adds ~15 cycles against the perfect-memory baseline.
	base := run(t, perfectCfg(), indep(32))
	if res.Cycles <= base.Cycles {
		t.Errorf("I-cache misses did not slow simulation: %d <= %d", res.Cycles, base.Cycles)
	}
}

func TestCallReturnThroughFullStack(t *testing.T) {
	// Generate a call-heavy program through funcsim and verify the engine's
	// RAS predicts the returns: with matched tracegen/engine predictors
	// there must be no return mispredictions after warmup.
	p := workload.Profile{
		Name: "calls", Seed: 1, Calls: 50, CallDepth: 4,
		Arith: 10, Chains: 2, ArrayBytes: 4096,
	}
	cfg := DefaultConfig()
	src, err := p.NewSource(funcsim.TraceConfig{
		Predictor: cfg.Predictor, WrongPathLen: cfg.WrongPathLen(),
	}, 30000)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(cfg, src, funcsim.CodeBase)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.CommittedBranches == 0 {
		t.Fatal("no branches committed")
	}
	// Call/return pairs dominate; the RAS should keep the mispredict rate
	// very low (only cold-start conditional mispredicts remain).
	if rate := res.MispredictRate(); rate > 0.05 {
		t.Errorf("mispredict rate %.3f too high for call/return code", rate)
	}
	// Per-class branch detail (§V.B): calls and returns were committed in
	// equal numbers, returns never mispredicted, and the RAS was popped
	// once per return.
	if res.BranchesByKind[isa.CtrlCall] == 0 {
		t.Fatal("no calls recorded")
	}
	// The instruction limit can cut mid-call-chain, so calls may lead
	// returns by up to the call depth.
	calls, rets := res.BranchesByKind[isa.CtrlCall], res.BranchesByKind[isa.CtrlRet]
	if calls < rets || calls > rets+4 {
		t.Errorf("calls %d vs returns %d out of balance", calls, rets)
	}
	if res.MispredictByKind[isa.CtrlRet] != 0 {
		t.Errorf("returns mispredicted %d times despite matched RAS",
			res.MispredictByKind[isa.CtrlRet])
	}
	if res.RASPops == 0 || res.RASEmptyPops != 0 {
		t.Errorf("RAS pops = %d, empty pops = %d", res.RASPops, res.RASEmptyPops)
	}
	if res.TakenBranches == 0 {
		t.Error("no taken branches counted")
	}
}

func TestIndirectJumpMispredictsViaBTB(t *testing.T) {
	// An indirect jump whose target changes every execution defeats the
	// BTB: expect roughly one misprediction per target change.
	var recs []trace.Record
	const rounds = 10
	pc := uint32(0x1000)
	for i := 0; i < rounds; i++ {
		tgt := uint32(0x2000 + 0x100*i)
		recs = append(recs, trace.Record{Kind: trace.KindBranch, Ctrl: isa.CtrlIndirect,
			Taken: true, PC: pc, Target: tgt, Dest: isa.NoReg, Src1: 5, Src2: isa.NoReg})
		// A few fillers at the target let the branch commit before the next
		// indirect executes.
		for j := 0; j < 8; j++ {
			recs = append(recs, alu(isa.Reg(2+j%4), isa.NoReg, isa.NoReg))
		}
		pc = tgt + 8*4
	}
	res := run(t, DefaultConfig(), recs)
	if res.MispredResolved < rounds-1 {
		t.Errorf("indirect mispredicts = %d, want >= %d", res.MispredResolved, rounds-1)
	}
	// All starved (no wrong-path blocks in this hand-built trace).
	if res.MispredStarved != res.MispredDetected {
		t.Errorf("starved %d != detected %d", res.MispredStarved, res.MispredDetected)
	}
}

func TestStableIndirectTargetLearnedByBTB(t *testing.T) {
	// The same indirect jump always going to the same target is learned
	// after one miss.
	var recs []trace.Record
	for i := 0; i < 10; i++ {
		recs = append(recs, trace.Record{Kind: trace.KindBranch, Ctrl: isa.CtrlIndirect,
			Taken: true, PC: 0x1000, Target: 0x2000, Dest: isa.NoReg, Src1: 5, Src2: isa.NoReg})
		for j := 0; j < 8; j++ {
			recs = append(recs, alu(isa.Reg(2+j%4), isa.NoReg, isa.NoReg))
		}
	}
	res := run(t, DefaultConfig(), recs)
	if res.MispredResolved > 2 {
		t.Errorf("stable indirect target mispredicted %d times", res.MispredResolved)
	}
}

func TestWidthOneOptimizedRejected(t *testing.T) {
	// Optimized organization at width 1 leaves no issue slot for loads
	// (max memory ports = N-1 = 0); Validate must reject it.
	cfg := DefaultConfig()
	cfg.Width = 1
	cfg.MemReadPorts = 1
	if err := cfg.Validate(); err == nil {
		t.Error("width-1 optimized organization accepted")
	}
	// Width 1 works under the improved organization.
	cfg.Organization = sched.OrgImproved
	if err := cfg.Validate(); err != nil {
		t.Errorf("width-1 improved rejected: %v", err)
	}
	res := run(t, withImproved(cfg), indep(20))
	if res.Committed != 20 {
		t.Errorf("width-1 committed %d", res.Committed)
	}
	if ipc := res.IPC(); ipc > 1.0 {
		t.Errorf("width-1 IPC = %.2f > 1", ipc)
	}
}

func withImproved(cfg Config) Config {
	cfg.Organization = sched.OrgImproved
	return cfg
}

// TestResourceMonotonicity: growing the reorder buffer (all else equal)
// never increases simulated cycles on the same trace.
func TestResourceMonotonicity(t *testing.T) {
	recs := randomTrace(4000, 23)
	prev := uint64(1 << 62)
	for _, rb := range []int{4, 8, 16, 32} {
		cfg := perfectCfg() // perfect BP keeps predictor timing out of the property
		cfg.RBSize = rb
		res := run(t, cfg, recs)
		if res.Cycles > prev {
			t.Errorf("RB %d: cycles %d > smaller-RB cycles %d", rb, res.Cycles, prev)
		}
		prev = res.Cycles
	}
}

// TestWidthMonotonicity: a wider machine is never slower in simulated
// cycles (improved organization keeps the port configuration legal).
func TestWidthMonotonicity(t *testing.T) {
	recs := randomTrace(4000, 29)
	prev := uint64(1 << 62)
	for _, w := range []int{1, 2, 4, 8} {
		cfg := perfectCfg()
		cfg.Width = w
		cfg.Organization = sched.OrgImproved
		cfg.MemReadPorts = 1
		res := run(t, cfg, recs)
		if res.Cycles > prev {
			t.Errorf("width %d: cycles %d > narrower %d", w, res.Cycles, prev)
		}
		prev = res.Cycles
	}
}

// TestQuickEngineInvariants drives random traces through random legal
// configurations and checks structural invariants.
func TestQuickEngineInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for iter := 0; iter < 25; iter++ {
		cfg := DefaultConfig()
		cfg.Width = []int{2, 4, 8}[rng.Intn(3)]
		cfg.RBSize = []int{8, 16, 32}[rng.Intn(3)]
		cfg.LSQSize = []int{4, 8, 16}[rng.Intn(3)]
		cfg.IFQSize = []int{2, 4, 8}[rng.Intn(3)]
		cfg.MemReadPorts = 1 + rng.Intn(cfg.Width-1)
		if rng.Intn(2) == 0 {
			cfg.PerfectBP = true
		}
		if rng.Intn(3) == 0 {
			cfg.Organization = sched.OrgImproved
		}
		recs := randomTrace(1500, int64(100+iter))
		res := run(t, cfg, recs)

		var correct uint64
		for _, r := range recs {
			if !r.Tag {
				correct++
			}
		}
		// Every correct-path record commits exactly once.
		if res.Committed != correct {
			t.Fatalf("iter %d: committed %d, correct-path records %d (cfg %+v)",
				iter, res.Committed, correct, cfg)
		}
		// IPC can never exceed the machine width.
		if res.IPC() > float64(cfg.Width) {
			t.Fatalf("iter %d: IPC %.2f exceeds width %d", iter, res.IPC(), cfg.Width)
		}
		// Issued covers at least every committed instruction (wrong-path
		// instructions may add more).
		if res.Issued < res.Committed {
			t.Fatalf("iter %d: issued %d < committed %d", iter, res.Issued, res.Committed)
		}
		// Wrong-path accounting balances: every tagged record was fetched,
		// discarded, or left unread at EOF... fetched+discarded <= tagged.
		var tagged uint64
		for _, r := range recs {
			if r.Tag {
				tagged++
			}
		}
		if res.WrongPathFetched+res.WPRecordsDiscarded > tagged {
			t.Fatalf("iter %d: wrong-path accounting %d+%d exceeds %d tagged",
				iter, res.WrongPathFetched, res.WPRecordsDiscarded, tagged)
		}
	}
}

func TestTraceFileFeedsEngineIdentically(t *testing.T) {
	// Serializing the trace through the compressed container must not
	// change simulation results (codec transparency at the engine level).
	p, err := workload.ByName("vpr")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	tc := funcsim.TraceConfig{Predictor: cfg.Predictor, WrongPathLen: cfg.WrongPathLen()}
	src, err := p.NewSource(tc, 15000)
	if err != nil {
		t.Fatal(err)
	}
	var recs []trace.Record
	for {
		r, err := src.Next()
		if err != nil {
			break
		}
		recs = append(recs, r)
	}
	direct := run(t, cfg, recs)

	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf, trace.Header{StartPC: funcsim.CodeBase}, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	runFile := func(data []byte) (Result, error) {
		rd, err := trace.Open(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		eng, err := New(cfg, rd, funcsim.CodeBase)
		if err != nil {
			t.Fatal(err)
		}
		return eng.Run()
	}
	viaFile, err := runFile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if viaFile.Counters != direct.Counters {
		t.Errorf("compressed container changed results:\n%+v\n%+v",
			viaFile.Counters, direct.Counters)
	}
	// A cut container fails the run rather than simulating its prefix.
	if res, err := runFile(buf.Bytes()[:buf.Len()*9/10]); err == nil {
		t.Errorf("a container cut to 90%% ran to completion: %d of %d committed",
			res.Committed, direct.Committed)
	}
}

func TestMispredictRecoveryRestoresRename(t *testing.T) {
	// After recovery, instructions must not wait on squashed producers:
	// a wrong-path block writes r5; the post-recovery consumer of r5 must
	// see it architecturally ready and commit quickly.
	recs := []trace.Record{branch(true, 0x2000)}
	for i := 0; i < 6; i++ {
		r := alu(5, 5, isa.NoReg) // wrong-path chain writing r5
		r.Tag = true
		recs = append(recs, r)
	}
	recs = append(recs, alu(6, 5, isa.NoReg)) // correct path reads r5
	res := run(t, notTakenCfg(), recs)
	if res.Committed != 2 {
		t.Errorf("committed = %d, want 2", res.Committed)
	}
	// Bounded latency: branch resolves ~cycle 4, penalty 3, consumer then
	// flows through in ~5 more cycles.
	if res.Cycles > 16 {
		t.Errorf("cycles = %d; consumer stuck on squashed producer?", res.Cycles)
	}
}

func TestWrongPathLoadsPolluteDCache(t *testing.T) {
	// A mispredicted branch whose condition depends on a divide resolves
	// ~12 cycles after fetch; the wrong-path loads behind it have time to
	// issue and must access (and pollute) the D-cache, per the paper's
	// "model their effects in instruction processing, caches, etc".
	var recs []trace.Record
	recs = append(recs, div(2, isa.NoReg, isa.NoReg))
	b := branch(true, 0x2000)
	b.Src1 = 2 // resolution waits on the divide
	recs = append(recs, b)
	for i := 0; i < 6; i++ {
		ld := load(isa.Reg(3+i), isa.NoReg, uint32(0xA000+64*i))
		ld.Tag = true
		recs = append(recs, ld)
	}
	recs = append(recs, indep(4)...)

	cfg := notTakenCfg()
	cfg.DCache = cache.Side{L1: cache.Config{Name: "dl1", SizeBytes: 4 << 10, Assoc: 2,
		BlockBytes: 64, HitLatency: 1, MissLatency: 20}}
	res := run(t, cfg, recs)
	if res.WrongPathFetched == 0 {
		t.Fatal("no wrong path fetched")
	}
	// No correct-path loads exist, so every D-cache read is wrong-path
	// pollution.
	if res.CommittedLoads != 0 {
		t.Fatalf("unexpected correct-path loads: %d", res.CommittedLoads)
	}
	if res.DCache.Reads == 0 {
		t.Error("wrong-path loads never accessed the D-cache")
	}
	if res.DCache.Misses() == 0 {
		t.Error("wrong-path loads did not pollute the D-cache")
	}
}

func TestNoBPLookupsUnderPerfectPrediction(t *testing.T) {
	res := run(t, perfectCfg(), mispredictTrace(4, 10))
	if res.BPLookups != 0 {
		t.Errorf("perfect BP performed %d lookups", res.BPLookups)
	}
}

func TestBimodalEngineConfig(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Predictor = bpred.Config{Dir: bpred.DirBimodal, BimodSize: 2048,
		BTBEntries: 512, BTBAssoc: 1, RASSize: 16}
	res := run(t, cfg, randomTrace(2000, 37))
	if res.BPLookups == 0 {
		t.Error("bimodal predictor never consulted")
	}
}
