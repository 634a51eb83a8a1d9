package core

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/bpred"
	"repro/internal/cache"
	"repro/internal/isa"
	"repro/internal/sched"
	"repro/internal/trace"
)

// alu returns an O record dst = s1 op s2.
func alu(dst, s1, s2 isa.Reg) trace.Record {
	return trace.Record{Kind: trace.KindOther, Class: trace.OpALU, Dest: dst, Src1: s1, Src2: s2}
}

func mul(dst, s1, s2 isa.Reg) trace.Record {
	return trace.Record{Kind: trace.KindOther, Class: trace.OpMul, Dest: dst, Src1: s1, Src2: s2}
}

func div(dst, s1, s2 isa.Reg) trace.Record {
	return trace.Record{Kind: trace.KindOther, Class: trace.OpDiv, Dest: dst, Src1: s1, Src2: s2}
}

func load(dst, base isa.Reg, addr uint32) trace.Record {
	return trace.Record{Kind: trace.KindMem, Dest: dst, Src1: base, Src2: isa.NoReg, Addr: addr}
}

func store(data, base isa.Reg, addr uint32) trace.Record {
	return trace.Record{Kind: trace.KindMem, Store: true, Dest: isa.NoReg, Src1: base, Src2: data, Addr: addr}
}

func branch(taken bool, target uint32) trace.Record {
	return trace.Record{Kind: trace.KindBranch, Ctrl: isa.CtrlCond, Taken: taken, Target: target,
		Dest: isa.NoReg, Src1: 1, Src2: isa.NoReg}
}

// indep returns n independent single-cycle ALU records.
func indep(n int) []trace.Record {
	recs := make([]trace.Record, n)
	for i := range recs {
		recs[i] = alu(isa.Reg(2+i%8), isa.NoReg, isa.NoReg)
	}
	return recs
}

// run executes the records through a fresh engine and fails the test on
// error.
func run(t *testing.T, cfg Config, recs []trace.Record) Result {
	t.Helper()
	eng, err := New(cfg, trace.NewSliceSource(recs), 0x1000)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run()
	if err != nil {
		t.Fatalf("run: %v\n%s", err, res.Registry())
	}
	return res
}

func perfectCfg() Config {
	cfg := DefaultConfig()
	cfg.PerfectBP = true
	return cfg
}

func TestSingleInstructionLatency(t *testing.T) {
	// Fetch@0, dispatch@1, issue@2, writeback@3, commit@4: five cycles.
	res := run(t, perfectCfg(), indep(1))
	if res.Committed != 1 {
		t.Fatalf("committed = %d", res.Committed)
	}
	if res.Cycles != 5 {
		t.Errorf("cycles = %d, want 5 (f/d/i/wb/c)", res.Cycles)
	}
}

func TestDependentChainThroughput(t *testing.T) {
	// r2 <- r2 chain: each op issues the cycle after its producer's
	// writeback; latency-1 chain retires one per cycle in steady state.
	const k = 20
	recs := make([]trace.Record, k)
	for i := range recs {
		recs[i] = alu(2, 2, isa.NoReg)
	}
	res := run(t, perfectCfg(), recs)
	if res.Committed != k {
		t.Fatalf("committed = %d", res.Committed)
	}
	if want := uint64(5 + k - 1); res.Cycles != want {
		t.Errorf("chain of %d: cycles = %d, want %d", k, res.Cycles, want)
	}
}

func TestMulDivChainLatencies(t *testing.T) {
	// mul (3 cycles) then dependent div (10 cycles), then dependent alu.
	recs := []trace.Record{
		mul(2, isa.NoReg, isa.NoReg),
		div(3, 2, isa.NoReg),
		alu(4, 3, isa.NoReg),
	}
	res := run(t, perfectCfg(), recs)
	// mul: f0 d1 i2 wb5; div: i5 wb15; alu: i15 wb16 c17 -> 18 cycles.
	if res.Cycles != 18 {
		t.Errorf("cycles = %d, want 18", res.Cycles)
	}
}

func TestIndependentALUThroughput(t *testing.T) {
	// Width-4 engine with 4 ALUs sustains ~4 IPC on independent ops.
	res := run(t, perfectCfg(), indep(400))
	if ipc := res.IPC(); ipc < 3.0 {
		t.Errorf("IPC = %.2f, want near 4", ipc)
	}
}

func TestWidthLimitsThroughput(t *testing.T) {
	cfg := perfectCfg()
	cfg.Width = 2
	cfg.Organization = sched.OrgImproved
	cfg.MemReadPorts = 1
	res := run(t, cfg, indep(400))
	if ipc := res.IPC(); ipc > 2.0 || ipc < 1.5 {
		t.Errorf("2-wide IPC = %.2f, want (1.5, 2.0]", ipc)
	}
}

func TestDivContentionSerializes(t *testing.T) {
	// One unpipelined divider: independent divs retire one per 10 cycles.
	const k = 8
	recs := make([]trace.Record, k)
	for i := range recs {
		recs[i] = div(isa.Reg(2+i), isa.NoReg, isa.NoReg)
	}
	res := run(t, perfectCfg(), recs)
	if res.Cycles < 10*(k-1) {
		t.Errorf("cycles = %d, want >= %d (divider serialization)", res.Cycles, 10*(k-1))
	}
}

func TestStoreLoadForwarding(t *testing.T) {
	// A load from the address of an in-flight store forwards from the LSQ
	// and uses no read port.
	recs := []trace.Record{
		store(2, isa.NoReg, 0x2000),
		load(3, isa.NoReg, 0x2000),
	}
	res := run(t, perfectCfg(), recs)
	if res.LoadsForwarded != 1 {
		t.Errorf("forwarded = %d, want 1", res.LoadsForwarded)
	}
	if res.DCache.Reads != 0 {
		t.Errorf("forwarded load still read the D-cache (%d reads)", res.DCache.Reads)
	}
	if res.CommittedLoads != 1 || res.CommittedStores != 1 {
		t.Errorf("commit counts: %d loads, %d stores", res.CommittedLoads, res.CommittedStores)
	}
}

func sizedMem(store bool, size uint8, addr uint32) trace.Record {
	r := trace.Record{Kind: trace.KindMem, Store: store, Size: size, Addr: addr,
		Dest: isa.NoReg, Src1: isa.NoReg, Src2: isa.NoReg}
	if store {
		r.Src2 = 2
	} else {
		r.Dest = 3
	}
	return r
}

func TestPartialOverlapBlocksForwarding(t *testing.T) {
	// A byte store inside the word a younger load reads: the store cannot
	// provide all four bytes, so the load must wait for the store to leave
	// the LSQ (commit) instead of forwarding.
	partial := []trace.Record{
		sizedMem(true, 1, 0x2001),  // sb touching byte 1
		sizedMem(false, 4, 0x2000), // lw over bytes 0..3
	}
	resPartial := run(t, perfectCfg(), partial)
	if resPartial.LoadsForwarded != 0 {
		t.Errorf("partially covered load forwarded (%d)", resPartial.LoadsForwarded)
	}
	if resPartial.DCache.Reads != 1 {
		t.Errorf("load should read memory after the store commits: %d reads", resPartial.DCache.Reads)
	}

	// Full coverage forwards: word store, byte load inside it.
	covered := []trace.Record{
		sizedMem(true, 4, 0x2000),
		sizedMem(false, 1, 0x2002),
	}
	resCovered := run(t, perfectCfg(), covered)
	if resCovered.LoadsForwarded != 1 {
		t.Errorf("covered byte load did not forward (%d)", resCovered.LoadsForwarded)
	}
	// The blocked case takes longer than the forwarded one.
	if resPartial.Cycles <= resCovered.Cycles {
		t.Errorf("partial overlap (%d cycles) not slower than forwarding (%d)",
			resPartial.Cycles, resCovered.Cycles)
	}
}

func TestDisjointSubWordAccessesIndependent(t *testing.T) {
	// A byte store at 0x2000 and a byte load at 0x2001 share a word but
	// not a byte: no dependence, the load proceeds immediately.
	recs := []trace.Record{
		sizedMem(true, 1, 0x2000),
		sizedMem(false, 1, 0x2001),
	}
	res := run(t, perfectCfg(), recs)
	if res.LoadsForwarded != 0 {
		t.Error("disjoint byte access forwarded")
	}
	if res.Cycles > 8 {
		t.Errorf("disjoint byte load delayed: %d cycles", res.Cycles)
	}
}

func TestLoadBlockedByUnknownStoreAddress(t *testing.T) {
	// The store's base register comes from a divide, so its address stays
	// unknown for ~10 cycles; the younger load (different address) must
	// wait for disambiguation (conservative Lsq_refresh).
	recs := []trace.Record{
		div(2, isa.NoReg, isa.NoReg), // r2 <- div (10 cycles)
		store(3, 2, 0x3000),          // address depends on r2
		load(4, isa.NoReg, 0x4000),   // independent address, still blocked
	}
	res := run(t, perfectCfg(), recs)
	// Without blocking, the load would commit by ~cycle 6; with the
	// conservative dependence it waits for the divide + store agen.
	if res.Cycles < 16 {
		t.Errorf("cycles = %d, want >= 16 (load waited on disambiguation)", res.Cycles)
	}
}

func TestLoadIndependenceAfterDisambiguation(t *testing.T) {
	// A known-address store does not delay an unrelated load.
	recs := []trace.Record{
		store(2, isa.NoReg, 0x3000),
		load(4, isa.NoReg, 0x4000),
		alu(5, 4, isa.NoReg),
	}
	res := run(t, perfectCfg(), recs)
	if res.Cycles > 12 {
		t.Errorf("cycles = %d; unrelated load was delayed", res.Cycles)
	}
}

func TestTakenBranchFetchBubble(t *testing.T) {
	// With perfect BP, each taken branch still ends the fetch cycle
	// ("fetching ... until a control flow bubble is encountered").
	var recs []trace.Record
	const k = 40
	for i := 0; i < k; i++ {
		recs = append(recs, branch(true, uint32(0x2000+16*i)))
	}
	res := run(t, perfectCfg(), recs)
	// One branch fetched per cycle at best: cycles >= k.
	if res.Cycles < k {
		t.Errorf("cycles = %d, want >= %d (taken-branch bubbles)", res.Cycles, k)
	}
	if res.CommittedBranches != k {
		t.Errorf("branches = %d", res.CommittedBranches)
	}
}

func TestNotTakenBranchesDoNotBubble(t *testing.T) {
	var recs []trace.Record
	for i := 0; i < 100; i++ {
		recs = append(recs, branch(false, 0x9000))
	}
	cfg := perfectCfg()
	res := run(t, cfg, recs)
	if ipc := res.IPC(); ipc < 2.5 {
		t.Errorf("not-taken branch IPC = %.2f, want near 4", ipc)
	}
}

// mispredictTrace builds: one taken branch (always mispredicted by a
// not-taken predictor) followed by a tagged wrong-path block of wpLen ALU
// records, then tail correct-path records.
func mispredictTrace(wpLen, tail int) []trace.Record {
	recs := []trace.Record{branch(true, 0x2000)}
	for i := 0; i < wpLen; i++ {
		r := alu(3, isa.NoReg, isa.NoReg)
		r.Tag = true
		recs = append(recs, r)
	}
	recs = append(recs, indep(tail)...)
	return recs
}

func notTakenCfg() Config {
	cfg := DefaultConfig()
	cfg.Predictor = bpred.Config{Dir: bpred.DirNotTaken, BTBEntries: 512, BTBAssoc: 1, RASSize: 16}
	return cfg
}

func TestMispredictionWithWrongPathBlock(t *testing.T) {
	res := run(t, notTakenCfg(), mispredictTrace(12, 20))
	if res.MispredDetected != 1 || res.MispredResolved != 1 {
		t.Fatalf("mispredicts detected/resolved = %d/%d, want 1/1\n%s",
			res.MispredDetected, res.MispredResolved, res.Registry())
	}
	if res.WPBlocksEntered != 1 {
		t.Errorf("blocks entered = %d, want 1", res.WPBlocksEntered)
	}
	if res.WrongPathFetched == 0 {
		t.Error("no wrong-path instructions fetched")
	}
	if res.WrongPathFetched+res.WPRecordsDiscarded != 12 {
		t.Errorf("fetched+discarded = %d+%d, want 12",
			res.WrongPathFetched, res.WPRecordsDiscarded)
	}
	// Only correct-path instructions commit: 1 branch + 20 tail.
	if res.Committed != 21 {
		t.Errorf("committed = %d, want 21", res.Committed)
	}
	if res.CommittedBranches != 1 {
		t.Errorf("branches = %d, want 1", res.CommittedBranches)
	}
}

func TestMispredictionPenaltyTiming(t *testing.T) {
	// Branch alone: f0 d1 i2 wb3, recovery at commit (cycle 4) sets fetch
	// to resume at 4+1+penalty = 8; EOF is discovered there, so the run
	// takes 9 cycles (0..8).
	base := run(t, notTakenCfg(), mispredictTrace(0, 0))
	if base.Cycles != 9 {
		t.Errorf("base cycles = %d, want 9", base.Cycles)
	}
	if base.MispredStarved != 1 {
		t.Errorf("starved = %d, want 1 (no wrong-path block)", base.MispredStarved)
	}
	// With one tail instruction: fetched at 8 after the 3-cycle penalty,
	// then dispatch 9, issue 10, writeback 11, commit 12 -> 13 cycles.
	withTail := run(t, notTakenCfg(), mispredictTrace(0, 1))
	if withTail.Cycles != 13 {
		t.Errorf("tail cycles = %d, want 13", withTail.Cycles)
	}
}

func TestCorrectPredictionSkipsForeignBlock(t *testing.T) {
	// A taken-predicting engine gets the branch right; the tagged block in
	// the trace must be discarded unfetched.
	cfg := DefaultConfig()
	cfg.Predictor = bpred.Config{Dir: bpred.DirTaken, BTBEntries: 512, BTBAssoc: 1, RASSize: 16}
	res := run(t, cfg, mispredictTrace(12, 20))
	if res.MispredDetected != 0 {
		t.Errorf("mispredicts = %d, want 0", res.MispredDetected)
	}
	if res.WPBlocksSkipped != 1 || res.WPRecordsDiscarded != 12 {
		t.Errorf("skipped blocks/records = %d/%d, want 1/12",
			res.WPBlocksSkipped, res.WPRecordsDiscarded)
	}
	if res.WrongPathFetched != 0 {
		t.Errorf("wrong-path fetched = %d, want 0", res.WrongPathFetched)
	}
	if res.Committed != 21 {
		t.Errorf("committed = %d, want 21", res.Committed)
	}
}

func TestPerfectBPSkipsBlocks(t *testing.T) {
	res := run(t, perfectCfg(), mispredictTrace(8, 10))
	if res.WrongPathFetched != 0 || res.MispredResolved != 0 {
		t.Errorf("perfect BP fetched %d wrong-path, resolved %d", res.WrongPathFetched, res.MispredResolved)
	}
	if res.Committed != 11 {
		t.Errorf("committed = %d, want 11", res.Committed)
	}
}

func TestMisfetchOnAliasedBTB(t *testing.T) {
	// Two direct jumps whose PCs share a BTB set and partial tag: the
	// first trains the BTB; the second falsely hits and misfetches.
	cfg := DefaultConfig()
	cfg.Predictor.BTBTagBits = 2
	// 0x1000 and 0x3000 alias with 9 index bits + 2 tag bits (distance
	// 2^13 bytes). PC flow: jump@0x1000 trains the BTB, fillers at 0x2000
	// give it time to commit, jump@0x2078 lands exactly on the aliasing
	// PC 0x3000, whose jump then false-hits with target 0x2000.
	var recs []trace.Record
	recs = append(recs, trace.Record{Kind: trace.KindBranch, Ctrl: isa.CtrlJump, Taken: true,
		Target: 0x2000, Dest: isa.NoReg, Src1: isa.NoReg, Src2: isa.NoReg}) // @0x1000, trains BTB
	recs = append(recs, indep(30)...) // fillers @0x2000.. keep the jump far enough to commit
	recs = append(recs, trace.Record{Kind: trace.KindBranch, Ctrl: isa.CtrlJump, Taken: true,
		Target: 0x3000, Dest: isa.NoReg, Src1: isa.NoReg, Src2: isa.NoReg}) // @0x2078 -> 0x3000
	recs = append(recs, trace.Record{Kind: trace.KindBranch, Ctrl: isa.CtrlJump, Taken: true,
		Target: 0x6000, Dest: isa.NoReg, Src1: isa.NoReg, Src2: isa.NoReg}) // @0x3000: aliases 0x1000, BTB says 0x2000 -> misfetch
	recs = append(recs, indep(4)...) // @0x6000

	res := run(t, cfg, recs)
	if res.Misfetches != 1 {
		t.Errorf("misfetches = %d, want 1\n%s", res.Misfetches, res.Registry())
	}
	if res.MispredResolved != 0 {
		t.Errorf("misfetch escalated to misprediction (%d)", res.MispredResolved)
	}
	if res.Committed != uint64(len(recs)) {
		t.Errorf("committed = %d, want %d", res.Committed, len(recs))
	}
}

func TestOrganizationTimingEquivalence(t *testing.T) {
	// §IV: the three internal organizations simulate identical processor
	// timing (with <= N-1 memory ports); they differ only in ReSim's own
	// minor-cycle count.
	recs := randomTrace(4000, 7)
	var cycles [3]uint64
	for i, org := range []sched.Organization{sched.OrgSimple, sched.OrgImproved, sched.OrgOptimized} {
		cfg := DefaultConfig()
		cfg.Organization = org
		cfg.MemReadPorts = 2 // <= N-1 for width 4
		res := run(t, cfg, recs)
		cycles[i] = res.Cycles
		if res.Committed == 0 {
			t.Fatalf("%v committed nothing", org)
		}
	}
	if cycles[0] != cycles[1] || cycles[1] != cycles[2] {
		t.Errorf("organizations disagree on simulated cycles: simple=%d improved=%d optimized=%d",
			cycles[0], cycles[1], cycles[2])
	}
}

func TestDeterminism(t *testing.T) {
	recs := randomTrace(3000, 11)
	a := run(t, DefaultConfig(), recs)
	b := run(t, DefaultConfig(), recs)
	if a.Counters != b.Counters {
		t.Errorf("two runs disagree:\n%+v\n%+v", a.Counters, b.Counters)
	}
}

func TestCacheConfigSlowsSimulation(t *testing.T) {
	recs := randomTrace(3000, 13)
	fast := run(t, perfectCfg(), recs)

	cfg := perfectCfg()
	cfg.ICache = cache.Side{L1: cache.Config{Name: "il1", SizeBytes: 1 << 10, Assoc: 2,
		BlockBytes: 64, HitLatency: 1, MissLatency: 20}}
	cfg.DCache = cache.Side{L1: cache.Config{Name: "dl1", SizeBytes: 1 << 10, Assoc: 2,
		BlockBytes: 64, HitLatency: 1, MissLatency: 20}}
	slow := run(t, cfg, recs)
	if slow.Cycles <= fast.Cycles {
		t.Errorf("tiny caches did not slow simulation: %d <= %d", slow.Cycles, fast.Cycles)
	}
	if slow.DCache.Misses() == 0 {
		t.Error("no D-cache misses recorded")
	}
}

func TestMaxCyclesCapsRun(t *testing.T) {
	cfg := perfectCfg()
	cfg.MaxCycles = 10
	eng, err := New(cfg, trace.NewSliceSource(indep(100000)), 0x1000)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles != 10 {
		t.Errorf("cycles = %d, want 10", res.Cycles)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := DefaultConfig()
	bad.Width = 0
	if _, err := New(bad, trace.NewSliceSource(nil), 0); err == nil {
		t.Error("width 0 accepted")
	}
	// Optimized organization requires <= N-1 memory read ports.
	bad = DefaultConfig()
	bad.MemReadPorts = 4
	if err := bad.Validate(); err == nil {
		t.Error("optimized organization with N read ports accepted")
	}
	ok := bad
	ok.Organization = sched.OrgImproved
	if err := ok.Validate(); err != nil {
		t.Errorf("improved organization with N read ports rejected: %v", err)
	}
	if DefaultConfig().WrongPathLen() != 20 {
		t.Errorf("WrongPathLen = %d, want RB+IFQ = 20", DefaultConfig().WrongPathLen())
	}
	if DefaultConfig().MinorCyclesPerMajor() != 7 {
		t.Errorf("K = %d, want 7", DefaultConfig().MinorCyclesPerMajor())
	}
	if FASTComparisonConfig().MinorCyclesPerMajor() != 6 {
		t.Errorf("FAST config K = %d, want 6", FASTComparisonConfig().MinorCyclesPerMajor())
	}
	if err := FASTComparisonConfig().Validate(); err != nil {
		t.Errorf("FAST config invalid: %v", err)
	}
}

func TestResultReportMentionsKeyStats(t *testing.T) {
	res := run(t, notTakenCfg(), mispredictTrace(8, 30))
	rep := res.Registry().String()
	for _, want := range []string{"sim_num_insn", "sim_IPC", "bpred_mispred_resolved", "RB_occ_avg"} {
		if !strings.Contains(rep, want) {
			t.Errorf("report missing %q", want)
		}
	}
}

func TestOccupancyTracked(t *testing.T) {
	res := run(t, perfectCfg(), indep(500))
	if res.RB.Mean() <= 0 {
		t.Error("RB occupancy not sampled")
	}
	if res.RB.Mean() > float64(DefaultConfig().RBSize) {
		t.Error("RB occupancy exceeds capacity")
	}
}

// randomTrace generates a well-formed random trace: consistent branch
// flow, wrong-path blocks after a subset of taken branches, plausible mix.
func randomTrace(n int, seed int64) []trace.Record {
	rng := rand.New(rand.NewSource(seed))
	var recs []trace.Record
	reg := func() isa.Reg { return isa.Reg(1 + rng.Intn(20)) }
	for len(recs) < n {
		switch p := rng.Float64(); {
		case p < 0.50:
			recs = append(recs, alu(reg(), reg(), reg()))
		case p < 0.55:
			recs = append(recs, mul(reg(), reg(), reg()))
		case p < 0.57:
			recs = append(recs, div(reg(), reg(), reg()))
		case p < 0.75:
			recs = append(recs, load(reg(), reg(), uint32(rng.Intn(1<<16))&^3))
		case p < 0.85:
			recs = append(recs, store(reg(), reg(), uint32(rng.Intn(1<<16))&^3))
		default:
			taken := rng.Intn(3) > 0
			b := branch(taken, uint32(0x1000+4*rng.Intn(1<<12)))
			b.Src1 = reg()
			recs = append(recs, b)
			if taken && rng.Intn(4) == 0 {
				// Wrong-path block.
				for w, lim := 0, 4+rng.Intn(16); w < lim; w++ {
					r := alu(reg(), reg(), reg())
					r.Tag = true
					recs = append(recs, r)
				}
			}
		}
	}
	return recs
}
