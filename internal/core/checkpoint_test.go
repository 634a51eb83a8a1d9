package core_test

import (
	"bytes"
	"context"
	"io"
	"os"
	"slices"
	"strings"
	"testing"

	"repro/internal/bpred"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/funcsim"
	"repro/internal/isa"
	"repro/internal/trace"
	"repro/internal/uarch"
	"repro/internal/workload"
)

// ckptRecords materializes a deterministic record stream for checkpoint
// tests (both the original and the resumed engine replay identical copies).
func ckptRecords(t testing.TB, name string, cfg core.Config, limit uint64) []trace.Record {
	t.Helper()
	p, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	src, err := p.NewSource(cfg.TraceConfig(), limit)
	if err != nil {
		t.Fatal(err)
	}
	var recs []trace.Record
	for {
		r, err := src.Next()
		if err == io.EOF {
			return recs
		}
		if err != nil {
			t.Fatal(err)
		}
		recs = append(recs, r)
	}
}

// resultsEqual compares two results bit for bit, including the rendered
// statistics registry (the "byte-identical stats" acceptance property).
func resultsEqual(t *testing.T, a, b core.Result, what string) {
	t.Helper()
	if a.Stats != b.Stats {
		t.Errorf("%s: statistics differ:\n%+v\n%+v", what, a.Stats, b.Stats)
	}
	if ra, rb := a.Registry().String(), b.Registry().String(); ra != rb {
		t.Errorf("%s: statistics reports differ:\n--- uninterrupted\n%s\n--- resumed\n%s", what, ra, rb)
	}
}

// statesEqual requires two engines' whole serialized states to be equal:
// predictor tables, every cache level's tags, queues and counters, beyond
// what a Result reports (a Result holds each cache level's counters, not
// its tags).
func statesEqual(t *testing.T, a, b *core.Engine, what string) {
	t.Helper()
	ea, err := a.Checkpoint().Encode()
	if err != nil {
		t.Fatal(err)
	}
	eb, err := b.Checkpoint().Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ea, eb) {
		t.Errorf("%s: final engine states differ (%d vs %d bytes)", what, len(ea), len(eb))
	}
}

// TestCheckpointResumeBitIdentical is the core acceptance property: a run
// checkpointed mid-flight, torn down, and restored over an identical record
// stream finishes with byte-identical statistics and engine state — across
// perfect memory, real caches, a two-level D side, and perfect branch
// prediction.
func TestCheckpointResumeBitIdentical(t *testing.T) {
	cases := []struct {
		name string
		cfg  func() core.Config
	}{
		{"default", core.DefaultConfig},
		{"caches", func() core.Config {
			cfg := core.DefaultConfig()
			cfg.ICache = cache.Side{L1: cache.Config{Name: "il1", SizeBytes: 4 << 10, Assoc: 2,
				BlockBytes: 32, HitLatency: 1, MissLatency: 12}}
			cfg.DCache = cache.Side{L1: cache.Config{Name: "dl1", SizeBytes: 4 << 10, Assoc: 2,
				BlockBytes: 32, HitLatency: 1, MissLatency: 12}}
			return cfg
		}},
		{"l1-l2", func() core.Config {
			cfg := core.DefaultConfig()
			cfg.DCache = cache.Side{
				L1: cache.Config{Name: "dl1", SizeBytes: 1 << 10, Assoc: 2,
					BlockBytes: 32, HitLatency: 1, MissLatency: 12},
				L2: cache.Config{Name: "ul2", SizeBytes: 4 << 10, Assoc: 4,
					BlockBytes: 64, HitLatency: 6, MissLatency: 40},
			}
			return cfg
		}},
		{"perfect-bp", func() core.Config {
			cfg := core.FASTComparisonConfig()
			return cfg
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg()
			recs := ckptRecords(t, "gzip", cfg, 30_000)

			// Uninterrupted reference run.
			ref, err := core.New(tc.cfg(), trace.NewSliceSource(recs), funcsim.CodeBase)
			if err != nil {
				t.Fatal(err)
			}
			want, err := ref.Run()
			if err != nil {
				t.Fatal(err)
			}

			// Checkpointed run: stop at a mid-run cycle boundary.
			eng, err := core.New(tc.cfg(), trace.NewSliceSource(recs), funcsim.CodeBase)
			if err != nil {
				t.Fatal(err)
			}
			const stopAt = 5000
			for eng.Now() < stopAt && !eng.Done() {
				if err := eng.Cycle(); err != nil {
					t.Fatal(err)
				}
			}
			if eng.Done() {
				t.Fatalf("trace drained before cycle %d; pick a longer budget", stopAt)
			}
			cp := eng.Checkpoint()

			// Serialize and decode — the resumed engine must come from the
			// encoded form, as it would after a process death.
			var buf bytes.Buffer
			if err := cp.EncodeTo(&buf); err != nil {
				t.Fatal(err)
			}
			cp2, err := core.ReadCheckpoint(&buf)
			if err != nil {
				t.Fatal(err)
			}

			resumed, err := core.Restore(tc.cfg(), trace.NewSliceSource(recs), cp2)
			if err != nil {
				t.Fatal(err)
			}
			if resumed.Now() != stopAt {
				t.Fatalf("resumed at cycle %d, want %d", resumed.Now(), stopAt)
			}
			got, err := resumed.Run()
			if err != nil {
				t.Fatal(err)
			}
			resultsEqual(t, want, got, tc.name)
			statesEqual(t, ref, resumed, tc.name)
		})
	}
}

// TestCheckpointEncodingSelfDescribing pins the encoding contract: a
// versioned JSON object whose version gates decoding.
func TestCheckpointEncodingSelfDescribing(t *testing.T) {
	cfg := core.DefaultConfig()
	recs := ckptRecords(t, "vpr", cfg, 4000)
	eng, err := core.New(cfg, trace.NewSliceSource(recs), funcsim.CodeBase)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		if err := eng.Cycle(); err != nil {
			t.Fatal(err)
		}
	}
	cp := eng.Checkpoint()
	data, err := cp.Encode()
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{`"version":1`, `"config_digest"`, `"counters"`, `"bpred"`, `"icache"`, `"trace_pos"`} {
		if !strings.Contains(string(data), field) {
			t.Errorf("encoded checkpoint lacks %s", field)
		}
	}
	if _, err := core.DecodeCheckpoint(data); err != nil {
		t.Fatal(err)
	}
	// A future version must be rejected, not misread.
	bad := bytes.Replace(data, []byte(`"version":1`), []byte(`"version":99`), 1)
	if _, err := core.DecodeCheckpoint(bad); err == nil {
		t.Error("decoder accepted an unknown checkpoint version")
	}
}

// TestRestoreRejectsMismatchedConfig: a checkpoint only restores into the
// machine it was captured on.
func TestRestoreRejectsMismatchedConfig(t *testing.T) {
	cfg := core.DefaultConfig()
	recs := ckptRecords(t, "gzip", cfg, 4000)
	eng, err := core.New(cfg, trace.NewSliceSource(recs), funcsim.CodeBase)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if err := eng.Cycle(); err != nil {
			t.Fatal(err)
		}
	}
	cp := eng.Checkpoint()
	other := core.DefaultConfig()
	other.RBSize = 32
	if _, err := core.Restore(other, trace.NewSliceSource(recs), cp); err == nil {
		t.Error("Restore accepted a checkpoint from a different configuration")
	}
	if _, err := core.Restore(cfg, trace.NewSliceSource(recs), cp); err != nil {
		t.Errorf("Restore rejected the matching configuration: %v", err)
	}
}

// fullWindow captures gzip on DefaultConfig at the first cycle boundary
// where both the reorder buffer and the IFQ are full. It returns the
// encoded checkpoint, clone (a fresh decoded copy per call) and restore
// (Restore over a fresh source of the same records, failing the test if
// Restore panics).
func fullWindow(t *testing.T) (cfg core.Config, full []byte, clone func() *core.Checkpoint,
	restore func(*core.Checkpoint) (*core.Engine, error)) {
	t.Helper()
	cfg = core.DefaultConfig()
	recs := ckptRecords(t, "gzip", cfg, 4000)
	eng, err := core.New(cfg, trace.NewSliceSource(recs), funcsim.CodeBase)
	if err != nil {
		t.Fatal(err)
	}
	for full == nil && eng.Now() < 2000 {
		if err := eng.Cycle(); err != nil {
			t.Fatal(err)
		}
		if cp := eng.Checkpoint(); len(cp.ROB) == cfg.RBSize && len(cp.IFQ) == cfg.IFQSize {
			if full, err = cp.Encode(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if full == nil {
		t.Fatal("the window never filled in 2000 cycles")
	}
	restore = func(cp *core.Checkpoint) (_ *core.Engine, err error) {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("Restore panicked: %v", r)
			}
		}()
		return core.Restore(cfg, trace.NewSliceSource(recs), cp)
	}
	clone = func() *core.Checkpoint {
		cp, err := core.DecodeCheckpoint(full)
		if err != nil {
			t.Fatal(err)
		}
		return cp
	}
	return cfg, full, clone, restore
}

// TestRestoreRejectsOverfullWindow: Restore refuses a checkpoint whose
// reorder buffer or IFQ holds more entries than the machine has, and
// returns an error rather than panicking. Each overfull variant fits the
// instruction window's total capacity and holds consecutive seqs ending at
// cp.Seq-1, so only the per-structure check can refuse it; the same variant
// one entry shorter restores, as does a window with both structures full.
func TestRestoreRejectsOverfullWindow(t *testing.T) {
	cfg, full, clone, restore := fullWindow(t)

	// The legal full window restores and captures back to the same bytes.
	e2, err := restore(clone())
	if err != nil {
		t.Fatalf("Restore rejected a full window: %v", err)
	}
	if got, err := e2.Checkpoint().Encode(); err != nil || !bytes.Equal(got, full) {
		t.Errorf("a restored full window captures other state (err %v)", err)
	}

	// A full reorder buffer alone, then one entry more: a ready ALU op
	// that names no registers.
	robOnly := func(extra int) *core.Checkpoint {
		cp := clone()
		cp.IFQ = nil
		last := cp.ROB[len(cp.ROB)-1].Seq
		for i := 1; i <= extra; i++ {
			cp.ROB = append(cp.ROB, core.CheckpointedInst{Seq: last + int64(i),
				Rec: trace.Record{Kind: trace.KindOther, Class: trace.OpALU,
					Dest: isa.NoReg, Src1: isa.NoReg, Src2: isa.NoReg},
				Src1Rdy: true, Src2Rdy: true})
		}
		cp.Seq = cp.ROB[len(cp.ROB)-1].Seq + 1
		return cp
	}
	if _, err := restore(robOnly(0)); err != nil {
		t.Errorf("Restore rejected a full reorder buffer with an empty IFQ: %v", err)
	}
	if _, err := restore(robOnly(1)); err == nil {
		t.Errorf("Restore accepted %d reorder-buffer entries on a %d-entry reorder buffer", cfg.RBSize+1, cfg.RBSize)
	}

	// An empty reorder buffer (so no LSQ entries and no pending producers)
	// under a full IFQ, then one entry more.
	ifqOnly := func(extra int) *core.Checkpoint {
		cp := clone()
		cp.ROB, cp.LSQ = nil, nil
		for r := range cp.Rename {
			cp.Rename[r] = uarch.NoProducer
		}
		for i := 1; i <= extra; i++ {
			next := cp.IFQ[len(cp.IFQ)-1]
			next.Seq++
			cp.IFQ = append(cp.IFQ, next)
		}
		cp.Seq = cp.IFQ[len(cp.IFQ)-1].Seq + 1
		return cp
	}
	if _, err := restore(ifqOnly(0)); err != nil {
		t.Errorf("Restore rejected a full IFQ with an empty reorder buffer: %v", err)
	}
	if _, err := restore(ifqOnly(1)); err == nil {
		t.Errorf("Restore accepted %d IFQ entries on a %d-entry IFQ", cfg.IFQSize+1, cfg.IFQSize)
	}
}

// TestRestoreRejectsWindowSeqGaps: the engine addresses its instruction
// window by seq, so Restore refuses, with an error and no panic, a window
// whose seqs are not exactly cp.Seq-len … cp.Seq-1 in reorder-buffer-then-
// IFQ order. Each case starts from a real full window and breaks only
// that.
func TestRestoreRejectsWindowSeqGaps(t *testing.T) {
	_, _, clone, restore := fullWindow(t)
	for _, tc := range []struct {
		name   string
		mutate func(cp *core.Checkpoint)
	}{
		{"gap in the reorder buffer", func(cp *core.Checkpoint) {
			cp.ROB = slices.Delete(cp.ROB, len(cp.ROB)/2, len(cp.ROB)/2+1)
		}},
		{"IFQ does not follow the reorder buffer", func(cp *core.Checkpoint) {
			for i := range cp.IFQ {
				cp.IFQ[i].Seq++
			}
			cp.Seq++
		}},
		{"window does not end at Seq-1", func(cp *core.Checkpoint) {
			cp.Seq++
		}},
	} {
		cp := clone()
		tc.mutate(cp)
		_, err := restore(cp)
		if err == nil || !strings.Contains(err.Error(), "instruction window") {
			t.Errorf("%s: Restore returned %v, want the instruction-window refusal", tc.name, err)
		}
	}
}

// TestRunContextCheckpointSink: RunHooks captures at absolute
// CheckpointEvery boundaries and every captured checkpoint is independently
// resumable to the same final statistics.
func TestRunContextCheckpointSink(t *testing.T) {
	cfg := core.DefaultConfig()
	recs := ckptRecords(t, "parser", cfg, 20_000)

	var cps []*core.Checkpoint
	eng, err := core.New(cfg, trace.NewSliceSource(recs), funcsim.CodeBase)
	if err != nil {
		t.Fatal(err)
	}
	want, err := eng.RunHooks(context.Background(), core.Hooks{CheckpointEvery: 1024,
		Checkpoint: func(cp *core.Checkpoint) error {
			cps = append(cps, cp)
			return nil
		}})
	if err != nil {
		t.Fatal(err)
	}
	if len(cps) < 2 {
		t.Fatalf("sink received %d checkpoints over %d cycles (every 1024)", len(cps), want.Cycles)
	}
	for i, cp := range cps {
		if cp.Cycles()%1024 != 0 {
			t.Errorf("checkpoint %d at cycle %d, want an absolute multiple of 1024", i, cp.Cycles())
		}
	}
	// Every checkpoint resumes to the identical final result.
	for _, cp := range []*core.Checkpoint{cps[0], cps[len(cps)-1]} {
		resumed, err := core.Restore(cfg, trace.NewSliceSource(recs), cp)
		if err != nil {
			t.Fatal(err)
		}
		got, err := resumed.Run()
		if err != nil {
			t.Fatal(err)
		}
		resultsEqual(t, want, got, "resume from sink checkpoint")
		statesEqual(t, eng, resumed, "resume from sink checkpoint")
	}
}

// TestDriveObserverCadencePinned pins the observer callback cycle sequence:
// absolute interval multiples, not offsets re-anchored on whatever cycle
// the poll landed on, so checkpoint boundaries are deterministic across
// runs and step granularities.
func TestDriveObserverCadencePinned(t *testing.T) {
	for _, stride := range []uint64{1, 3, 7} {
		var cycles uint64
		var at []uint64
		obs := core.ObserverFunc(func(p core.Progress) {
			if !p.Final {
				at = append(at, p.Cycles)
			}
		})
		err := core.Drive(context.Background(), obs, 10,
			func() uint64 { return cycles },
			func() bool { return cycles >= 95 },
			func() error { cycles += stride; return nil },
			func(final bool) core.Progress { return core.Progress{Cycles: cycles, Final: final} },
		)
		if err != nil {
			t.Fatal(err)
		}
		// Every callback lands at the first step crossing a multiple of 10,
		// and consecutive callbacks cover consecutive boundaries even when a
		// stride overshoots (boundaries are absolute, not re-anchored).
		for i, c := range at {
			boundary := uint64(10 * (i + 1))
			if c < boundary || c >= boundary+stride {
				t.Errorf("stride %d: callback %d at cycle %d, want within [%d,%d)",
					stride, i, c, boundary, boundary+stride)
			}
		}
		if len(at) < 9 {
			t.Errorf("stride %d: %d callbacks over 95+ cycles at interval 10", stride, len(at))
		}
	}
}

// TestDriveTerminalSnapshotOnCancel: a cancelled run delivers one last
// non-Final callback carrying the cycle the run actually stopped at.
func TestDriveTerminalSnapshotOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var cycles uint64
	var last core.Progress
	var finals, calls int
	obs := core.ObserverFunc(func(p core.Progress) {
		calls++
		last = p
		if p.Final {
			finals++
		}
	})
	err := core.Drive(ctx, obs, 100,
		func() uint64 { return cycles },
		func() bool { return false }, // only cancellation ends the loop
		func() error {
			cycles++
			if cycles == 3*core.CtxCheckInterval {
				cancel()
			}
			return nil
		},
		func(final bool) core.Progress { return core.Progress{Cycles: cycles, Final: final} },
	)
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if calls == 0 || finals != 0 {
		t.Fatalf("calls = %d, finals = %d; want a terminal non-Final snapshot", calls, finals)
	}
	if last.Final || last.Cycles != 3*core.CtxCheckInterval {
		t.Errorf("last callback = %+v, want non-Final at cycle %d", last, 3*core.CtxCheckInterval)
	}
}

// TestDriveTerminalSnapshotOnStepError: engine failures also flush a last
// snapshot before surfacing the error.
func TestDriveTerminalSnapshotOnStepError(t *testing.T) {
	var cycles uint64
	var last core.Progress
	boom := io.ErrUnexpectedEOF
	obs := core.ObserverFunc(func(p core.Progress) { last = p })
	err := core.Drive(context.Background(), obs, 100,
		func() uint64 { return cycles },
		func() bool { return false },
		func() error {
			cycles++
			if cycles == 42 {
				return boom
			}
			return nil
		},
		func(final bool) core.Progress { return core.Progress{Cycles: cycles, Final: final} },
	)
	if err != boom {
		t.Fatalf("err = %v, want the step error", err)
	}
	if last.Final || last.Cycles != 42 {
		t.Errorf("last callback = %+v, want non-Final at cycle 42", last)
	}
}

// fixtureConfig is the machine the committed checkpoint fixture was captured
// under: simulated branch prediction with small tables, perfect instruction
// memory at latency 2, and a small data L1 in front of an L2 — one state of
// each kind ("perfect", "hierarchy" and, inside it, "cache") in a file that
// stays small.
func fixtureConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.Predictor = bpred.Config{Dir: bpred.DirTwoLevel, BHTSize: 4, HistLen: 4, PHTSize: 64,
		BTBEntries: 16, BTBAssoc: 1, RASSize: 4}
	cfg.ICache = cache.Side{Latency: 2}
	cfg.DCache = cache.Side{
		L1: cache.Config{Name: "dl1", SizeBytes: 256, Assoc: 2, BlockBytes: 32, HitLatency: 1, MissLatency: 12},
		L2: cache.Config{Name: "dl2", SizeBytes: 1 << 10, Assoc: 4, BlockBytes: 32, HitLatency: 4, MissLatency: 30},
	}
	return cfg
}

// fixtureRecords and fixtureCycle fix the run the fixture interrupts: gzip's
// first 2000 correct-path instructions, checkpointed at cycle 896, where
// wrong-path instructions and a store are in flight and the D side has seen
// writes.
const (
	fixtureRecords = 2000
	fixtureCycle   = 896
	fixturePath    = "testdata/checkpoint_v1.json"
)

// TestCheckpointFixture pins the checkpoint encoding against a file
// captured by an earlier build: the stored checkpoint still restores, the
// restored engine captures back to the stored bytes and finishes with the
// uninterrupted run's statistics report, and a fresh capture at the same
// cycle encodes to the stored bytes too. A change that
// alters the encoding, or the state a checkpoint carries, fails here
// instead of stranding checkpoints already written to job journals.
func TestCheckpointFixture(t *testing.T) {
	cfg := fixtureConfig()
	recs := ckptRecords(t, "gzip", cfg, fixtureRecords)
	stored, err := os.ReadFile(fixturePath)
	if err != nil {
		t.Fatal(err)
	}

	ref, err := core.New(cfg, trace.NewSliceSource(recs), funcsim.CodeBase)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Run()
	if err != nil {
		t.Fatal(err)
	}

	cp, err := core.DecodeCheckpoint(stored)
	if err != nil {
		t.Fatal(err)
	}
	if cp.Now != fixtureCycle {
		t.Fatalf("fixture taken at cycle %d, want %d", cp.Now, fixtureCycle)
	}
	resumed, err := core.Restore(cfg, trace.NewSliceSource(recs), cp)
	if err != nil {
		t.Fatal(err)
	}
	encode := func(e *core.Engine) []byte {
		var buf bytes.Buffer
		if err := e.Checkpoint().EncodeTo(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if got := encode(resumed); !bytes.Equal(got, stored) {
		t.Errorf("the restored engine captures other state than it was restored from:\ngot  %s\nwant %s", got, stored)
	}
	got, err := resumed.Run()
	if err != nil {
		t.Fatal(err)
	}
	if ra, rb := want.Registry().String(), got.Registry().String(); ra != rb {
		t.Errorf("resumed from the fixture, the report differs:\n--- uninterrupted\n%s\n--- resumed\n%s", ra, rb)
	}

	fresh, err := core.New(cfg, trace.NewSliceSource(recs), funcsim.CodeBase)
	if err != nil {
		t.Fatal(err)
	}
	for fresh.Now() < fixtureCycle {
		if err := fresh.Cycle(); err != nil {
			t.Fatal(err)
		}
	}
	if got := encode(fresh); !bytes.Equal(got, stored) {
		t.Errorf("a fresh capture at cycle %d no longer encodes to %s:\ngot  %s\nwant %s",
			fixtureCycle, fixturePath, got, stored)
	}
}
