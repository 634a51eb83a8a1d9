package core

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/cache"
	"repro/internal/sched"
	"repro/internal/trace"
	"repro/internal/uarch"
	"repro/internal/workload"
)

// knobs draws bounded choices from fuzz input, one byte per choice; an
// exhausted input draws zeros.
type knobs []byte

func (k *knobs) draw(n int) int {
	if len(*k) == 0 {
		return 0
	}
	v := int((*k)[0]) % n
	*k = (*k)[1:]
	return v
}

// fuzzSide draws perfect memory, an L1, or an L1 in front of a private L2.
func (k *knobs) fuzzSide(name string) cache.Side {
	level := func(size, assoc, block int) cache.Config {
		hit := 1 + k.draw(2)
		return cache.Config{Name: name, SizeBytes: size, Assoc: assoc, BlockBytes: block,
			HitLatency: hit, MissLatency: hit + k.draw(40)}
	}
	switch k.draw(3) {
	case 0:
		return cache.Side{Latency: k.draw(4)}
	case 1:
		return cache.Side{L1: level(256<<k.draw(3), 1<<k.draw(3), 16<<k.draw(2))}
	}
	return cache.Side{L1: level(256<<k.draw(3), 1<<k.draw(3), 16<<k.draw(2)), L2: level(4<<10, 4, 64)}
}

// fuzzMachine draws a valid machine: window sizes, width, ports, FU pools,
// penalties, the predictor and both memory sides.
func (k *knobs) fuzzMachine() Config {
	cfg := DefaultConfig()
	cfg.Width = 1 + k.draw(8)
	cfg.IFQSize, cfg.RBSize, cfg.LSQSize = 1+k.draw(16), 1+k.draw(64), 1+k.draw(32)
	cfg.Organization = sched.Organization(k.draw(3))
	if cfg.Organization == sched.OrgOptimized && cfg.Width == 1 {
		cfg.Organization = sched.OrgImproved
	}
	cfg.MemReadPorts = 1 + k.draw(cfg.Organization.MaxMemPorts(cfg.Width))
	cfg.MemWritePorts = 1 + k.draw(3)
	for cls := range cfg.FUs {
		cfg.FUs[cls] = uarch.FUSpec{Count: 1 + k.draw(4), Latency: 1 + k.draw(12), Pipelined: k.draw(2) == 1}
	}
	cfg.MisfetchPenalty, cfg.MispredPenalty = k.draw(6), k.draw(6)
	cfg.PerfectBP = k.draw(2) == 1
	cfg.ICache, cfg.DCache = k.fuzzSide("i"), k.fuzzSide("d")
	cfg.MaxCycles = 1 << 22
	return cfg
}

// fuzzStream draws a synthetic record stream for cfg.
func (k *knobs) fuzzStream(cfg Config) ([]trace.Record, error) {
	sp := workload.DefaultStreamProfile(int64(k.draw(256)<<8 | k.draw(256)))
	pct := func(n int) float64 { return float64(k.draw(n+1)) / 100 }
	sp.LoadFrac, sp.StoreFrac, sp.BranchFrac, sp.MulFrac, sp.DivFrac = pct(40), pct(20), pct(30), pct(5), pct(5)
	sp.TakenProb, sp.MispredProb = pct(100), pct(30)
	sp.WrongPathLen = k.draw(cfg.WrongPathLen() + 8)
	sp.MemRange = 64 << k.draw(12)
	sp.DepWindow = 1 + k.draw(16)
	return sp.Records(100 + 100*k.draw(16))
}

// FuzzEngineInvariants runs random machines over random synthetic streams
// and checks what must hold on every machine: the telemetry windows add up
// to the final statistics, a resume from a checkpoint at a random cycle
// ends in byte-identical engine state, no cycle commits more than Width
// instructions, and under PerfectBP and perfect memory no run beats its
// trace's dataflow bound.
func FuzzEngineInvariants(f *testing.F) {
	f.Add([]byte{})
	// The paper's 4-wide window and FUs with a predictor, perfect I side and
	// an L1+L2 D side; then a 2-wide PerfectBP machine with a tiny L1+L2 I
	// side and perfect D side.
	f.Add([]byte{3, 7, 40, 7, 2, 1, 1, 3, 0, 1, 0, 2, 1, 0, 9, 0, 3, 3, 0, 0, 0, 2, 2, 1, 1, 0, 11, 1, 30,
		0, 42, 25, 10, 17, 4, 1, 60, 8, 40, 10, 11, 15, 4, 128})
	f.Add([]byte{1, 3, 15, 3, 1, 1, 0, 1, 0, 1, 0, 2, 1, 0, 9, 0, 0, 0, 1, 2, 0, 0, 0, 0, 11, 1, 30, 0, 0,
		7, 3, 30, 10, 20, 5, 2, 50, 10, 20, 8, 4, 9, 2, 200})
	f.Add(bytes.Repeat([]byte{0xa5, 0x3c, 0x81}, 20))
	f.Fuzz(func(t *testing.T, data []byte) {
		k := knobs(data)
		cfg := k.fuzzMachine()
		if err := cfg.Validate(); err != nil {
			t.Fatalf("drew an invalid machine: %v", err)
		}
		recs, err := k.fuzzStream(cfg)
		if err != nil {
			t.Fatal(err)
		}
		every := uint64(16) << k.draw(8)
		stopFrac := uint64(k.draw(256))

		ref, err := New(cfg, trace.NewSliceSource(recs), 0x1000)
		if err != nil {
			t.Fatal(err)
		}
		var windows Stats
		res, err := ref.RunHooks(context.Background(), Hooks{TelemetryEvery: every,
			Telemetry: func(s IntervalSnapshot) error { windows = windows.Add(s.Stats); return nil }})
		if err != nil {
			t.Fatalf("run: %v\n%+v", err, cfg)
		}
		if windows != res.Stats {
			t.Errorf("telemetry windows add up to\n%+v\nwant\n%+v", windows, res.Stats)
		}
		if res.Cycles*uint64(cfg.Width) < res.Committed {
			t.Errorf("%d instructions committed in %d cycles at width %d", res.Committed, res.Cycles, cfg.Width)
		}
		if cfg.PerfectBP && cfg.ICache.Perfect() && cfg.DCache.Perfect() {
			if bound := dataflowBound(recs, cfg.FUs); res.Cycles < bound {
				t.Errorf("%d cycles, below the dataflow bound %d", res.Cycles, bound)
			}
		}

		// Resume from a checkpoint at a random cycle of the same run.
		eng, err := New(cfg, trace.NewSliceSource(recs), 0x1000)
		if err != nil {
			t.Fatal(err)
		}
		for stop := stopFrac * res.Cycles / 256; eng.Now() < int64(stop) && !eng.Done(); {
			if err := eng.Cycle(); err != nil {
				t.Fatal(err)
			}
		}
		enc, err := eng.Checkpoint().Encode()
		if err != nil {
			t.Fatal(err)
		}
		cp, err := DecodeCheckpoint(enc)
		if err != nil {
			t.Fatal(err)
		}
		resumed, err := Restore(cfg, trace.NewSliceSource(recs), cp)
		if err != nil {
			t.Fatal(err)
		}
		got, err := resumed.Run()
		if err != nil {
			t.Fatalf("resumed run: %v", err)
		}
		if got.Stats != res.Stats {
			t.Errorf("resumed at cycle %d, the run ends with\n%+v\nwant\n%+v", cp.Cycles(), got.Stats, res.Stats)
		}
		want, err := ref.Checkpoint().Encode()
		if err != nil {
			t.Fatal(err)
		}
		if end, err := resumed.Checkpoint().Encode(); err != nil || !bytes.Equal(end, want) {
			t.Errorf("resumed at cycle %d, the final engine state differs (err %v)", cp.Cycles(), err)
		}
	})
}
