package core_test

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/funcsim"
	"repro/internal/trace"
)

// fuzzCkptConfig is the machine FuzzCheckpointRestore checkpoints and
// restores besides core.DefaultConfig (perfect memory): the default engine
// with an L1 instruction cache and an L1 data cache in front of an L2, so
// predictor state and every kind of memory state cross the encoding.
func fuzzCkptConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.ICache = cache.Side{L1: cache.Config{Name: "il1", SizeBytes: 1 << 10, Assoc: 2,
		BlockBytes: 32, HitLatency: 1, MissLatency: 12}}
	cfg.DCache = cache.Side{
		L1: cache.Config{Name: "dl1", SizeBytes: 1 << 10, Assoc: 2, BlockBytes: 32, HitLatency: 1, MissLatency: 12},
		L2: cache.Config{Name: "dl2", SizeBytes: 4 << 10, Assoc: 4, BlockBytes: 32, HitLatency: 4, MissLatency: 30},
	}
	cfg.MaxCycles = 20_000
	return cfg
}

// FuzzCheckpointRestore feeds mutated checkpoint bytes to DecodeCheckpoint
// and then Restore, under both fuzz machines, over a fresh source of the
// records they captured from (both machines predict alike, so they trace
// alike). Sweeps resume points from such bytes after they cross the wire,
// so no input may panic: each is either a clean error or an engine that
// runs to completion within MaxCycles.
func FuzzCheckpointRestore(f *testing.F) {
	perfect := core.DefaultConfig()
	perfect.MaxCycles = fuzzCkptConfig().MaxCycles
	configs := []core.Config{perfect, fuzzCkptConfig()}
	recs := ckptRecords(f, "gzip", fuzzCkptConfig(), 3000)
	for _, cfg := range configs {
		eng, err := core.New(cfg, trace.NewSliceSource(recs), funcsim.CodeBase)
		if err != nil {
			f.Fatal(err)
		}
		for _, at := range []int64{0, 300, 1500} {
			for eng.Now() < at && !eng.Done() {
				if err := eng.Cycle(); err != nil {
					f.Fatal(err)
				}
			}
			data, err := eng.Checkpoint().Encode()
			if err != nil {
				f.Fatal(err)
			}
			f.Add(data)
		}
	}
	f.Add([]byte(`{"version":1}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		cp, err := core.DecodeCheckpoint(data)
		if err != nil {
			return
		}
		for _, cfg := range configs {
			eng, err := core.Restore(cfg, trace.NewSliceSource(recs), cp)
			if err != nil {
				continue
			}
			eng.Run() //nolint:errcheck // a clean run error is an allowed outcome
		}
	})
}
