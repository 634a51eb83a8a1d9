package core_test

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/funcsim"
	"repro/internal/trace"
)

// fuzzCkptConfig is the machine FuzzCheckpointRestore checkpoints and
// restores: the default engine with simulated branch prediction and real
// L1 caches, so predictor and cache state both cross the encoding.
func fuzzCkptConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.ICache = cache.Side{L1: cache.Config{Name: "il1", SizeBytes: 1 << 10, Assoc: 2,
		BlockBytes: 32, HitLatency: 1, MissLatency: 12}}
	cfg.DCache = cache.Side{L1: cache.Config{Name: "dl1", SizeBytes: 1 << 10, Assoc: 2,
		BlockBytes: 32, HitLatency: 1, MissLatency: 12}}
	cfg.MaxCycles = 20_000
	return cfg
}

// FuzzCheckpointRestore feeds mutated checkpoint bytes to DecodeCheckpoint
// and then Restore over the capturing configuration and a fresh source of
// the same records. Sweeps resume points from such bytes after they cross
// the wire, so no input may panic: each is either a clean error or an
// engine that runs to completion within MaxCycles.
func FuzzCheckpointRestore(f *testing.F) {
	recs := ckptRecords(f, "gzip", fuzzCkptConfig(), 3000)
	eng, err := core.New(fuzzCkptConfig(), trace.NewSliceSource(recs), funcsim.CodeBase)
	if err != nil {
		f.Fatal(err)
	}
	for _, at := range []int64{0, 300, 1500} {
		for eng.Now() < at && !eng.Done() {
			if err := eng.Cycle(); err != nil {
				f.Fatal(err)
			}
		}
		cp, err := eng.Checkpoint()
		if err != nil {
			f.Fatal(err)
		}
		data, err := cp.Encode()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"version":1}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		cp, err := core.DecodeCheckpoint(data)
		if err != nil {
			return
		}
		eng, err := core.Restore(fuzzCkptConfig(), trace.NewSliceSource(recs), cp)
		if err != nil {
			return
		}
		eng.Run() //nolint:errcheck // a clean run error is an allowed outcome
	})
}
