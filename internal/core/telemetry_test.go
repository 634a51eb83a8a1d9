package core_test

import (
	"context"
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/funcsim"
	"repro/internal/trace"
)

// telemetryRun runs the workload with a collecting telemetry sink and
// returns the snapshots together with the run's result.
func telemetryRun(t *testing.T, cfg core.Config, recs []trace.Record, every uint64) ([]core.IntervalSnapshot, core.Result) {
	t.Helper()
	var snaps []core.IntervalSnapshot
	eng, err := core.New(cfg, trace.NewSliceSource(recs), funcsim.CodeBase)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.RunHooks(context.Background(), core.Hooks{TelemetryEvery: every,
		Telemetry: func(s core.IntervalSnapshot) error {
			snaps = append(snaps, s)
			return nil
		}})
	if err != nil {
		t.Fatal(err)
	}
	return snaps, res
}

// TestTelemetryEquivalenceLocal is the tentpole property at the engine
// level: streaming interval snapshots does not perturb the simulation
// (results byte-identical to a run without telemetry), and the streamed
// window deltas sum back to the final Result exactly.
func TestTelemetryEquivalenceLocal(t *testing.T) {
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
	}
	const every = 2048
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			recs := ckptRecords(t, "gzip", tc.cfg(), 30_000)

			// Reference run without telemetry.
			ref, err := core.New(tc.cfg(), trace.NewSliceSource(recs), funcsim.CodeBase)
			if err != nil {
				t.Fatal(err)
			}
			want, err := ref.Run()
			if err != nil {
				t.Fatal(err)
			}

			snaps, got := telemetryRun(t, tc.cfg(), recs, every)
			resultsEqual(t, want, got, "telemetry on vs off")

			if len(snaps) < 3 {
				t.Fatalf("%d snapshots; want several windows (interval %d over %d cycles)",
					len(snaps), every, got.Cycles)
			}
			// Windows are contiguous, sequence-numbered, boundary-aligned,
			// and exactly one Final snapshot ends the stream.
			for i, s := range snaps {
				if s.Seq != uint64(i) {
					t.Errorf("snapshot %d has seq %d", i, s.Seq)
				}
				if i > 0 && s.StartCycle != snaps[i-1].EndCycle {
					t.Errorf("snapshot %d starts at %d, previous ended at %d",
						i, s.StartCycle, snaps[i-1].EndCycle)
				}
				if final := i == len(snaps)-1; s.Final != final {
					t.Errorf("snapshot %d Final = %v", i, s.Final)
				}
				if !s.Final && s.EndCycle%every != 0 {
					t.Errorf("snapshot %d ends at %d, not a multiple of %d", i, s.EndCycle, every)
				}
			}
			if first := snaps[0].StartCycle; first != 0 {
				t.Errorf("first window starts at %d", first)
			}
			if last := snaps[len(snaps)-1].EndCycle; last != got.Cycles {
				t.Errorf("last window ends at %d, run at %d", last, got.Cycles)
			}

			// The deltas sum back to the final result byte-for-byte.
			var sum core.Result
			for _, s := range snaps {
				s.Accumulate(&sum)
			}
			resultsEqual(t, want, sum, "accumulated snapshots vs final result")
		})
	}
}

// TestTelemetryCancelFlushesPartialWindow: an interrupted run still delivers
// the in-flight window (non-Final), so the stream sums to the statistics
// the cancelled run returned.
func TestTelemetryCancelFlushesPartialWindow(t *testing.T) {
	cfg := core.DefaultConfig()
	recs := ckptRecords(t, "gzip", cfg, 100_000)

	ctx, cancel := context.WithCancel(context.Background())
	var snaps []core.IntervalSnapshot
	eng, err := core.New(cfg, trace.NewSliceSource(recs), funcsim.CodeBase)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.RunHooks(ctx, core.Hooks{TelemetryEvery: 2048,
		Telemetry: func(s core.IntervalSnapshot) error {
			snaps = append(snaps, s)
			if len(snaps) == 3 {
				cancel()
			}
			return nil
		}})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(snaps) < 4 {
		t.Fatalf("%d snapshots; want the cancelled window flushed after the third", len(snaps))
	}
	last := snaps[len(snaps)-1]
	if last.Final {
		t.Errorf("interrupted run delivered a Final snapshot")
	}
	if last.EndCycle != res.Cycles {
		t.Errorf("last window ends at %d, cancelled run at %d", last.EndCycle, res.Cycles)
	}
	var sum core.Result
	for _, s := range snaps {
		s.Accumulate(&sum)
	}
	if sum.Counters != res.Counters {
		t.Errorf("accumulated snapshots differ from cancelled result:\n%+v\n%+v",
			sum.Counters, res.Counters)
	}
}

// TestEngineObserverCadenceDocumented pins, at the engine level, the
// cadence observer.go documents: RunHooks delivers non-Final callbacks at
// exactly the absolute multiples of ObserverEvery, in order, regardless
// of how far stepFast batches between polls.
func TestEngineObserverCadenceDocumented(t *testing.T) {
	cfg := core.DefaultConfig()
	recs := ckptRecords(t, "gzip", cfg, 30_000)

	const iv = 4096
	var at []uint64
	var finals int
	obs := core.ObserverFunc(func(p core.Progress) {
		if p.Final {
			finals++
			return
		}
		at = append(at, p.Cycles)
	})
	eng, err := core.New(cfg, trace.NewSliceSource(recs), funcsim.CodeBase)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.RunHooks(context.Background(), core.Hooks{Observer: obs, ObserverEvery: iv})
	if err != nil {
		t.Fatal(err)
	}
	if finals != 1 {
		t.Fatalf("finals = %d, want exactly one Final callback", finals)
	}
	// One callback per completed boundary; a run draining exactly on a
	// boundary fires that boundary's callback before the Final one.
	want := res.Cycles / iv
	if uint64(len(at)) != want {
		t.Fatalf("%d non-Final callbacks over %d cycles at interval %d, want %d",
			len(at), res.Cycles, iv, want)
	}
	for i, c := range at {
		if c != uint64(i+1)*iv {
			t.Errorf("callback %d at cycle %d, want exactly %d (absolute multiples)",
				i, c, uint64(i+1)*iv)
		}
	}
}
