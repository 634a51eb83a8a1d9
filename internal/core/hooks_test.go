package core_test

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/funcsim"
	"repro/internal/trace"
)

// TestHookErrorSemantics pins what the run loop's other hooks see when a
// checkpoint or telemetry sink fails: a checkpoint error flushes the partial
// telemetry window (so the windows still sum to the returned Result) and
// then delivers one non-Final observer snapshot; a telemetry error delivers
// the observer snapshot and no further window.
func TestHookErrorSemantics(t *testing.T) {
	boom := errors.New("sink failed")
	cases := []struct {
		name      string
		failCkpt  bool
		wantAfter []string // hook events after the failing sink call
	}{
		{"checkpoint", true, []string{"tel", "obs"}},
		{"telemetry", false, []string{"obs"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := core.DefaultConfig()
			recs := ckptRecords(t, "gzip", cfg, 30_000)

			type event struct {
				hook   string
				cycles uint64
				final  bool
			}
			var events []event
			var snaps []core.IntervalSnapshot
			failAt := -1
			calls := 0
			fail := func() error {
				calls++
				if calls == 3 {
					failAt = len(events)
					return boom
				}
				return nil
			}
			h := core.Hooks{CheckpointEvery: 2048, TelemetryEvery: 2048, ObserverEvery: 2048}
			h.Checkpoint = func(cp *core.Checkpoint) error {
				events = append(events, event{"ckpt", cp.Counters.Cycles, false})
				if tc.failCkpt {
					return fail()
				}
				return nil
			}
			h.Telemetry = func(s core.IntervalSnapshot) error {
				events = append(events, event{"tel", s.EndCycle, s.Final})
				snaps = append(snaps, s)
				if !tc.failCkpt {
					return fail()
				}
				return nil
			}
			h.Observer = core.ObserverFunc(func(p core.Progress) {
				events = append(events, event{"obs", p.Cycles, p.Final})
			})
			eng, err := core.New(cfg, trace.NewSliceSource(recs), funcsim.CodeBase)
			if err != nil {
				t.Fatal(err)
			}
			res, err := eng.RunHooks(context.Background(), h)
			if !errors.Is(err, boom) {
				t.Fatalf("err = %v, want the sink error", err)
			}
			if failAt < 0 {
				t.Fatal("the sink never failed")
			}
			after := events[failAt:]
			if len(after) != len(tc.wantAfter) {
				t.Fatalf("events after the failure = %+v, want hooks %v", after, tc.wantAfter)
			}
			for i, ev := range after {
				if ev.hook != tc.wantAfter[i] || ev.final || ev.cycles != res.Cycles {
					t.Fatalf("event %d after the failure = %+v, want non-Final %s at cycle %d",
						i, ev, tc.wantAfter[i], res.Cycles)
				}
			}
			if tc.failCkpt {
				// The flushed windows sum to the statistics the run returned.
				var sum core.Result
				for _, s := range snaps {
					s.Accumulate(&sum)
				}
				if sum.Counters != res.Counters {
					t.Fatalf("accumulated windows differ from the returned result:\n%+v\n%+v",
						sum.Counters, res.Counters)
				}
			}
		})
	}
}

// TestHooksChangeNoResult: no hook touches simulated state, so a run with
// every hook set — tracer, observer, checkpoint and telemetry — returns a
// Result equal to the hook-free run's, Config included.
func TestHooksChangeNoResult(t *testing.T) {
	cases := []struct {
		name string
		cfg  func() core.Config
	}{
		{"default", core.DefaultConfig},
		{"fast-caches", core.FASTComparisonConfig},
		{"tiny-lsq", func() core.Config {
			cfg := core.DefaultConfig()
			cfg.LSQSize = 2
			return cfg
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			recs := ckptRecords(t, "vpr", tc.cfg(), 20_000)
			run := func(h core.Hooks) core.Result {
				eng, err := core.New(tc.cfg(), trace.NewSliceSource(recs), funcsim.CodeBase)
				if err != nil {
					t.Fatal(err)
				}
				res, err := eng.RunHooks(context.Background(), h)
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			want := run(core.Hooks{})

			calls := map[string]int{}
			tracer := &countingTracer{}
			got := run(core.Hooks{
				PipeTracer:    tracer,
				Observer:      core.ObserverFunc(func(core.Progress) { calls["observer"]++ }),
				ObserverEvery: 512,
				Checkpoint: func(*core.Checkpoint) error {
					calls["checkpoint"]++
					return nil
				},
				CheckpointEvery: 1024,
				Telemetry: func(core.IntervalSnapshot) error {
					calls["telemetry"]++
					return nil
				},
				TelemetryEvery: 1024,
			})
			calls["tracer"] = tracer.n
			for _, hook := range []string{"tracer", "observer", "checkpoint", "telemetry"} {
				if calls[hook] == 0 {
					t.Errorf("the %s hook was never called", hook)
				}
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("hooked run differs from the hook-free run:\n%+v\n%+v", got, want)
			}
		})
	}
}

// countingTracer counts pipeline events.
type countingTracer struct{ n int }

func (c *countingTracer) Fetched(int64, int64, uint32, string, bool) { c.n++ }
func (c *countingTracer) Stage(int64, int64, string)                 { c.n++ }
