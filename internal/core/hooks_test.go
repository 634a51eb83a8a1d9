package core_test

import (
	"errors"
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
			cfg.CheckpointEvery = 2048
			cfg.CheckpointSink = func(cp *core.Checkpoint) error {
				events = append(events, event{"ckpt", cp.Counters.Cycles, false})
				if tc.failCkpt {
					return fail()
				}
				return nil
			}
			cfg.TelemetryEvery = 2048
			cfg.TelemetrySink = func(s core.IntervalSnapshot) error {
				events = append(events, event{"tel", s.EndCycle, s.Final})
				snaps = append(snaps, s)
				if !tc.failCkpt {
					return fail()
				}
				return nil
			}
			cfg.ObserverInterval = 2048
			cfg.Observer = core.ObserverFunc(func(p core.Progress) {
				events = append(events, event{"obs", p.Cycles, p.Final})
			})
			eng, err := core.New(cfg, trace.NewSliceSource(recs), funcsim.CodeBase)
			if err != nil {
				t.Fatal(err)
			}
			res, err := eng.Run()
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
