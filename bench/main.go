// Command bench is ReSim's performance ledger: one workload per process,
// measured end to end, with a traced variant that splits the time across
// the simulator's layers (engine, trace cache, sweep scheduler, job
// platform, multicore cluster, Go runtime).
//
// Usage, from this directory:
//
//	go run . -workload replay -seed 1 -seconds 28
//	go run . -workload jobs_tcp -trace 1
//
// An untraced run prints every end-to-end metric as "name value unit",
// then "ops N", then one JSON line {"correct", "attempted", "failed",
// "metrics"}. A traced run (-trace 1) prints the per-layer metrics instead
// and writes spans.jsonl, layers.json and CPU profiles under -out. The
// command exits non-zero when any correctness check fails. README.md
// defines every workload and metric.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
)

// options configures one benchmark run.
type options struct {
	workload string
	seed     int64
	seconds  float64 // length of the measured phase
	trace    bool
	// out holds the traced run's outputs (trace/) and per-run scratch
	// space such as the job platform's journal (work/).
	out          string
	golden       string // golden digest file
	updateGolden bool
	size         size
	// corruptRef flips one reference digest after set-up, so every op that
	// replays that input must fail its check (the smoke test's hook).
	corruptRef bool
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the JSON object a run prints as its last line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	o := options{size: fullSize}
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&o.seed, "seed", 1, "seed for the generated inputs and their order")
	flag.Float64Var(&o.seconds, "seconds", 28, "length of the measured phase in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 runs the traced variant and reports per-layer metrics")
	flag.StringVar(&o.out, "out", "../.bench_build", "directory for trace outputs and scratch files")
	flag.StringVar(&o.golden, "golden", "testdata/golden.json", "golden digest file")
	flag.BoolVar(&o.updateGolden, "update-golden", false, "rewrite this workload's golden digest (seed 1 only)")
	flag.Parse()
	if flag.NArg() > 0 || (traceFlag != 0 && traceFlag != 1) || o.seconds <= 0 {
		flag.Usage()
		os.Exit(2)
	}
	o.trace = traceFlag == 1

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	rep, err := run(ctx, o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if !rep.Correct {
		os.Exit(1)
	}
}

// run executes one benchmark run and prints its report to w: the metrics
// as "name value unit" lines, the op count, then the JSON line. A failed
// correctness check is reported in the returned report (Correct false), an
// error means the run could not be carried out at all.
func run(ctx context.Context, o options, w io.Writer) (report, error) {
	setup, ok := workloads[o.workload]
	if !ok {
		return report{}, fmt.Errorf("unknown workload %q (have %s)", o.workload, strings.Join(workloadNames(), ", "))
	}
	if o.updateGolden && o.seed != 1 {
		return report{}, fmt.Errorf("-update-golden needs seed 1")
	}
	res, err := measureWorkload(ctx, setup, o)
	if err != nil {
		return report{}, err
	}
	rep := report{
		Correct:   res.failed == 0 && res.goldenErr == nil,
		Attempted: res.attempted,
		Failed:    res.failed,
		Metrics:   map[string]metric{},
	}
	for _, m := range res.metrics {
		rep.Metrics[m.name] = metric{Value: m.value, Unit: m.unit}
		fmt.Fprintf(w, "%s %.6g %s\n", m.name, m.value, m.unit)
	}
	fmt.Fprintf(w, "ops %d\n", res.attempted)
	for _, msg := range res.errors {
		fmt.Fprintln(os.Stderr, "bench: check failed:", msg)
	}
	if res.goldenErr != nil {
		fmt.Fprintln(os.Stderr, "bench:", res.goldenErr)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		return report{}, err
	}
	fmt.Fprintln(w, string(line))
	return rep, nil
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for name := range workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
