// Command resim-bench regenerates the paper's evaluation artifacts: every
// table (1-4) and figure (2-4), plus the §IV serial-vs-parallel ablation.
//
// Usage:
//
//	resim-bench -all
//	resim-bench -table 1 -n 500000
//	resim-bench -figure 4
//	resim-bench -ablation
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"syscall"

	"repro/internal/tables"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	var (
		all        = flag.Bool("all", false, "regenerate every table and figure")
		table      = flag.Int("table", 0, "regenerate one table (1-4)")
		figure     = flag.Int("figure", 0, "render one figure (2-4)")
		ablation   = flag.Bool("ablation", false, "run the serial-vs-parallel ablation")
		compress   = flag.Bool("compression", false, "run the trace-compression extension")
		bpSweep    = flag.String("bpred-sweep", "", "run the predictor sweep on this workload")
		wpSweep    = flag.String("wrongpath-sweep", "", "run the wrong-path sizing sweep on this workload")
		n          = flag.Uint64("n", 200_000, "instructions per benchmark point")
		width      = flag.Int("width", 4, "figure/ablation processor width")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the run to this file (go tool pprof)")
		memprofile = flag.String("memprofile", "", "write an allocation profile at exit to this file (go tool pprof)")
	)
	flag.Parse()
	opts := tables.Options{Instructions: *n}

	if !*all && *table == 0 && *figure == 0 && !*ablation && !*compress &&
		*bpSweep == "" && *wpSweep == "" {
		flag.Usage()
		os.Exit(2)
	}

	// Profiling hooks: perf work on the engine should start from a
	// profile of the real artifact workloads, not a guess. check() runs
	// stopProfiles before exiting, so a failing run — a prime profiling
	// target — still leaves readable profiles.
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		check(err)
		check(pprof.StartCPUProfile(f))
		addCleanup(func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "resim-bench:", err)
			}
		})
	}
	if *memprofile != "" {
		path := *memprofile
		addCleanup(func() {
			f, err := os.Create(path)
			if err != nil {
				fmt.Fprintln(os.Stderr, "resim-bench:", err)
				return
			}
			runtime.GC() // materialize the final live set
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "resim-bench:", err)
			}
			if err := f.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "resim-bench:", err)
			}
		})
	}
	defer runCleanups()

	run := func(t int) {
		switch t {
		case 1:
			rows, err := tables.Table1(ctx, opts)
			check(err)
			fmt.Println(tables.RenderTable1(rows))
		case 2:
			rows, err := tables.Table2(ctx, opts)
			check(err)
			fmt.Println(tables.RenderTable2(rows))
		case 3:
			rows, err := tables.Table3(ctx, opts)
			check(err)
			fmt.Println(tables.RenderTable3(rows))
		case 4:
			b, err := tables.Table4()
			check(err)
			fmt.Println(tables.RenderTable4(b))
		default:
			check(fmt.Errorf("no table %d (have 1-4)", t))
		}
	}

	if *all {
		for t := 1; t <= 4; t++ {
			run(t)
		}
		for f := 2; f <= 4; f++ {
			out, err := tables.RenderFigure(f, *width)
			check(err)
			fmt.Println(out)
		}
		fmt.Println(tables.Ablation(*width))
		rows, err := tables.TraceCompression(ctx, opts)
		check(err)
		fmt.Println(tables.RenderCompression(rows))
		return
	}
	if *table != 0 {
		run(*table)
	}
	if *figure != 0 {
		out, err := tables.RenderFigure(*figure, *width)
		check(err)
		fmt.Println(out)
	}
	if *ablation {
		fmt.Println(tables.Ablation(*width))
	}
	if *compress {
		rows, err := tables.TraceCompression(ctx, opts)
		check(err)
		fmt.Println(tables.RenderCompression(rows))
	}
	if *bpSweep != "" {
		rows, err := tables.PredictorSweep(ctx, opts, *bpSweep)
		check(err)
		fmt.Println(tables.RenderPredictorSweep(rows, *bpSweep))
	}
	if *wpSweep != "" {
		rows, err := tables.WrongPathSweep(ctx, opts, *wpSweep)
		check(err)
		fmt.Println(tables.RenderWrongPathSweep(rows, *wpSweep, 20))
	}
}

// cleanups flush profiling output; they run once, on normal return or on
// the error exit path (os.Exit skips defers).
var cleanups []func()

func addCleanup(fn func()) { cleanups = append(cleanups, fn) }

func runCleanups() {
	for _, fn := range cleanups {
		fn()
	}
	cleanups = nil
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "resim-bench:", err)
		runCleanups()
		os.Exit(1)
	}
}
