// Command resim runs the ReSim timing engine over a trace — either a file
// produced by tracegen or one generated on the fly from a synthetic
// workload — and prints the sim-outorder-style statistics report plus the
// modeled FPGA simulation throughput. Ctrl-C cancels an in-flight run.
//
// Usage:
//
//	resim -workload bzip2 -n 500000
//	resim -trace gzip.trace -width 2 -perfect-bp -caches
//	resim -workload parser -org simple -device virtex4
//
// With -config, the JSON file is loaded first and explicit structure flags
// override its fields.
//
// Long runs can checkpoint and resume: -checkpoint FILE saves the complete
// engine state at every -checkpoint-every cycle boundary (atomically;
// latest wins), and a later invocation with the same workload/trace and
// configuration plus -resume FILE continues from the saved cycle. Engines
// are deterministic, so the resumed run's final statistics are
// byte-identical to an uninterrupted run's:
//
//	resim -workload gzip -n 50000000 -checkpoint gzip.ckpt   # Ctrl-C midway
//	resim -workload gzip -n 50000000 -resume gzip.ckpt
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	resim "repro"
	"repro/internal/configfile"
	"repro/internal/ptrace"
)

func main() {
	// Subcommand dispatch before flag parsing: `resim jobs ...` is the job
	// service client; everything else is the classic single-run CLI.
	if len(os.Args) > 1 && os.Args[1] == "jobs" {
		runJobs(os.Args[2:])
		return
	}
	var (
		tracePath = flag.String("trace", "", "trace file to simulate (from tracegen)")
		name      = flag.String("workload", "", "generate and simulate this workload on the fly")
		n         = flag.Uint64("n", 500_000, "instruction budget for -workload mode")
		confPath  = flag.String("config", "", "JSON configuration file (explicit flags override its fields)")
		saveConf  = flag.String("save-config", "", "write the effective configuration as JSON and exit")
		pipeTrace = flag.Int("pipetrace", 0, "render a pipeline diagram of the first N instructions")
		width     = flag.Int("width", 4, "processor width N")
		rb        = flag.Int("rb", 16, "reorder buffer entries")
		lsq       = flag.Int("lsq", 8, "load/store queue entries")
		ifq       = flag.Int("ifq", 4, "instruction fetch queue entries")
		perfectBP = flag.Bool("perfect-bp", false, "perfect branch prediction")
		caches    = flag.Bool("caches", false, "32K 8-way L1 I/D caches (default: perfect memory)")
		orgName   = flag.String("org", "optimized", "internal pipeline: simple, improved, optimized")
		device    = flag.String("device", "virtex5", "FPGA model for throughput: virtex4, virtex5")
		readPorts = flag.Int("read-ports", 0, "memory read ports (0 = auto)")
		report    = flag.Bool("report", true, "print the full statistics report")
		progress  = flag.Bool("progress", false, "report progress to stderr while simulating")
		ckptPath  = flag.String("checkpoint", "", "periodically save the engine state to this file (atomic; latest wins)")
		ckptEvery = flag.Uint64("checkpoint-every", 0, "cycles between checkpoints (0 = the observer default, 65536)")
		resumeCkp = flag.String("resume", "", "resume from a checkpoint file written by -checkpoint (same workload/trace and configuration)")
	)
	flag.Parse()

	// Configuration file first, explicit flags second: a flag the user typed
	// always wins, and flags left at their defaults never clobber the file.
	cfg := resim.DefaultConfig()
	if *confPath != "" {
		loaded, err := configfile.Load(*confPath)
		if err != nil {
			fatal(err)
		}
		cfg = loaded
	}
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	use := func(flagName string) bool { return *confPath == "" || set[flagName] }

	if use("width") {
		cfg.Width = *width
	}
	if use("rb") {
		cfg.RBSize = *rb
	}
	if use("lsq") {
		cfg.LSQSize = *lsq
	}
	if use("ifq") {
		cfg.IFQSize = *ifq
	}
	if use("perfect-bp") {
		cfg.PerfectBP = *perfectBP
	}
	if use("org") {
		org, err := resim.OrganizationByName(*orgName)
		if err != nil {
			fatal(err)
		}
		cfg.Organization = org
	}
	if set["caches"] { // -caches attaches the 32K L1s, -caches=false strips the file's
		if *caches {
			fast := resim.FASTComparisonConfig() // Table 1's 32K L1s
			cfg.ICache, cfg.DCache = fast.ICache, fast.DCache
		} else {
			cfg.ICache, cfg.DCache = resim.CacheSide{}, resim.CacheSide{}
		}
	}
	if *readPorts > 0 {
		cfg.MemReadPorts = *readPorts
	} else if *confPath == "" {
		// No file: the default port count is nobody's explicit choice, so
		// clamp it to the organization's limit. A config file's ports are
		// explicit — leave them and let validation surface any conflict
		// with flag-overridden width/org rather than silently simulating a
		// different machine.
		// max >= 1 mirrors Session.New's guard: at width 1 the Optimized
		// organization allows no read ports at all, and clamping to 0 would
		// swap the clear organization-limit error for a confusing one.
		if max := cfg.Organization.MaxMemPorts(cfg.Width); max >= 1 && cfg.MemReadPorts > max {
			cfg.MemReadPorts = max
		}
	}

	opts := []resim.Option{resim.WithConfig(cfg)}
	var collector *ptrace.Collector
	if *pipeTrace > 0 {
		collector = ptrace.New(*pipeTrace)
		opts = append(opts, resim.WithPipeTracer(collector))
	}
	if *ckptEvery > 0 && *ckptPath == "" {
		fmt.Fprintln(os.Stderr, "resim: -checkpoint-every has no effect without -checkpoint FILE")
	}
	if *ckptPath != "" {
		path := *ckptPath
		opts = append(opts, resim.WithCheckpointEvery(*ckptEvery, func(cp *resim.Checkpoint) error {
			return resim.SaveCheckpoint(path, cp)
		}))
	}
	if *resumeCkp != "" {
		cp, err := resim.LoadCheckpoint(*resumeCkp)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "resim: resuming from %s at cycle %d\n", *resumeCkp, cp.Cycles())
		opts = append(opts, resim.ResumeFrom(cp))
	}
	if *progress {
		opts = append(opts, resim.WithObserver(resim.ObserverFunc(func(p resim.Progress) {
			fmt.Fprintf(os.Stderr, "resim: %d cycles, %d committed, IPC %.3f\n",
				p.Cycles, p.Committed, p.IPC)
		}), 0))
	}
	ses, err := resim.New(opts...)
	if err != nil {
		fatal(err)
	}
	if *saveConf != "" {
		if err := configfile.Save(*saveConf, ses.Config()); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", *saveConf)
		return
	}

	var dev resim.Device
	switch *device {
	case "virtex4":
		dev = resim.Virtex4
	case "virtex5":
		dev = resim.Virtex5
	default:
		fatal(fmt.Errorf("unknown device %q", *device))
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var res resim.Result
	switch {
	case *tracePath != "" && *name != "":
		fatal(fmt.Errorf("use either -trace or -workload, not both"))
	case *tracePath != "":
		res, err = ses.RunTrace(ctx, *tracePath)
	case *name != "":
		res, err = ses.RunWorkload(ctx, *name, *n)
	default:
		fmt.Fprintln(os.Stderr, "resim: one of -trace or -workload is required")
		flag.Usage()
		os.Exit(2)
	}
	if err != nil {
		fatal(err)
	}

	if collector != nil {
		fmt.Print(collector.Render())
	}
	if *report {
		if err := res.Registry().Write(os.Stdout); err != nil {
			fatal(err)
		}
	}
	fmt.Printf("\nsimulated %d instructions in %d cycles (IPC %.3f)\n",
		res.Committed, res.Cycles, res.IPC())
	fmt.Printf("internal pipeline: %v, K = %d minor cycles per major cycle\n",
		ses.Config().Organization, ses.Config().MinorCyclesPerMajor())
	fmt.Printf("modeled simulation throughput on %s: %.2f MIPS\n",
		dev.Name, resim.SimulationMIPS(dev, ses.Config(), res))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "resim:", err)
	os.Exit(1)
}
