// Command tracegen produces ReSim input traces off-line, the "traces that
// are prepared off-line (for example for bulk simulations with varying
// design parameters)" mode of the paper. It runs the sim-bpred-style
// functional simulator over a synthetic SPECINT workload and writes the
// bit-packed B/M/O record stream, including tagged wrong-path blocks.
// The container ends in a trailer (record count and payload CRC-32) that
// resim -trace checks. Trace files from before the trailer (container
// versions 1 and 2) are refused; generation is deterministic, so
// rerunning tracegen with the same flags rebuilds the same records.
//
// Usage:
//
//	tracegen -workload gzip -n 1000000 -o gzip.trace
//	tracegen -workload parser -perfect-bp -o parser-nobp.trace
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	resim "repro"
)

func main() {
	var (
		name      = flag.String("workload", "gzip", "workload profile: "+strings.Join(workloadNames(), ", "))
		n         = flag.Uint64("n", 1_000_000, "correct-path instructions to trace")
		out       = flag.String("o", "", "output trace file (required)")
		perfectBP = flag.Bool("perfect-bp", false, "assume perfect branch prediction (no wrong-path blocks)")
		width     = flag.Int("width", 4, "simulated processor width (sets the wrong-path block size via RB+IFQ)")
		compress  = flag.Bool("compress", false, "write the delta-compressed container (~1.4x smaller)")
	)
	flag.Parse()
	if *out == "" {
		fmt.Fprintln(os.Stderr, "tracegen: -o is required")
		flag.Usage()
		os.Exit(2)
	}

	opts := []resim.Option{resim.WithWidth(*width)}
	if *perfectBP {
		opts = append(opts, resim.WithPerfectBP())
	}
	ses, err := resim.New(opts...)
	if err != nil {
		fatal(err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	f, err := os.Create(*out)
	if err != nil {
		fatal(err)
	}
	st, err := ses.WriteTrace(ctx, f, *name, *n, *compress)
	if err != nil {
		_ = f.Close()
		_ = os.Remove(*out) // don't leave a cut container behind
		fatal(err)
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s: %d records (%d wrong-path), %.2f bits/instr, %.1f MB\n",
		*out, st.Records, st.WrongPath, st.BitsPerInstr, float64(st.Bits)/8/1e6)
}

func workloadNames() []string {
	var names []string
	for _, w := range resim.Workloads() {
		names = append(names, w.Name)
	}
	return names
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tracegen:", err)
	os.Exit(1)
}
