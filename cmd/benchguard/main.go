// Command benchguard is the CI benchmark-regression gate. It times every
// gate benchmark in two test binaries, one built at the parent commit and
// one at the change, back to back on the same host, and fails when the
// change is slower than the parent beyond a threshold (default 20%):
//
//	go run ./cmd/benchguard [-threshold 0.20] parent.test change.test "$BENCH_GATE"
//
// Build each binary with `go test -c` into the root of its own checkout:
// a binary runs in the directory that holds it, as `go test` would run it.
//
// Each of the pattern's |-separated alternatives runs on its own, with
// -test.benchtime=200ms -test.count=1. A round runs every alternative in
// both binaries, the parent first in even rounds and the change first in
// odd ones, so drift in the host's speed lands on both sides alike. Each
// round yields one change/parent ns/op ratio per benchmark, and a benchmark
// fails when the median of its ratios is above 1+threshold. The host's
// speed divides out of every ratio, so there is no committed baseline to
// refresh. A gate benchmark the change does not run fails; one only the
// change runs is new and not gated. A run that exits non-zero fails the
// gate.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// rounds is the number of paired runs per benchmark; CHANGES.md records
// the local A/A runs it was set from.
const rounds = 20

// benchLine matches one result line of `go test -bench` output, e.g.
// "BenchmarkSweepWarmCache-8   30   38463802 ns/op   1.23 IPC".
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([0-9.]+) ns/op`)

// parseBench reads bench output into ns/op per benchmark, with the
// GOMAXPROCS suffix stripped from the names.
func parseBench(out string) (map[string]float64, error) {
	res := map[string]float64{}
	sc := bufio.NewScanner(strings.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		ns, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			return nil, fmt.Errorf("benchguard: bad ns/op in %q: %w", sc.Text(), err)
		}
		res[m[1]] = ns
	}
	return res, sc.Err()
}

// runner runs one test binary on one benchmark pattern and returns its
// output.
type runner func(bin, bench string) (string, error)

// runBinary is the real runner: the binary runs in its own directory.
func runBinary(bin, bench string) (string, error) {
	cmd := exec.Command(bin, "-test.run", "^$", "-test.bench", bench,
		"-test.benchtime=200ms", "-test.count=1")
	cmd.Dir = filepath.Dir(bin)
	out, err := cmd.CombinedOutput()
	if err != nil {
		return "", fmt.Errorf("benchguard: %s -test.bench %q: %w\n%s", bin, bench, err, out)
	}
	return string(out), nil
}

// samples holds one benchmark's ns/op per side and its per-round
// change/parent ratios.
type samples struct {
	parent, change, ratios []float64
}

// measure runs every alternative of the gate pattern in both binaries for
// n rounds, alternating which binary goes first. An alternative that
// matches no benchmark in either binary is recorded under its own pattern
// with no samples, so it fails as missing.
func measure(run runner, parent, change string, alts []string, n int) (map[string]*samples, error) {
	got := map[string]*samples{}
	entry := func(name string) *samples {
		if got[name] == nil {
			got[name] = &samples{}
		}
		return got[name]
	}
	bins := [2]string{parent, change}
	for r := 0; r < n; r++ {
		order := [2]int{0, 1}
		if r%2 == 1 {
			order = [2]int{1, 0}
		}
		for _, alt := range alts {
			var res [2]map[string]float64
			for _, k := range order {
				out, err := run(bins[k], alt)
				if err != nil {
					return nil, err
				}
				if res[k], err = parseBench(out); err != nil {
					return nil, err
				}
			}
			p, c := res[0], res[1]
			if len(p) == 0 && len(c) == 0 {
				entry(alt)
			}
			for name, ns := range p {
				s := entry(name)
				s.parent = append(s.parent, ns)
			}
			for name, ns := range c {
				s := entry(name)
				s.change = append(s.change, ns)
				if pns, ok := p[name]; ok && pns > 0 {
					s.ratios = append(s.ratios, ns/pns)
				}
			}
		}
	}
	return got, nil
}

// verdict is one benchmark's gate outcome.
type verdict struct {
	name                  string
	parent, change, ratio float64 // medians
	wins, rounds          int     // rounds in which the change was faster, of all paired rounds
	regressed             bool
	missing               bool // not run at the change
	added                 bool // run at the change only: new, not gated
}

// judge turns measured samples into verdicts, sorted by name.
func judge(got map[string]*samples, threshold float64) []verdict {
	out := make([]verdict, 0, len(got))
	for name, s := range got {
		v := verdict{name: name, parent: median(s.parent), change: median(s.change),
			ratio: median(s.ratios), rounds: len(s.ratios)}
		for _, r := range s.ratios {
			if r < 1 {
				v.wins++
			}
		}
		switch {
		case len(s.change) == 0:
			v.missing = true
		case len(s.parent) == 0:
			v.added = true
		default:
			v.regressed = v.ratio > 1+threshold
		}
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// report prints the verdict table and reports whether the gate passed.
func report(w io.Writer, vs []verdict, threshold float64) bool {
	ok := true
	fmt.Fprintf(w, "%-40s %14s %14s %7s %6s\n", "benchmark", "parent ns/op", "change ns/op", "ratio", "wins")
	for _, v := range vs {
		switch {
		case v.missing:
			ok = false
			fmt.Fprintf(w, "%-40s %14.0f %14s %7s %6s  MISSING at the change\n", v.name, v.parent, "-", "-", "-")
		case v.added:
			fmt.Fprintf(w, "%-40s %14s %14.0f %7s %6s  new, not gated\n", v.name, "-", v.change, "-", "-")
		default:
			tag := ""
			if v.regressed {
				ok = false
				tag = fmt.Sprintf("  REGRESSED (> %.2fx)", 1+threshold)
			}
			fmt.Fprintf(w, "%-40s %14.0f %14.0f %6.3fx %6s%s\n", v.name, v.parent, v.change, v.ratio,
				fmt.Sprintf("%d/%d", v.wins, v.rounds), tag)
		}
	}
	return ok
}

func run() error {
	threshold := flag.Float64("threshold", 0.20, "tolerated rise of the median change/parent ns/op ratio (0.20 = 1.20x)")
	flag.Usage = func() {
		fmt.Fprintln(flag.CommandLine.Output(), "usage: benchguard [-threshold 0.20] parent.test change.test PATTERN")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 3 {
		flag.Usage()
		os.Exit(2)
	}
	parent, err := filepath.Abs(flag.Arg(0))
	if err != nil {
		return err
	}
	change, err := filepath.Abs(flag.Arg(1))
	if err != nil {
		return err
	}
	got, err := measure(runBinary, parent, change, strings.Split(flag.Arg(2), "|"), rounds)
	if err != nil {
		return err
	}
	if !report(os.Stdout, judge(got, *threshold), *threshold) {
		return fmt.Errorf("benchguard: a gate benchmark is slower than %.2fx its parent, or the change does not run it", 1+*threshold)
	}
	fmt.Printf("benchguard: OK (%d paired rounds)\n", rounds)
	return nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
