package main

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: repro
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkSweepWarmCache-8   	      30	  38463802 ns/op	         1.23 IPC
BenchmarkSweepUncached      	      15	  76014654 ns/op
BenchmarkTable1PerfectMemory/gzip-8 	 50	  20000000 ns/op
PASS
ok  	repro	0.6s
`

func TestParseBench(t *testing.T) {
	got, err := parseBench(sample)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"BenchmarkSweepWarmCache":           38463802,
		"BenchmarkSweepUncached":            76014654,
		"BenchmarkTable1PerfectMemory/gzip": 20000000,
	}
	if len(got) != len(want) {
		t.Fatalf("parsed %v, want %v", got, want)
	}
	for name, ns := range want {
		if got[name] != ns {
			t.Errorf("%s = %v, want %v", name, got[name], ns)
		}
	}
}

// fakeBins serves synthetic `go test -bench` output in place of two test
// binaries: ns holds each binary's ns/op per benchmark, and every run is
// scaled by seeded noise of up to ±4%.
type fakeBins struct {
	ns    map[string]map[string]float64
	fail  string // runs of this binary exit non-zero
	rng   *rand.Rand
	calls []string // "bin bench", in run order
}

func newFake(parent, change map[string]float64) *fakeBins {
	return &fakeBins{ns: map[string]map[string]float64{"parent": parent, "change": change},
		rng: rand.New(rand.NewSource(1))}
}

func (f *fakeBins) run(bin, bench string) (string, error) {
	f.calls = append(f.calls, bin+" "+bench)
	if bin == f.fail {
		return "", errors.New("exit status 1")
	}
	var b strings.Builder
	b.WriteString("goos: linux\npkg: repro\n")
	name := strings.TrimSuffix(bench, "$")
	if ns, ok := f.ns[bin][name]; ok {
		fmt.Fprintf(&b, "%s-2   \t      10\t  %.0f ns/op\n", name, ns*(0.96+0.08*f.rng.Float64()))
	}
	b.WriteString("PASS\n")
	return b.String(), nil
}

// gate runs the whole pipeline on the fake binaries.
func (f *fakeBins) gate(t *testing.T, pattern string) (map[string]verdict, string, bool) {
	t.Helper()
	got, err := measure(f.run, "parent", "change", strings.Split(pattern, "|"), rounds)
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	vs := judge(got, 0.20)
	ok := report(&out, vs, 0.20)
	byName := map[string]verdict{}
	for _, v := range vs {
		byName[v.name] = v
	}
	return byName, out.String(), ok
}

var gateNs = map[string]float64{"BenchmarkA": 1e6, "BenchmarkB": 5e6, "BenchmarkC": 2e7}

const gatePattern = "BenchmarkA$|BenchmarkB$|BenchmarkC$"

func TestGateAAPasses(t *testing.T) {
	f := newFake(gateNs, gateNs)
	vs, out, ok := f.gate(t, gatePattern)
	if !ok {
		t.Fatalf("A/A gate failed:\n%s", out)
	}
	if len(vs) != 3 {
		t.Fatalf("verdicts %v, want three", vs)
	}
	for _, v := range vs {
		if v.rounds != rounds || v.ratio < 0.85 || v.ratio > 1.15 {
			t.Errorf("%s: median ratio %.3f over %d rounds", v.name, v.ratio, v.rounds)
		}
	}
	// Every alternative runs alone, and the binaries take turns going first.
	if len(f.calls) != 2*3*rounds {
		t.Fatalf("%d runs, want %d", len(f.calls), 2*3*rounds)
	}
	if f.calls[0] != "parent BenchmarkA$" || f.calls[1] != "change BenchmarkA$" ||
		f.calls[6] != "change BenchmarkA$" || f.calls[7] != "parent BenchmarkA$" {
		t.Errorf("run order %v: want parent first in even rounds, change first in odd ones", f.calls[:8])
	}
}

func TestCompareFlagsRegressions(t *testing.T) {
	slower := map[string]float64{}
	for name, ns := range gateNs {
		slower[name] = ns
	}
	slower["BenchmarkB"] *= 1.25
	vs, out, ok := newFake(gateNs, slower).gate(t, gatePattern)
	if ok {
		t.Fatalf("a 1.25x regression passed:\n%s", out)
	}
	for name, v := range vs {
		if v.regressed != (name == "BenchmarkB") {
			t.Errorf("%s: regressed=%v at median ratio %.3f", name, v.regressed, v.ratio)
		}
	}
	if strings.Count(out, "REGRESSED") != 1 {
		t.Errorf("report should flag BenchmarkB alone:\n%s", out)
	}
}

func TestGateMissingAtChangeFails(t *testing.T) {
	change := map[string]float64{"BenchmarkA": 1e6, "BenchmarkB": 5e6}
	vs, out, ok := newFake(gateNs, change).gate(t, gatePattern)
	if ok || !vs["BenchmarkC"].missing {
		t.Fatalf("a gate benchmark the change does not run passed:\n%s", out)
	}
	if !strings.Contains(out, "MISSING") {
		t.Errorf("report does not name the missing benchmark:\n%s", out)
	}
	// A pattern matching nothing on either side fails under its own name.
	vs, _, ok = newFake(gateNs, gateNs).gate(t, "BenchmarkA$|BenchmarkGone$")
	if ok || !vs["BenchmarkGone$"].missing {
		t.Errorf("a gate alternative that matches no benchmark passed: %v", vs)
	}
}

func TestGateNewBenchmarkNotGated(t *testing.T) {
	parent := map[string]float64{"BenchmarkA": 1e6, "BenchmarkB": 5e6}
	vs, out, ok := newFake(parent, gateNs).gate(t, gatePattern)
	if !ok {
		t.Fatalf("a benchmark new at the change failed the gate:\n%s", out)
	}
	if !vs["BenchmarkC"].added || !strings.Contains(out, "new, not gated") {
		t.Errorf("BenchmarkC not reported as new:\n%s", out)
	}
}

func TestGateFailedRunFails(t *testing.T) {
	for _, bin := range []string{"parent", "change"} {
		f := newFake(gateNs, gateNs)
		f.fail = bin
		if _, err := measure(f.run, "parent", "change", strings.Split(gatePattern, "|"), rounds); err == nil {
			t.Errorf("a failing %s run passed the gate", bin)
		}
	}
}
