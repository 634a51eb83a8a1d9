package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the smoke-size golden digests")

// smokeOptions runs a workload at smokeSize for half a second.
func smokeOptions(t *testing.T, workload string, trace bool) options {
	return options{workload: workload, seed: 1, seconds: 0.5, trace: trace,
		out: t.TempDir(), golden: "testdata/golden.json", updateGolden: *updateGolden, size: smokeSize}
}

// ledgerMetrics reads the metric names and units BENCHMARK.json declares.
func ledgerMetrics(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range b.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range b.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

// checkPrinted asserts every wanted metric appears both as a
// "name value unit" line and in the JSON report, with its unit.
func checkPrinted(t *testing.T, out string, rep report, want map[string]string) {
	t.Helper()
	units := map[string]string{}
	for _, line := range strings.Split(out, "\n") {
		if f := strings.Fields(line); len(f) == 3 {
			units[f[0]] = f[2]
		}
	}
	for name, unit := range want {
		if units[name] != unit {
			t.Errorf("metric %s printed with unit %q, want %q", name, units[name], unit)
		}
		if m, ok := rep.Metrics[name]; !ok || m.Unit != unit {
			t.Errorf("JSON report lacks %s in %s", name, unit)
		}
	}
	if len(rep.Metrics) != len(want) {
		t.Errorf("JSON report has %d metrics, BENCHMARK.json lists %d", len(rep.Metrics), len(want))
	}
	last := strings.Split(strings.TrimSpace(out), "\n")
	var tail report
	if err := json.Unmarshal([]byte(last[len(last)-1]), &tail); err != nil {
		t.Errorf("last line is not the JSON report: %v", err)
	}
}

// TestSmoke runs every workload untraced and traced at a tiny size: the
// correctness checks and golden digests must pass, every metric
// BENCHMARK.json names must be reported with its unit, and spans must
// cover at least 90% of traced op time.
func TestSmoke(t *testing.T) {
	endToEnd, perLayer := ledgerMetrics(t)
	for _, w := range workloadNames() {
		for _, traced := range []bool{false, true} {
			var out bytes.Buffer
			rep, err := run(context.Background(), smokeOptions(t, w, traced), &out)
			if err != nil {
				t.Fatalf("%s (traced %v): %v", w, traced, err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
				t.Fatalf("%s (traced %v): correct %v, %d of %d ops failed\n%s", w, traced, rep.Correct, rep.Failed, rep.Attempted, out.String())
			}
			if !traced {
				checkPrinted(t, out.String(), rep, endToEnd)
				continue
			}
			checkPrinted(t, out.String(), rep, perLayer)
			if u := rep.Metrics["trace.unattributed_frac"].Value; u > 0.10 {
				t.Errorf("%s: trace.unattributed_frac %.3f > 0.10", w, u)
			}
		}
	}
}

// TestCorruptedReferenceFails flips one input's reference digest after
// set-up: every op replaying that input must then fail its check and the
// run must report itself incorrect.
func TestCorruptedReferenceFails(t *testing.T) {
	o := smokeOptions(t, "replay", false)
	o.corruptRef, o.updateGolden = true, false
	var out bytes.Buffer
	rep, err := run(context.Background(), o, &out)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Correct || rep.Failed == 0 {
		t.Fatalf("corrupted reference passed: correct %v, %d of %d ops failed", rep.Correct, rep.Failed, rep.Attempted)
	}
}
