package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/sweepd"
)

// size sets how much simulated work one op does. fullSize is the
// benchmark; the smoke test uses smokeSize so every workload finishes in
// about a second. The name selects the golden digest entry.
type size struct {
	name        string
	replayInstr uint64 // per replayed trace
	sweepInstr  uint64 // per sweep point
	jobInstr    uint64 // per job point
	coreInstr   uint64 // per multicore core
}

var (
	fullSize  = size{name: "full", replayInstr: 500_000, sweepInstr: 100_000, jobInstr: 10_000, coreInstr: 250_000}
	smokeSize = size{name: "smoke", replayInstr: 3_000, sweepInstr: 2_000, jobInstr: 2_000, coreInstr: 3_000}
)

const (
	// windows is how many equal-work windows the end-to-end metrics are
	// computed over; a traced run alternates as many equal time slots.
	windows = 20
	// minWindowOps is the fewest ops in a window, so that every window's
	// p90 rests on at least ten ops.
	minWindowOps = 10
	// setupReps is how many times set-up is repeated from scratch; setup_s
	// and resident_mb are the medians.
	setupReps = 3
	// maxErrors bounds the distinct check failures a run reports.
	maxErrors = 20
	// opTimeout fails an op that has not finished, so a hung layer shows
	// as failed ops instead of a run that never ends.
	opTimeout = 60 * time.Second
)

// setupFunc builds one workload instance from scratch.
type setupFunc func(ctx context.Context, e setupEnv) (instance, error)

// setupEnv is what one set-up repetition gets.
type setupEnv struct {
	o    options
	work string  // scratch directory owned by this repetition
	tr   *tracer // nil unless traced; off until the measured phase
}

// instance is one set-up workload, ready to run ops.
type instance interface {
	// clients is the number of closed-loop clients issuing ops at once.
	clients() int
	// schedule is the seeded order of op inputs: client c's n-th op
	// replays schedule[(n*clients+c) % len(schedule)].
	schedule() []string
	// warmup lists the inputs set-up runs once before timing starts.
	warmup() []string
	// op runs one op on input for client c; n is the client's op count
	// (-1 outside the measured phase) and tc is nil unless traced.
	op(ctx context.Context, c, n int, input string, tc *opTrace) (outcome, error)
	// counters snapshots cumulative layer counters; a traced run reports
	// their growth over its traced slots.
	counters() map[string]float64
	// traces lists warm trace-cache entries for the traced run's probe.
	traces() []cachedTrace
	close() error
}

// outcome is what one successful op produced.
type outcome struct {
	digest    string // see resultsDigest
	committed uint64 // simulated instructions committed
}

// completion records one finished op of the measured phase.
type completion struct {
	start, end time.Duration // since the phase started
	committed  uint64
	failed     bool
}

// namedMetric is one metric in print order.
type namedMetric struct {
	name  string
	value float64
	unit  string
}

// runResult is everything measureWorkload found.
type runResult struct {
	metrics   []namedMetric
	attempted int
	failed    int
	errors    []string // distinct check failures, for stderr
	goldenErr error
}

// measureWorkload sets the workload up setupReps times, runs the measured
// phase on the last instance and checks every result.
func measureWorkload(ctx context.Context, setup setupFunc, o options) (runResult, error) {
	work := filepath.Join(o.out, "work", fmt.Sprintf("%s-%d", o.workload, os.Getpid()))
	defer os.RemoveAll(work)
	refs := newReferences()
	var tr *tracer
	if o.trace {
		tr = newTracer(filepath.Join(o.out, "trace", fmt.Sprintf("%s-seed%d", o.workload, o.seed)))
	}
	var inst instance
	setups := make([]float64, 0, setupReps)
	resident := make([]float64, 0, setupReps)
	for i := 0; i < setupReps; i++ {
		if inst != nil {
			if err := inst.close(); err != nil {
				return runResult{}, err
			}
			inst = nil
			runtime.GC() // start every repetition from the same heap
		}
		start := time.Now()
		var err error
		inst, err = setup(ctx, setupEnv{o: o, work: filepath.Join(work, fmt.Sprint(i)), tr: tr})
		if err != nil {
			return runResult{}, fmt.Errorf("set-up: %w", err)
		}
		refs.reset()
		for _, in := range inst.warmup() {
			out, err := runOp(ctx, inst, 0, -1, in, nil)
			if err != nil {
				inst.close()
				return runResult{}, fmt.Errorf("warm-up %s: %w", in, err)
			}
			refs.check(in, out.digest)
		}
		setups = append(setups, time.Since(start).Seconds())
		// What stays resident once set-up's garbage is collected and
		// returned to the kernel is the loaded workload itself.
		debug.FreeOSMemory()
		mb, err := residentMB()
		if err != nil {
			inst.close()
			return runResult{}, fmt.Errorf("set-up: %w", err)
		}
		resident = append(resident, mb)
	}
	defer inst.close()
	if o.corruptRef {
		refs.corrupt(inst.warmup()[0])
	}

	ph, err := runPhase(ctx, inst, refs, tr, time.Duration(o.seconds*float64(time.Second)))
	if err != nil {
		return runResult{}, err
	}
	res := runResult{attempted: len(ph.completions), errors: ph.errors}
	for _, c := range ph.completions {
		if c.failed {
			res.failed++
		}
	}
	// Inputs the phase never reached still get a reference, so the golden
	// digest always covers the whole schedule.
	for _, in := range inst.schedule() {
		if refs.has(in) {
			continue
		}
		out, err := runOp(ctx, inst, 0, -1, in, nil)
		if err != nil {
			return runResult{}, fmt.Errorf("reference %s: %w", in, err)
		}
		refs.check(in, out.digest)
	}
	res.goldenErr = checkGolden(o, refs.digest())

	if tr != nil {
		res.metrics, err = tr.layerMetrics(ctx, inst, ph)
		if err != nil {
			return runResult{}, err
		}
		return res, nil
	}
	// The shared host slows whole stretches of a run and never speeds one
	// up, so the run's fast quartile of windows tracks the program's own
	// speed more steadily than the whole run or its median window.
	ops, mips, p50, p90 := windowStats(ph.completions, len(inst.schedule()))
	res.metrics = []namedMetric{
		{"host_mips", quantile(mips, 0.75), "MIPS"},
		{"ops_per_s", quantile(ops, 0.75), "1/s"},
		{"op_p50_ms", quantile(p50, 0.25), "ms"},
		{"op_p90_ms", quantile(p90, 0.25), "ms"},
		{"setup_s", median(setups), "s"},
		{"resident_mb", median(resident), "MB"},
	}
	return res, nil
}

// runOp runs one op under opTimeout.
func runOp(ctx context.Context, inst instance, c, n int, in string, tc *opTrace) (outcome, error) {
	ctx, cancel := context.WithTimeout(ctx, opTimeout)
	defer cancel()
	return inst.op(ctx, c, n, in, tc)
}

// phase is the measured phase's record.
type phase struct {
	start       time.Time
	length      time.Duration
	completions []completion
	errors      []string
	// traced marks, per slot of a traced run, whether tracing was on.
	slots []bool
}

// runPhase drives every client in a closed loop for length, checking each
// op's digest against the input's reference. With a tracer it alternates
// untraced and traced slots of equal length.
func runPhase(ctx context.Context, inst instance, refs *references, tr *tracer, length time.Duration) (*phase, error) {
	ph := &phase{start: time.Now(), length: length}
	deadline := ph.start.Add(length)
	sched := inst.schedule()
	nc := inst.clients()
	var (
		mu     sync.Mutex
		seen   = map[string]bool{}
		wg     sync.WaitGroup
		opSeq  atomic.Int64
		fatal  error
		stopCh = make(chan struct{})
	)
	record := func(c completion, msg string) {
		mu.Lock()
		defer mu.Unlock()
		ph.completions = append(ph.completions, c)
		if msg != "" && !seen[msg] && len(ph.errors) < maxErrors {
			seen[msg] = true
			ph.errors = append(ph.errors, msg)
		}
	}
	for c := 0; c < nc; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; time.Now().Before(deadline) && ctx.Err() == nil; n++ {
				in := sched[(n*nc+c)%len(sched)]
				tc := tr.beginOp(opSeq.Add(1))
				start := time.Now()
				out, err := runOp(ctx, inst, c, n, in, tc)
				end := time.Now()
				tc.end()
				comp := completion{start: start.Sub(ph.start), end: end.Sub(ph.start), committed: out.committed}
				var msg string
				if err == nil {
					err = refs.check(in, out.digest)
				}
				if err != nil {
					comp.failed = true
					msg = fmt.Sprintf("%s: %v", in, err)
				}
				if ctx.Err() != nil {
					mu.Lock()
					fatal = ctx.Err()
					mu.Unlock()
					return
				}
				record(comp, msg)
			}
		}()
	}
	var ctl sync.WaitGroup
	if tr != nil {
		ctl.Add(1)
		go func() {
			defer ctl.Done()
			ph.slots = tr.alternate(inst, ph.start, length, stopCh)
		}()
	}
	wg.Wait()
	close(stopCh)
	ctl.Wait()
	if fatal != nil {
		return nil, fatal
	}
	sort.Slice(ph.completions, func(i, j int) bool { return ph.completions[i].end < ph.completions[j].end })
	return ph, nil
}

// windowStats splits the phase's completions into about `windows` windows
// of equal work, each at least minWindowOps long, and returns each
// window's successful ops per second, committed simulated MIPS, and the
// median and 90th-percentile latency of its successful ops in ms. A window
// is a run of consecutive completions whose length is a whole multiple of
// the schedule's period, so every window replays the same mix of inputs
// and windows differ only in how fast the host ran them. Completions past
// the last whole window are left out.
func windowStats(cs []completion, period int) (ops, mips, p50, p90 []float64) {
	size := period * max((minWindowOps+period-1)/period, len(cs)/(period*windows))
	size = min(size, len(cs)-len(cs)%period) // a short run still gets one window
	var prev time.Duration
	for lo := 0; size > 0 && lo+size <= len(cs); lo += size {
		var committed uint64
		var lat []float64
		for _, c := range cs[lo : lo+size] {
			if !c.failed {
				committed += c.committed
				lat = append(lat, (c.end-c.start).Seconds()*1e3)
			}
		}
		end := cs[lo+size-1].end
		secs := (end - prev).Seconds()
		ops = append(ops, float64(len(lat))/secs)
		mips = append(mips, float64(committed)/secs/1e6)
		p50 = append(p50, quantile(lat, 0.5))
		p90 = append(p90, quantile(lat, 0.9))
		prev = end
	}
	return ops, mips, p50, p90
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs with linear interpolation between
// order statistics (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// residentMB is the process's current resident set in MiB, read from
// /proc/self/statm (whose second field counts resident pages).
func residentMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, err
	}
	f := strings.Fields(string(data))
	if len(f) < 2 {
		return 0, fmt.Errorf("/proc/self/statm: unexpected %q", data)
	}
	pages, err := strconv.ParseUint(f[1], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("/proc/self/statm: %w", err)
	}
	return float64(pages*uint64(os.Getpagesize())) / (1 << 20), nil
}

// references holds the first digest seen per input; every later op on the
// same input must reproduce it exactly.
type references struct {
	mu sync.Mutex
	m  map[string]string
}

func newReferences() *references { return &references{m: map[string]string{}} }

func (r *references) reset() {
	r.mu.Lock()
	r.m = map[string]string{}
	r.mu.Unlock()
}

func (r *references) has(in string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	_, ok := r.m[in]
	return ok
}

// check records digest as in's reference, or compares it with the one
// already recorded.
func (r *references) check(in, digest string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	ref, ok := r.m[in]
	if !ok {
		r.m[in] = digest
		return nil
	}
	if ref != digest {
		return fmt.Errorf("results differ from the first run of this input (%.12s vs %.12s)", digest, ref)
	}
	return nil
}

func (r *references) corrupt(in string) {
	r.mu.Lock()
	r.m[in] = "corrupted-" + r.m[in]
	r.mu.Unlock()
}

// digest combines every input's reference, in input-name order.
func (r *references) digest() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.m))
	for in := range r.m {
		names = append(names, in)
	}
	sort.Strings(names)
	h := sha256.New()
	for _, in := range names {
		fmt.Fprintf(h, "%s=%s\n", in, r.m[in])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// resultsDigest is the SHA-256 of the results' wire form: every counter,
// cache statistic and occupancy of core.Result, with Config stripped.
func resultsDigest(rs ...core.Result) string {
	ws := make([]*sweepd.WireRunResult, len(rs))
	for i, r := range rs {
		ws[i] = sweepd.WireRunResultOf(r)
	}
	return wireDigest(ws...)
}

// wireDigest is resultsDigest over results already in wire form.
func wireDigest(ws ...*sweepd.WireRunResult) string {
	h := sha256.New()
	enc := json.NewEncoder(h)
	for _, w := range ws {
		enc.Encode(w) //nolint:errcheck // hashes never fail to write
	}
	return hex.EncodeToString(h.Sum(nil))
}

// checkGolden compares the run's combined digest with the committed one
// for seed 1 (held-out seeds skip it), or rewrites it with -update-golden.
func checkGolden(o options, digest string) error {
	if o.seed != 1 {
		return nil
	}
	golden := map[string]map[string]string{}
	data, err := os.ReadFile(o.golden)
	if err != nil && !(o.updateGolden && os.IsNotExist(err)) {
		return fmt.Errorf("golden: %w", err)
	}
	if len(data) > 0 {
		if err := json.Unmarshal(data, &golden); err != nil {
			return fmt.Errorf("golden: %s: %w", o.golden, err)
		}
	}
	if o.updateGolden {
		if golden[o.workload] == nil {
			golden[o.workload] = map[string]string{}
		}
		golden[o.workload][o.size.name] = digest
		out, err := json.MarshalIndent(golden, "", "  ")
		if err != nil {
			return err
		}
		return os.WriteFile(o.golden, append(out, '\n'), 0o644)
	}
	want, ok := golden[o.workload][o.size.name]
	if !ok {
		return fmt.Errorf("golden: no digest for %s/%s in %s; run with -update-golden", o.workload, o.size.name, o.golden)
	}
	if want != digest {
		return fmt.Errorf("golden: %s/%s results digest %s, want %s", o.workload, o.size.name, digest, want)
	}
	return nil
}
