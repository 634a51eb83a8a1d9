// Package obs is the service stack's observability layer: a stdlib-only
// metrics registry with Prometheus text exposition, structured logging on
// log/slog (each layer's Log field), and pprof mounting for the daemon's
// HTTP server.
//
// The registry holds labeled families of counters, gauges and fixed-bucket
// histograms. Every family carries mandatory HELP text and a TYPE, so the
// exposition is uniform by construction; Families lets tooling (cmd/doclint)
// diff the registered inventory against documentation. Instruments are
// nil-safe: every method no-ops on a nil receiver, so a layer built without
// a registry attached pays one nil check per event — observability detaches
// to near-zero cost instead of demanding stub plumbing.
package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// DurationBuckets is the default histogram bucket layout for latencies in
// seconds: 1ms to 10min, roughly 2.5x apart — wide enough to span a queue
// wait on an idle platform and a multi-minute sweep.
var DurationBuckets = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
	1, 2.5, 5, 10, 30, 60, 120, 300, 600,
}

var (
	metricName = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelName  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

// Registry is a set of metric families. Build one with NewRegistry;
// constructors on a nil *Registry return nil instruments whose methods
// no-op, so call sites never branch on whether observability is wired.
type Registry struct {
	mu       sync.Mutex
	families []*family
	byName   map[string]*family
}

// FamilyInfo describes one registered family — the inventory row tooling
// compares against docs/OBSERVABILITY.md.
type FamilyInfo struct {
	Name   string
	Type   string // "counter", "gauge" or "histogram"
	Help   string
	Labels []string
}

// family is one registered metric family.
type family struct {
	name    string
	typ     string
	help    string
	labels  []string
	buckets []float64 // histograms only

	collect func() float64 // Func collectors; nil otherwise

	mu     sync.Mutex
	series map[string]*series
	order  []string
}

// series is one labeled instrument inside a family.
type series struct {
	labelValues []string
	value       atomicFloat // counters and gauges
	hist        *histState  // histograms
}

// atomicFloat is a float64 with atomic Add/Set via CAS on the bit pattern.
type atomicFloat struct{ bits atomic.Uint64 }

func (a *atomicFloat) Add(d float64) {
	for {
		old := a.bits.Load()
		if a.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+d)) {
			return
		}
	}
}
func (a *atomicFloat) Set(v float64) { a.bits.Store(math.Float64bits(v)) }
func (a *atomicFloat) Get() float64  { return math.Float64frombits(a.bits.Load()) }

// histState is one histogram series: non-cumulative per-bucket counts (the
// writer cumulates), plus sum and count.
type histState struct {
	bounds []float64
	counts []atomic.Uint64 // len(bounds)+1; last is +Inf
	sum    atomicFloat
	count  atomic.Uint64
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

// register validates and installs a family; registration errors are
// programmer errors and panic.
func (r *Registry) register(name, typ, help string, labels []string, buckets []float64, collect func() float64) *family {
	if !metricName.MatchString(name) {
		panic("obs: invalid metric name " + strconv.Quote(name))
	}
	if help == "" {
		panic("obs: metric " + name + " registered without HELP text")
	}
	for _, l := range labels {
		if !labelName.MatchString(l) || l == "le" {
			panic("obs: metric " + name + " has invalid label " + strconv.Quote(l))
		}
	}
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic("obs: metric " + name + " has non-increasing buckets")
		}
	}
	f := &family{name: name, typ: typ, help: help,
		labels: append([]string(nil), labels...),
		series: make(map[string]*series), collect: collect}
	if typ == "histogram" {
		if len(buckets) == 0 {
			buckets = DurationBuckets
		}
		f.buckets = append([]float64(nil), buckets...)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byName[name]; dup {
		panic("obs: metric " + name + " registered twice")
	}
	r.byName[name] = f
	r.families = append(r.families, f)
	return f
}

// with returns (creating on demand) the series for the label values.
func (f *family) with(values []string) *series {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %s wants %d label values, got %d",
			f.name, len(f.labels), len(values)))
	}
	key := strings.Join(values, "\x00")
	f.mu.Lock()
	defer f.mu.Unlock()
	s := f.series[key]
	if s == nil {
		s = &series{labelValues: append([]string(nil), values...)}
		if f.typ == "histogram" {
			s.hist = &histState{bounds: f.buckets, counts: make([]atomic.Uint64, len(f.buckets)+1)}
		}
		f.series[key] = s
		f.order = append(f.order, key)
	}
	return s
}

// Counter is a monotonically increasing metric. All methods no-op on nil.
type Counter struct{ s *series }

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds d (must be non-negative; not enforced — the source is trusted).
func (c *Counter) Add(d float64) {
	if c == nil {
		return
	}
	c.s.value.Add(d)
}

// Set overwrites the counter's value. Reserved for counters mirroring an
// external monotonic source (a snapshot struct another lock guards), where
// re-applying the source's absolute value is the race-free way to publish.
func (c *Counter) Set(v float64) {
	if c == nil {
		return
	}
	c.s.value.Set(v)
}

// Gauge is a metric that can go up and down. All methods no-op on nil.
type Gauge struct{ s *series }

// Set overwrites the gauge.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.s.value.Set(v)
}

// Add adds d (negative to decrease).
func (g *Gauge) Add(d float64) {
	if g == nil {
		return
	}
	g.s.value.Add(d)
}

// Inc adds one.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.Add(-1) }

// Histogram accumulates observations into fixed buckets. All methods no-op
// on nil.
type Histogram struct{ s *series }

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	st := h.s.hist
	i := sort.SearchFloat64s(st.bounds, v) // first bound >= v (le semantics)
	st.counts[i].Add(1)
	st.sum.Add(v)
	st.count.Add(1)
}

// CounterVec is a counter family with labels. With on nil returns nil.
type CounterVec struct{ f *family }

// With returns the counter for the label values (created on first use).
func (v *CounterVec) With(labelValues ...string) *Counter {
	if v == nil {
		return nil
	}
	return &Counter{s: v.f.with(labelValues)}
}

// GaugeVec is a gauge family with labels. With on nil returns nil.
type GaugeVec struct{ f *family }

// With returns the gauge for the label values (created on first use).
func (v *GaugeVec) With(labelValues ...string) *Gauge {
	if v == nil {
		return nil
	}
	return &Gauge{s: v.f.with(labelValues)}
}

// Zero sets every existing series in the family to zero. Snapshot-applied
// gauge families call it before re-applying, so a label set that vanished
// from the snapshot (a tenant going idle) reads 0 instead of its last value.
func (v *GaugeVec) Zero() {
	if v == nil {
		return
	}
	v.f.mu.Lock()
	defer v.f.mu.Unlock()
	for _, s := range v.f.series {
		s.value.Set(0)
	}
}

// HistogramVec is a histogram family with labels. With on nil returns nil.
type HistogramVec struct{ f *family }

// With returns the histogram for the label values (created on first use).
func (v *HistogramVec) With(labelValues ...string) *Histogram {
	if v == nil {
		return nil
	}
	return &Histogram{s: v.f.with(labelValues)}
}

// Counter registers an unlabeled counter family. nil receiver returns nil.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	f := r.register(name, "counter", help, nil, nil, nil)
	return &Counter{s: f.with(nil)}
}

// CounterVec registers a labeled counter family. nil receiver returns nil.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	if r == nil {
		return nil
	}
	return &CounterVec{f: r.register(name, "counter", help, labels, nil, nil)}
}

// Gauge registers an unlabeled gauge family. nil receiver returns nil.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	f := r.register(name, "gauge", help, nil, nil, nil)
	return &Gauge{s: f.with(nil)}
}

// GaugeVec registers a labeled gauge family. nil receiver returns nil.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	if r == nil {
		return nil
	}
	return &GaugeVec{f: r.register(name, "gauge", help, labels, nil, nil)}
}

// Histogram registers an unlabeled histogram family with the given bucket
// upper bounds (nil = DurationBuckets). nil receiver returns nil.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	if r == nil {
		return nil
	}
	f := r.register(name, "histogram", help, nil, buckets, nil)
	return &Histogram{s: f.with(nil)}
}

// HistogramVec registers a labeled histogram family with the given bucket
// upper bounds (nil = DurationBuckets). nil receiver returns nil.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	if r == nil {
		return nil
	}
	return &HistogramVec{f: r.register(name, "histogram", help, labels, buckets, nil)}
}

// CounterFunc registers a counter family whose value is read from fn at
// exposition time — for layers that already keep their own atomics
// (tracecache). No-op on a nil receiver.
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	if r == nil {
		return
	}
	r.register(name, "counter", help, nil, nil, fn)
}

// GaugeFunc registers a gauge family whose value is read from fn at
// exposition time. No-op on a nil receiver.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	if r == nil {
		return
	}
	r.register(name, "gauge", help, nil, nil, fn)
}

// Families returns the registered inventory in registration order.
func (r *Registry) Families() []FamilyInfo {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]FamilyInfo, len(r.families))
	for i, f := range r.families {
		out[i] = FamilyInfo{Name: f.name, Type: f.typ, Help: f.help,
			Labels: append([]string(nil), f.labels...)}
	}
	return out
}

// WritePrometheus renders every family in the Prometheus text exposition
// format (version 0.0.4): HELP and TYPE lines for each family, series
// sorted by label values, histograms as cumulative _bucket/_sum/_count.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	fams := append([]*family(nil), r.families...)
	r.mu.Unlock()
	var b strings.Builder
	for _, f := range fams {
		b.Reset()
		fmt.Fprintf(&b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.typ)
		if f.collect != nil {
			fmt.Fprintf(&b, "%s %s\n", f.name, formatValue(f.collect()))
		} else {
			f.mu.Lock()
			keys := append([]string(nil), f.order...)
			snap := make([]*series, len(keys))
			for i, k := range keys {
				snap[i] = f.series[k]
			}
			f.mu.Unlock()
			sort.Sort(&seriesSort{keys, snap})
			for _, s := range snap {
				writeSeries(&b, f, s)
			}
		}
		if _, err := io.WriteString(w, b.String()); err != nil {
			return err
		}
	}
	return nil
}

// seriesSort orders series by label-value key for stable output.
type seriesSort struct {
	keys []string
	s    []*series
}

func (x *seriesSort) Len() int           { return len(x.keys) }
func (x *seriesSort) Less(a, b int) bool { return x.keys[a] < x.keys[b] }
func (x *seriesSort) Swap(a, b int) {
	x.keys[a], x.keys[b] = x.keys[b], x.keys[a]
	x.s[a], x.s[b] = x.s[b], x.s[a]
}

func writeSeries(b *strings.Builder, f *family, s *series) {
	if f.typ != "histogram" {
		b.WriteString(f.name)
		writeLabels(b, f.labels, s.labelValues, "", "")
		fmt.Fprintf(b, " %s\n", formatValue(s.value.Get()))
		return
	}
	st := s.hist
	cum := uint64(0)
	for i := range st.counts {
		cum += st.counts[i].Load()
		le := "+Inf"
		if i < len(st.bounds) {
			le = formatValue(st.bounds[i])
		}
		b.WriteString(f.name)
		b.WriteString("_bucket")
		writeLabels(b, f.labels, s.labelValues, "le", le)
		fmt.Fprintf(b, " %d\n", cum)
	}
	b.WriteString(f.name)
	b.WriteString("_sum")
	writeLabels(b, f.labels, s.labelValues, "", "")
	fmt.Fprintf(b, " %s\n", formatValue(st.sum.Get()))
	b.WriteString(f.name)
	b.WriteString("_count")
	writeLabels(b, f.labels, s.labelValues, "", "")
	fmt.Fprintf(b, " %d\n", st.count.Load())
}

// writeLabels renders {k="v",...}, appending the extra pair (histograms'
// le) when extraKey is non-empty. No braces print for a bare series.
func writeLabels(b *strings.Builder, names, values []string, extraKey, extraVal string) {
	if len(names) == 0 && extraKey == "" {
		return
	}
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(values[i]))
		b.WriteByte('"')
	}
	if extraKey != "" {
		if len(names) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(extraKey)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(extraVal))
		b.WriteByte('"')
	}
	b.WriteByte('}')
}

var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
var helpEscaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`)

func escapeLabel(s string) string { return labelEscaper.Replace(s) }
func escapeHelp(s string) string  { return helpEscaper.Replace(s) }

// formatValue renders integral values without an exponent (1048576, not
// 1.048576e+06) and everything else in shortest float form.
func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Handler serves the registry as a Prometheus scrape endpoint.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w) //nolint:errcheck // client gone mid-scrape
	})
}
