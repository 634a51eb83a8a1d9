// Package tracecache memoizes generated workload traces so that every
// consumer of a trace — sweep points, evaluation tables, lockstep multicore
// clusters, repeated session runs — pays the functional-simulation cost of
// a given (workload, trace configuration, instruction budget) exactly once.
// This is the trace-driven bargain the paper is built on ("traces that are
// prepared off-line, for example for bulk simulations with varying design
// parameters"): most points of a design-space sweep differ only in engine
// parameters (width, queue depths, cache geometry) and share the exact same
// input trace, so regenerating it per point multiplies the dominant cost of
// a sweep for no information.
//
// The cache is content-addressed: the key is the full workload.Profile
// value plus the derived funcsim.TraceConfig and the correct-path
// instruction limit, so two callers get one trace only when every knob that
// shapes the record stream is identical. Entries are materialized record
// slices; readers get independent replayable snapshots (fresh cursors over
// the shared immutable slice), so any number of engines can consume one
// trace concurrently without coordination. Generation is single-flight:
// concurrent requests for the same key block on the first generator rather
// than duplicating work.
//
// Keys of one profile and budget form a family, and a trace can serve
// other keys of its family (Key.Serves). The tracer's wrong-path walk has
// no architectural side effects, so a trace with a shorter wrong path, or
// with none under a perfect predictor, is a longer one with every tagged
// block cut short. A miss first looks for the longest resident or
// in-flight trace of its family that serves it and derives its records
// from that one; only a miss that nothing serves reads the spill directory
// or generates. ServeOrder is the order in which to ask for a family's
// keys so that one generation serves them all.
//
// Memory is bounded by an optional resident-byte budget. Over budget, the
// least-recently-used entries are evicted. With a spill directory
// configured, an evicted trace is first written there once, as a
// delta-compressed container of internal/trace named by the key's content
// address. That directory is a plain tier below memory: every miss
// consults it before generating, so a restarted process, or a directory
// synced from another host, serves its containers without regenerating.
// Shipped containers (Seed) and spill files are decoded by trace's one
// reader, which checks each container's trailer; a cut, corrupt or
// pre-trailer container is refused, and a spill file that is refused is
// removed and regenerated.
package tracecache

import (
	"cmp"
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"unsafe"

	"repro/internal/core"
	"repro/internal/funcsim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Key identifies one generated trace: the complete workload definition, the
// trace-generation configuration and the correct-path instruction budget.
// Every field that influences the record stream is part of the key, so a
// cache hit is exact by construction. The zero limit (run to HALT) is never
// cached — see (*Cache).Cacheable.
type Key struct {
	Profile workload.Profile
	Limit   uint64
	TC      funcsim.TraceConfig
}

// KeyFor builds the cache key for generating limit correct-path
// instructions of p under tc. tc is typically core.Config.TraceConfig().
func KeyFor(p workload.Profile, tc funcsim.TraceConfig, limit uint64) Key {
	return Key{Profile: p, Limit: limit, TC: tc}
}

// ID returns the key's content address: a hex digest usable as a file name
// for the on-disk spill.
func (k Key) ID() string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("%#v", k)))
	return hex.EncodeToString(sum[:16])
}

// Serves reports whether s's trace serves k: whether k's trace is s's with
// every tagged (wrong-path) block cut to its first k.TC.WrongPathLen
// records. The tracer's wrong-path walk changes no architectural state and
// the predictor writes nothing into correct-path records, so this holds
// for two keys of one profile and budget when either
//   - (a) every other trace-config field is equal and s's wrong path is
//     longer, or
//   - (b) k has a perfect predictor (no wrong path at all) and s does not.
//
// Both rules strictly climb ServeOrder, so derivations never wait in a
// cycle.
func (s Key) Serves(k Key) bool {
	if s.family() != k.family() {
		return false
	}
	if k.TC.PerfectBP && !s.TC.PerfectBP {
		return true
	}
	same := s.TC
	same.WrongPathLen = k.TC.WrongPathLen
	return same == k.TC && s.TC.WrongPathLen > k.TC.WrongPathLen
}

// ServeOrder orders trace configurations so that every trace comes before
// those it serves: predicted before a perfect predictor, then the longer
// wrong path first. Ties compare equal, so a stable sort keeps their
// order. Asking for a family's keys in this order generates its first
// trace and derives the rest.
func ServeOrder(a, b funcsim.TraceConfig) int {
	if a.PerfectBP != b.PerfectBP {
		if b.PerfectBP {
			return -1
		}
		return 1
	}
	return cmp.Compare(b.WrongPathLen, a.WrongPathLen)
}

// family is k with its trace configuration zeroed: what the keys that
// may serve one another share.
func (k Key) family() Key { return Key{Profile: k.Profile, Limit: k.Limit} }

// Trace is one cached, fully generated trace. It is immutable: once built
// (or reloaded from the spill) its record slice is never written again, so
// snapshots taken by concurrent readers never race. A Trace returned by Get
// stays valid even after the cache evicts the entry behind it.
type Trace struct {
	startPC uint32
	recs    []trace.Record
}

// StartPC is where execution starts (the workload program's entry point).
func (t *Trace) StartPC() uint32 { return t.startPC }

// Records returns the number of records in the trace (correct-path plus
// tagged wrong-path).
func (t *Trace) Records() int { return len(t.recs) }

// residentBytes is the trace's in-memory record footprint: its whole
// backing array, the room newTrace reserved included.
func (t *Trace) residentBytes() int64 { return int64(cap(t.recs)) * recordBytes }

// Source returns a fresh replayable snapshot: an independent cursor over
// the shared record slice. Each engine must consume its own snapshot;
// snapshots are cheap and any number may be read concurrently.
func (t *Trace) Source() *trace.SliceSource { return trace.NewSliceSource(t.recs) }

// Range calls fn for every record in order, stopping at the first error.
// It is the bulk-export path (trace file writing) and avoids a cursor.
func (t *Trace) Range(fn func(trace.Record) error) error {
	for _, r := range t.recs {
		if err := fn(r); err != nil {
			return err
		}
	}
	return nil
}

// WriteContainer writes the trace as a delta-compressed container of
// internal/trace — the same bytes the spill path writes, and the shipping
// format the sharded sweep service uses to move a generated trace between
// hosts. Read it back with (*Cache).Seed or trace.Open.
func (t *Trace) WriteContainer(w io.Writer) error {
	cw, err := trace.NewWriter(w, trace.Header{StartPC: t.startPC}, true)
	if err != nil {
		return err
	}
	if err := t.Range(cw.Write); err != nil {
		return err
	}
	return cw.Close()
}

// recordBytes approximates the resident cost of one record.
const recordBytes = int64(unsafe.Sizeof(trace.Record{}))

// maxReserve caps the records reserved up front for one trace.
const maxReserve = 1 << 20

// newTrace starts k's trace at startPC, reserving room for k's budget plus
// typical wrong-path inflation, up to maxReserve records.
func newTrace(k Key, startPC uint32) *Trace {
	return &Trace{startPC: startPC, recs: make([]trace.Record, 0, min(k.Limit+k.Limit/4, maxReserve))}
}

// cut derives k's trace from src, the trace of a key that serves k: src's
// records with every tagged block cut to its first k.TC.WrongPathLen
// records, or to none under a perfect predictor. The first pass sizes the
// copy.
func cut(k Key, src *Trace) *Trace {
	keep := max(k.TC.WrongPathLen, 0)
	if k.TC.PerfectBP {
		keep = 0
	}
	n, run := len(src.recs), 0 // run: the record's place in its tagged block
	for _, r := range src.recs {
		if !r.Tag {
			run = 0
		} else if run++; run > keep {
			n--
		}
	}
	t := &Trace{startPC: src.startPC, recs: make([]trace.Record, 0, n)}
	run = 0
	for _, r := range src.recs {
		if !r.Tag {
			run = 0
		} else if run++; run > keep {
			continue
		}
		t.recs = append(t.recs, r)
	}
	return t
}

// Config bounds a Cache. The zero value means: no disk spill, the default
// resident-byte budget and the default per-trace instruction cap.
type Config struct {
	// SpillDir, when non-empty, is a disk tier holding one delta-compressed
	// container per key, named <Key.ID()>.rstc. Evicted traces are written
	// there, and every miss reads its key's file before generating, so
	// the directory outlives the process. It is created on first use.
	SpillDir string
	// MaxResidentBytes bounds the total in-memory record footprint;
	// 0 selects DefaultMaxResidentBytes, negative means unbounded.
	MaxResidentBytes int64
	// MaxInstructions caps the correct-path budget a single cacheable trace
	// may have; larger requests report Cacheable() == false and callers fall
	// back to streaming generation. 0 selects DefaultMaxInstructions.
	MaxInstructions uint64
}

// DefaultMaxResidentBytes is the default in-memory budget (1 GiB — roughly
// thirty 1M-instruction traces).
const DefaultMaxResidentBytes = int64(1) << 30

// DefaultMaxInstructions is the default per-trace correct-path cap. A
// 4M-instruction trace with the paper's wrong-path inflation is on the
// order of 150 MB resident, a sane ceiling for implicit caching.
const DefaultMaxInstructions = uint64(4_000_000)

// Stats is a point-in-time snapshot of cache activity.
type Stats struct {
	Generations uint64 // traces generated (cache misses that did the work)
	Derivations uint64 // traces cut from a longer trace of their family
	Hits        uint64 // requests served from memory
	Seeds       uint64 // entries installed from shipped containers (Seed)
	SpillWrites uint64 // entries written to the spill directory
	SpillBytes  uint64 // container bytes written to the spill directory
	SpillLoads  uint64 // misses served from the spill directory
	Evictions   uint64 // entries pushed out of memory (spilled or dropped)

	Entries  int   // keys resident or in flight
	Resident int64 // bytes of record data currently in memory
}

// Cache memoizes generated traces. The zero value is not usable; build one
// with New (or use Shared for the process-wide instance).
type Cache struct {
	spillDir string
	maxBytes int64
	maxInstr uint64

	mu       sync.Mutex
	entries  map[Key]*entry   // resident and in-flight keys
	families map[Key][]*entry // the same entries, by Key.family
	lru      *list.List       // resident entries, front = most recently used
	resident int64

	gens        atomic.Uint64
	derivations atomic.Uint64
	hits        atomic.Uint64
	seeds       atomic.Uint64
	spillWrites atomic.Uint64
	spillBytes  atomic.Uint64
	spillLoads  atomic.Uint64
	evictions   atomic.Uint64
}

// entry is one key's slot. done is closed when the fill finishes; tr and
// err are immutable afterwards. A failed fill removes the entry from the
// map before closing done, so waiters retry and the error never sticks.
// Eviction removes the entry too, so a waiter still holding it is served
// its trace.
type entry struct {
	key  Key
	done chan struct{}
	err  error
	tr   *Trace
	elem *list.Element // lru position while resident, guarded by c.mu
}

// New builds a cache bounded by cfg.
func New(cfg Config) *Cache {
	if cfg.MaxResidentBytes == 0 {
		cfg.MaxResidentBytes = DefaultMaxResidentBytes
	}
	if cfg.MaxInstructions == 0 {
		cfg.MaxInstructions = DefaultMaxInstructions
	}
	return &Cache{
		spillDir: cfg.SpillDir,
		maxBytes: cfg.MaxResidentBytes,
		maxInstr: cfg.MaxInstructions,
		entries:  map[Key]*entry{},
		families: map[Key][]*entry{},
		lru:      list.New(),
	}
}

var (
	sharedOnce  sync.Once
	sharedCache *Cache
)

// Shared returns the process-wide cache with default bounds. The public
// resim Session defaults to it, as do the evaluation tables, so every such
// caller in one process shares a single set of generated traces.
func Shared() *Cache {
	sharedOnce.Do(func() { sharedCache = New(Config{}) })
	return sharedCache
}

// Cacheable reports whether a trace with the given correct-path budget is
// eligible for this cache: bounded (limit != 0 — an unbounded workload run
// cannot be materialized) and within the per-trace instruction cap.
// Callers fall back to streaming generation when it returns false.
func (c *Cache) Cacheable(limit uint64) bool {
	return limit != 0 && limit <= c.maxInstr
}

// Stats snapshots cache activity.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	entries, resident := len(c.entries), c.resident
	c.mu.Unlock()
	return Stats{
		Generations: c.gens.Load(),
		Derivations: c.derivations.Load(),
		Hits:        c.hits.Load(),
		Seeds:       c.seeds.Load(),
		SpillWrites: c.spillWrites.Load(),
		SpillBytes:  c.spillBytes.Load(),
		SpillLoads:  c.spillLoads.Load(),
		Evictions:   c.evictions.Load(),
		Entries:     entries,
		Resident:    resident,
	}
}

// ErrUncacheable reports a Get whose limit fails Cacheable.
var ErrUncacheable = errors.New("tracecache: trace not cacheable (unbounded or over the instruction cap)")

// Get returns the trace for (p, tc, limit). On the first request it
// derives the trace from the longest trace of its family that serves it,
// resident or in flight, and otherwise loads it from the spill directory
// or generates it. Concurrent requests for one key are single-flight: one
// caller fills the entry while the rest wait. If the filling caller's
// context is cancelled the entry is discarded and a surviving waiter takes
// over, so one caller's cancellation never poisons the key.
func (c *Cache) Get(ctx context.Context, p workload.Profile, tc funcsim.TraceConfig, limit uint64) (*Trace, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if !c.Cacheable(limit) {
		return nil, fmt.Errorf("%w: limit %d", ErrUncacheable, limit)
	}
	k := KeyFor(p, tc, limit)
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		c.mu.Lock()
		e, ok := c.entries[k]
		if !ok {
			src := c.sourceLocked(k)
			e = &entry{key: k, done: make(chan struct{})}
			c.addLocked(e)
			c.mu.Unlock()
			return c.fill(ctx, e, src)
		}
		c.mu.Unlock()

		select {
		case <-e.done:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		if e.err != nil {
			// The fill failed and removed the slot; loop to retry under our
			// own context (deterministic failures simply fail again,
			// cancellation of the old leader does not outlive it).
			continue
		}
		c.mu.Lock()
		if e.elem != nil {
			c.lru.MoveToFront(e.elem)
		}
		c.mu.Unlock()
		c.hits.Add(1)
		return e.tr, nil
	}
}

// sourceLocked returns the entry, resident or in flight, whose trace best
// serves k: the first under ServeOrder, so the one with the longest wrong
// path. It returns nil when no entry serves k. Callers hold c.mu.
func (c *Cache) sourceLocked(k Key) *entry {
	var best *entry
	for _, e := range c.families[k.family()] {
		if e.key.Serves(k) && (best == nil || ServeOrder(e.key.TC, best.key.TC) < 0) {
			best = e
		}
	}
	return best
}

// addLocked enters e under its key and in its family. Callers hold c.mu.
func (c *Cache) addLocked(e *entry) {
	c.entries[e.key] = e
	f := e.key.family()
	c.families[f] = append(c.families[f], e)
}

// removeLocked takes e out of the map and its family. Callers hold c.mu.
func (c *Cache) removeLocked(e *entry) {
	delete(c.entries, e.key)
	f := e.key.family()
	fam := slices.DeleteFunc(c.families[f], func(o *entry) bool { return o == e })
	if len(fam) == 0 {
		delete(c.families, f)
	} else {
		c.families[f] = fam
	}
}

// fill is the one miss path: without the cache mutex held, it derives e's
// trace from src when src is non-nil and its fill succeeds, else loads it
// from the spill directory or generates it, then publishes the result and
// counts the way it was filled.
func (c *Cache) fill(ctx context.Context, e *entry, src *entry) (*Trace, error) {
	tr, way, err := c.derive(ctx, e.key, src)
	e.tr, e.err = tr, err
	c.mu.Lock()
	if err != nil {
		c.removeLocked(e)
	} else {
		c.insertResidentLocked(e)
	}
	c.mu.Unlock()
	close(e.done)
	if err != nil {
		return nil, err
	}
	way.Add(1)
	return tr, nil
}

// derive waits for src, an entry whose key serves k, and cuts k's trace
// from it. When src is nil, or its fill failed or was cancelled, k falls
// back to load under the caller's own ctx. Each fill reports the counter
// of its way: derivations, spill loads or generations.
func (c *Cache) derive(ctx context.Context, k Key, src *entry) (*Trace, *atomic.Uint64, error) {
	if src != nil {
		select {
		case <-src.done:
			if src.err == nil {
				return cut(k, src.tr), &c.derivations, nil
			}
		case <-ctx.Done():
			return nil, nil, ctx.Err()
		}
	}
	return c.load(ctx, k)
}

// load reads k's container from the spill directory when there is one and
// generates the trace otherwise. A spill file that fails to decode is
// removed, so the key regenerates and a later eviction rewrites it.
func (c *Cache) load(ctx context.Context, k Key) (*Trace, *atomic.Uint64, error) {
	if c.spillDir != "" {
		path := c.spillFile(k)
		if f, err := os.Open(path); err == nil {
			tr, err := readContainer(k, f)
			f.Close()
			if err == nil {
				return tr, &c.spillLoads, nil
			}
			_ = os.Remove(path) // if it stays, the next miss refuses it again
		}
	}
	tr, err := generate(ctx, k)
	return tr, &c.gens, err
}

// spillFile is k's container path in the spill directory.
func (c *Cache) spillFile(k Key) string {
	return filepath.Join(c.spillDir, k.ID()+".rstc")
}

// generate materializes the full record stream for k, polling ctx every
// core.CtxCheckInterval steps. It drives the tracer the lazy per-run
// sources use, from the machine Profile.NewMachine loads, appending
// straight into the trace, so a cached replay is record-for-record
// identical to an uncached run.
func generate(ctx context.Context, k Key) (*Trace, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	m, err := k.Profile.NewMachine()
	if err != nil {
		return nil, err
	}
	t := newTrace(k, m.PC())
	tr := funcsim.NewTracer(m, k.TC)
	for n := uint64(0); n < k.Limit; n++ {
		if n%core.CtxCheckInterval == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		if t.recs, err = tr.Step(t.recs); err == io.EOF {
			break
		} else if err != nil {
			return nil, err
		}
	}
	return t, nil
}

// readContainer decodes one container as k's trace. It is the only way a
// container enters the cache: shipped ones through Seed, spilled ones
// through the miss path. The trace reader refuses a cut or corrupt
// container (its trailer must match the records) and a record naming a
// register no encoder writes.
func readContainer(k Key, r io.Reader) (*Trace, error) {
	src, err := trace.Open(r)
	if err != nil {
		return nil, err
	}
	t := newTrace(k, src.Header().StartPC)
	for {
		rec, err := src.Next()
		if err == io.EOF {
			return t, nil
		}
		if err != nil {
			return nil, err
		}
		t.recs = append(t.recs, rec)
	}
}

// SourceFor is the shared cached-or-streaming source selection every trace
// consumer (session runs, sweep points, multicore cores, table generators)
// uses: a replayable snapshot from c when c is non-nil and the budget is
// cacheable, otherwise a streaming source straight from the functional
// simulator. The returned PC is where the engine should start fetching.
func SourceFor(ctx context.Context, c *Cache, p workload.Profile, tc funcsim.TraceConfig, limit uint64) (trace.Source, uint32, error) {
	if c != nil && c.Cacheable(limit) {
		tr, err := c.Get(ctx, p, tc, limit)
		if err != nil {
			return nil, 0, err
		}
		return tr.Source(), tr.StartPC(), nil
	}
	src, err := p.NewSource(tc, limit)
	if err != nil {
		return nil, 0, err
	}
	return src, funcsim.CodeBase, nil
}

// ExportContainer writes the delta-compressed container for k to w when the
// cache holds the trace, resident or in its spill directory, and reports
// whether it did. The spill file is found by content address, so one left
// by an earlier process or synced from another host ships the same way. It
// never generates: shipping a trace to a remote worker is an optimization,
// and a cold key simply regenerates on the receiving host.
func (c *Cache) ExportContainer(k Key, w io.Writer) (bool, error) {
	var tr *Trace
	c.mu.Lock()
	if e := c.entries[k]; e != nil && e.elem != nil {
		tr = e.tr
	}
	c.mu.Unlock()
	if tr != nil {
		// The record slice is immutable once published, so encoding outside
		// the lock never races with concurrent readers or eviction.
		return true, tr.WriteContainer(w)
	}
	if c.spillDir == "" {
		return false, nil
	}
	f, err := os.Open(c.spillFile(k))
	if err != nil {
		return false, nil // never spilled or lost: a cold key
	}
	defer f.Close()
	_, err = io.Copy(w, f)
	return true, err
}

// Seed installs the trace for k from a shipped container (the bytes written
// by ExportContainer), so a worker that receives a trace over the network
// never pays the generation cost. The decoded trace is returned either way;
// if the key is already resident or in flight the cache is left untouched
// and the existing entry wins, keeping Seed safe to call concurrently with
// Get.
func (c *Cache) Seed(k Key, r io.Reader) (*Trace, error) {
	t, err := readContainer(k, r)
	if err != nil {
		return nil, fmt.Errorf("tracecache: seed container: %w", err)
	}
	c.mu.Lock()
	if _, ok := c.entries[k]; ok {
		c.mu.Unlock()
		return t, nil
	}
	e := &entry{key: k, done: make(chan struct{}), tr: t}
	close(e.done)
	c.addLocked(e)
	c.insertResidentLocked(e)
	c.mu.Unlock()
	c.seeds.Add(1)
	return t, nil
}

// insertResidentLocked accounts a freshly filled or seeded entry and evicts
// over-budget entries, least recently used first. Callers hold c.mu.
func (c *Cache) insertResidentLocked(e *entry) {
	e.elem = c.lru.PushFront(e)
	c.resident += e.tr.residentBytes()
	if c.maxBytes < 0 {
		return
	}
	// Never evict the entry just inserted: a single over-budget trace still
	// has to serve its requester.
	for c.resident > c.maxBytes && c.lru.Len() > 1 {
		c.evictLocked(c.lru.Back().Value.(*entry))
	}
}

// evictLocked pushes one resident entry out of memory: written to the
// spill directory when one is configured (a failed write just drops it),
// then removed from the map, so the next request for its key misses and
// reads the spill file or regenerates. Callers hold c.mu.
func (c *Cache) evictLocked(e *entry) {
	c.lru.Remove(e.elem)
	e.elem = nil
	c.resident -= e.tr.residentBytes()
	c.evictions.Add(1)
	if c.spillDir != "" {
		_ = c.spill(e.key, e.tr) // unwritten, the key just regenerates on its next miss
	}
	c.removeLocked(e)
}

// spill writes tr as k's container in the spill directory, atomically via
// a temp file. A file already there is kept: the content address
// guarantees it holds the same records.
func (c *Cache) spill(k Key, tr *Trace) error {
	path := c.spillFile(k)
	if _, err := os.Stat(path); err == nil {
		return nil
	}
	if err := os.MkdirAll(c.spillDir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(c.spillDir, "spill-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if err := tr.WriteContainer(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	c.spillWrites.Add(1)
	if fi, err := os.Stat(path); err == nil {
		c.spillBytes.Add(uint64(fi.Size()))
	}
	return nil
}
