package tracecache

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"repro/internal/bpred"
	"repro/internal/core"
	"repro/internal/funcsim"
	"repro/internal/isa"
	"repro/internal/trace"
	"repro/internal/workload"
)

func gzipProfile(t *testing.T) workload.Profile {
	t.Helper()
	p, err := workload.ByName("gzip")
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func defaultTC() funcsim.TraceConfig { return core.DefaultConfig().TraceConfig() }

// drain reads a source to EOF.
func drain(t *testing.T, src trace.Source) []trace.Record {
	t.Helper()
	var recs []trace.Record
	for {
		r, err := src.Next()
		if err == io.EOF {
			return recs
		}
		if err != nil {
			t.Fatal(err)
		}
		recs = append(recs, r)
	}
}

// TestCachedMatchesUncached is the cache's core contract: a cached replay
// is record-for-record identical to an uncached generation.
func TestCachedMatchesUncached(t *testing.T) {
	p := gzipProfile(t)
	const limit = 6000

	c := New(Config{})
	tr, err := c.Get(context.Background(), p, defaultTC(), limit)
	if err != nil {
		t.Fatal(err)
	}
	cached := drain(t, tr.Source())

	src, err := p.NewSource(defaultTC(), limit)
	if err != nil {
		t.Fatal(err)
	}
	fresh := drain(t, src)

	if len(cached) == 0 || !reflect.DeepEqual(cached, fresh) {
		t.Fatalf("cached trace differs from regeneration: %d vs %d records", len(cached), len(fresh))
	}
	if tr.StartPC() != funcsim.CodeBase {
		t.Errorf("StartPC = %#x, want %#x", tr.StartPC(), funcsim.CodeBase)
	}
}

// TestConcurrentReadersSingleGeneration hammers one key from many
// goroutines (run under -race): generation must happen exactly once and
// every reader must see the full identical stream through its own snapshot.
func TestConcurrentReadersSingleGeneration(t *testing.T) {
	p := gzipProfile(t)
	const limit = 4000
	c := New(Config{})

	const readers = 16
	lens := make([]int, readers)
	var wg sync.WaitGroup
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tr, err := c.Get(context.Background(), p, defaultTC(), limit)
			if err != nil {
				t.Error(err)
				return
			}
			lens[i] = len(drain(t, tr.Source()))
		}(i)
	}
	wg.Wait()
	if got := c.Stats().Generations; got != 1 {
		t.Fatalf("generations = %d, want 1", got)
	}
	for i := 1; i < readers; i++ {
		if lens[i] != lens[0] || lens[i] == 0 {
			t.Fatalf("reader %d saw %d records, reader 0 saw %d", i, lens[i], lens[0])
		}
	}
	if st := c.Stats(); st.Hits != readers-1 {
		t.Errorf("hits = %d, want %d", st.Hits, readers-1)
	}
}

// TestSnapshotsAreIndependent interleaves two cursors over one trace.
func TestSnapshotsAreIndependent(t *testing.T) {
	p := gzipProfile(t)
	c := New(Config{})
	tr, err := c.Get(context.Background(), p, defaultTC(), 2000)
	if err != nil {
		t.Fatal(err)
	}
	a, b := tr.Source(), tr.Source()
	// Advance a by 10 records, then check b still starts at the beginning.
	var first trace.Record
	for i := 0; i < 10; i++ {
		r, err := a.Next()
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = r
		}
	}
	got, err := b.Next()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, first) {
		t.Error("second snapshot did not start from the beginning")
	}
}

// TestDistinctKeysGenerateSeparately: trace-shaping parameters are part of
// the key, engine-only parameters are not.
func TestDistinctKeysGenerateSeparately(t *testing.T) {
	p := gzipProfile(t)
	c := New(Config{})
	ctx := context.Background()

	base := core.DefaultConfig()
	wide := base
	wide.Width = 8 // engine-only: same trace key
	perfect := base
	perfect.PerfectBP = true // trace-shaping: new key
	bigRB := base
	bigRB.RBSize = 32 // changes WrongPathLen: new key

	for _, cfg := range []core.Config{base, wide, perfect, bigRB} {
		if _, err := c.Get(ctx, p, cfg.TraceConfig(), 2000); err != nil {
			t.Fatal(err)
		}
	}
	// Three keys, three fills: perfect has no wrong path, so base's trace
	// serves it by derivation; bigRB's longer wrong path is generated.
	if st := c.Stats(); st.Generations != 2 || st.Derivations != 1 {
		t.Errorf("generations, derivations = %d, %d; want 2 (base==wide, bigRB), 1 (perfect)", st.Generations, st.Derivations)
	}
	if base.TraceConfig() != wide.TraceConfig() {
		t.Error("width changed the trace config")
	}
	ka := KeyFor(p, base.TraceConfig(), 2000)
	kb := KeyFor(p, perfect.TraceConfig(), 2000)
	if ka.ID() == kb.ID() {
		t.Error("distinct keys share a content address")
	}
}

// TestSpillRoundTrip forces eviction through a tiny budget and checks the
// spilled trace reloads bit-for-bit from the compressed container.
func TestSpillRoundTrip(t *testing.T) {
	p := gzipProfile(t)
	c := New(Config{SpillDir: t.TempDir(), MaxResidentBytes: 1})
	ctx := context.Background()

	trA, err := c.Get(ctx, p, defaultTC(), 3000)
	if err != nil {
		t.Fatal(err)
	}
	want := drain(t, trA.Source())

	// A second key over-budgets the cache and evicts A to disk.
	if _, err := c.Get(ctx, p, defaultTC(), 1000); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.SpillWrites == 0 || st.Evictions == 0 {
		t.Fatalf("expected a spill, stats = %+v", st)
	}

	trA2, err := c.Get(ctx, p, defaultTC(), 3000)
	if err != nil {
		t.Fatal(err)
	}
	if got := drain(t, trA2.Source()); !reflect.DeepEqual(got, want) {
		t.Fatal("reloaded trace differs from the original")
	}
	if got := c.Stats().Generations; got != 2 {
		t.Errorf("generations = %d, want 2 (reload must not regenerate)", got)
	}
	if st := c.Stats(); st.SpillLoads != 1 {
		t.Errorf("spill loads = %d, want 1", st.SpillLoads)
	}
	if trA2.StartPC() != trA.StartPC() {
		t.Error("reloaded trace lost its start PC")
	}
}

// TestEvictionWithoutSpillRegenerates: no spill directory means eviction
// drops the entry and a later request simply regenerates.
func TestEvictionWithoutSpillRegenerates(t *testing.T) {
	p := gzipProfile(t)
	c := New(Config{MaxResidentBytes: 1})
	ctx := context.Background()

	trA, err := c.Get(ctx, p, defaultTC(), 3000)
	if err != nil {
		t.Fatal(err)
	}
	want := drain(t, trA.Source())
	if _, err := c.Get(ctx, p, defaultTC(), 1000); err != nil {
		t.Fatal(err)
	}
	trA2, err := c.Get(ctx, p, defaultTC(), 3000)
	if err != nil {
		t.Fatal(err)
	}
	if got := drain(t, trA2.Source()); !reflect.DeepEqual(got, want) {
		t.Fatal("regenerated trace differs")
	}
	if got := c.Stats().Generations; got != 3 {
		t.Errorf("generations = %d, want 3", got)
	}
}

// TestCancelledLeaderDoesNotPoisonKey: a cancelled generation leaves no
// broken entry behind.
func TestCancelledLeaderDoesNotPoisonKey(t *testing.T) {
	p := gzipProfile(t)
	c := New(Config{})
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.Get(cancelled, p, defaultTC(), 2000); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	tr, err := c.Get(context.Background(), p, defaultTC(), 2000)
	if err != nil {
		t.Fatalf("key poisoned after cancellation: %v", err)
	}
	if tr.Records() == 0 {
		t.Error("empty trace after retry")
	}
}

// TestUncacheableLimits: unbounded and over-cap budgets are refused.
func TestUncacheableLimits(t *testing.T) {
	p := gzipProfile(t)
	c := New(Config{MaxInstructions: 100})
	if c.Cacheable(0) || c.Cacheable(101) || !c.Cacheable(100) {
		t.Error("Cacheable thresholds wrong")
	}
	if _, err := c.Get(context.Background(), p, defaultTC(), 0); !errors.Is(err, ErrUncacheable) {
		t.Errorf("limit 0: err = %v, want ErrUncacheable", err)
	}
	if _, err := c.Get(context.Background(), p, defaultTC(), 101); !errors.Is(err, ErrUncacheable) {
		t.Errorf("limit 101: err = %v, want ErrUncacheable", err)
	}
}

// TestGenerationErrorPropagates: an invalid profile fails every request
// without wedging the slot.
func TestGenerationErrorPropagates(t *testing.T) {
	bad := workload.Profile{Name: "bad", Chase: 1, ListNodes: 1} // Chase needs >= 2 nodes
	c := New(Config{})
	for i := 0; i < 2; i++ {
		if _, err := c.Get(context.Background(), bad, defaultTC(), 1000); err == nil {
			t.Fatal("invalid profile generated a trace")
		}
	}
	if got := c.Stats().Generations; got != 0 {
		t.Errorf("generations = %d, want 0", got)
	}
}

// TestLostSpillRegenerates: a spill file deleted behind the cache's back
// (tmp cleaner, disk trouble) must degrade to regeneration, not error.
func TestLostSpillRegenerates(t *testing.T) {
	p := gzipProfile(t)
	dir := t.TempDir()
	c := New(Config{SpillDir: dir, MaxResidentBytes: 1})
	ctx := context.Background()

	trA, err := c.Get(ctx, p, defaultTC(), 3000)
	if err != nil {
		t.Fatal(err)
	}
	want := drain(t, trA.Source())
	if _, err := c.Get(ctx, p, defaultTC(), 1000); err != nil { // evicts A to disk
		t.Fatal(err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil || len(ents) == 0 {
		t.Fatalf("no spill written: %v", err)
	}
	for _, e := range ents {
		if err := os.Remove(filepath.Join(dir, e.Name())); err != nil {
			t.Fatal(err)
		}
	}
	trA2, err := c.Get(ctx, p, defaultTC(), 3000)
	if err != nil {
		t.Fatalf("lost spill surfaced as an error: %v", err)
	}
	if got := drain(t, trA2.Source()); !reflect.DeepEqual(got, want) {
		t.Fatal("regenerated trace differs after lost spill")
	}
	if got := c.Stats().Generations; got != 3 {
		t.Errorf("generations = %d, want 3 (regenerate on lost spill)", got)
	}
}

// TestKeyIDGolden pins the trace-key content address for a fully explicit
// profile and trace configuration. The sharded sweep service routes points
// to workers — and ships trace containers between hosts — keyed on this
// value, so an accidental change to the key format (or to any field that
// feeds it) would silently split coordinator and worker caches across
// versions. If this test fails, the key derivation changed: bump the sweep
// service protocol version and update the constant deliberately.
func TestKeyIDGolden(t *testing.T) {
	p := workload.Profile{
		Name:        "golden",
		Description: "pinned profile for the Key.ID golden test",
		Seed:        42,
		Stream:      8,
		Arith:       4,
		Branchy:     4,
		Chains:      2,
		Stride:      4,
		ArrayBytes:  1024,
		BranchData:  256,
		BranchBias:  0.5,
	}
	tc := funcsim.TraceConfig{
		Predictor: bpred.Config{
			Dir:        bpred.DirTwoLevel,
			BHTSize:    4,
			HistLen:    8,
			PHTSize:    4096,
			BimodSize:  2048,
			BTBEntries: 512,
			BTBAssoc:   1,
			RASSize:    16,
		},
		WrongPathLen: 20,
	}
	const want = "cfbefb8492574ea3bae6f0adaa44fbc1"
	if got := KeyFor(p, tc, 10_000).ID(); got != want {
		t.Fatalf("Key.ID() = %s, want the pinned %s\n"+
			"The trace-key content address changed: cross-version coordinator/worker\n"+
			"routing and shipped-container reuse would break. If intentional, update\n"+
			"the golden and bump the sweepd protocol version.", got, want)
	}
}

// TestExportSeedRoundTrip ships a generated trace between two caches as a
// delta-compressed container — the sweep service's trace-shipping path —
// and verifies the seeded copy is record-identical and costs the receiving
// cache no generation.
func TestExportSeedRoundTrip(t *testing.T) {
	p := gzipProfile(t)
	const limit = 5000
	k := KeyFor(p, defaultTC(), limit)

	src := New(Config{})
	tr, err := src.Get(context.Background(), p, defaultTC(), limit)
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	ok, err := src.ExportContainer(k, &buf)
	if err != nil || !ok {
		t.Fatalf("ExportContainer = %v, %v; want true, nil", ok, err)
	}

	dst := New(Config{})
	seeded, err := dst.Seed(k, bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if seeded.StartPC() != tr.StartPC() || seeded.Records() != tr.Records() {
		t.Fatalf("seeded trace metadata differs: %d/%d vs %d/%d",
			seeded.StartPC(), seeded.Records(), tr.StartPC(), tr.Records())
	}
	if !reflect.DeepEqual(drain(t, seeded.Source()), drain(t, tr.Source())) {
		t.Fatal("seeded records differ from the generated originals")
	}

	// The seeded cache serves Get without generating.
	got, err := dst.Get(context.Background(), p, defaultTC(), limit)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(drain(t, got.Source()), drain(t, tr.Source())) {
		t.Fatal("post-seed Get records differ")
	}
	st := dst.Stats()
	if st.Generations != 0 || st.Seeds != 1 || st.Hits != 1 {
		t.Fatalf("stats after seed+get = %+v; want 0 generations, 1 seed, 1 hit", st)
	}

	// Exporting a key the cache does not hold reports false without error.
	var sink bytes.Buffer
	ok, err = src.ExportContainer(KeyFor(p, defaultTC(), limit+1), &sink)
	if err != nil || ok {
		t.Fatalf("ExportContainer(cold key) = %v, %v; want false, nil", ok, err)
	}

	// Seeding an already-present key leaves the cache untouched.
	if _, err := dst.Seed(k, bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if st := dst.Stats(); st.Seeds != 1 || st.Entries != 1 {
		t.Fatalf("re-seed changed the cache: %+v", st)
	}
}

// TestExportContainerFromSpill ships a trace that has already been evicted
// to the spill directory (the coordinator's usual state for older keys).
func TestExportContainerFromSpill(t *testing.T) {
	p := gzipProfile(t)
	const limit = 4000
	dir := t.TempDir()
	// A tiny budget forces the entry to spill on the next insert.
	c := New(Config{SpillDir: dir, MaxResidentBytes: 1})
	tr, err := c.Get(context.Background(), p, defaultTC(), limit)
	if err != nil {
		t.Fatal(err)
	}
	want := drain(t, tr.Source())
	// A second, different key evicts (and spills) the first.
	if _, err := c.Get(context.Background(), p, defaultTC(), limit+1); err != nil {
		t.Fatal(err)
	}
	k := KeyFor(p, defaultTC(), limit)
	var buf bytes.Buffer
	ok, err := c.ExportContainer(k, &buf)
	if err != nil || !ok {
		t.Fatalf("ExportContainer(spilled) = %v, %v; want true, nil", ok, err)
	}
	dst := New(Config{})
	seeded, err := dst.Seed(k, bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(drain(t, seeded.Source()), want) {
		t.Fatal("spill-exported records differ")
	}

	// A fresh cache over the same spill directory — a restarted coordinator
	// — finds the container by content address despite an empty entry map.
	fresh := New(Config{SpillDir: dir})
	var buf2 bytes.Buffer
	ok, err = fresh.ExportContainer(k, &buf2)
	if err != nil || !ok {
		t.Fatalf("ExportContainer(fresh cache, populated spill dir) = %v, %v; want true, nil", ok, err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("restart-path container bytes differ from the live-path container")
	}
}

// spillOne fills dir with the spill file of gzip's limit-instruction trace,
// evicted from a cache whose budget holds one trace, and returns that
// trace's records.
func spillOne(t *testing.T, dir string, limit uint64) []trace.Record {
	t.Helper()
	p := gzipProfile(t)
	c := New(Config{SpillDir: dir, MaxResidentBytes: 1})
	tr, err := c.Get(context.Background(), p, defaultTC(), limit)
	if err != nil {
		t.Fatal(err)
	}
	// A second key over-budgets the cache and evicts the first to disk.
	if _, err := c.Get(context.Background(), p, defaultTC(), limit+1); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, KeyFor(p, defaultTC(), limit).ID()+".rstc")); err != nil {
		t.Fatalf("no spill file written: %v", err)
	}
	return drain(t, tr.Source())
}

// exportOf returns the container ExportContainer writes for a freshly
// generated trace of profile name.
func exportOf(t testing.TB, name string, limit uint64) (Key, []byte) {
	t.Helper()
	p, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	c := New(Config{})
	if _, err := c.Get(context.Background(), p, defaultTC(), limit); err != nil {
		t.Fatal(err)
	}
	k := KeyFor(p, defaultTC(), limit)
	var buf bytes.Buffer
	if ok, err := c.ExportContainer(k, &buf); !ok || err != nil {
		t.Fatalf("ExportContainer = %v, %v; want true, nil", ok, err)
	}
	return k, buf.Bytes()
}

// TestFreshCacheReadsSpillDir: the spill directory is a tier every miss
// consults, so a restarted process serves a spilled key from disk.
func TestFreshCacheReadsSpillDir(t *testing.T) {
	dir := t.TempDir()
	want := spillOne(t, dir, 3000)

	fresh := New(Config{SpillDir: dir})
	tr, err := fresh.Get(context.Background(), gzipProfile(t), defaultTC(), 3000)
	if err != nil {
		t.Fatal(err)
	}
	if got := drain(t, tr.Source()); !reflect.DeepEqual(got, want) {
		t.Fatal("trace read from the spill directory differs from the original")
	}
	if st := fresh.Stats(); st.Generations != 0 || st.SpillLoads != 1 {
		t.Fatalf("stats = %+v; want 0 generations and 1 spill load", st)
	}
}

// TestConcurrentSpillLoadsOnce: concurrent misses on a spilled key share
// one single-flight fill, so the file is read once and the rest are hits.
func TestConcurrentSpillLoadsOnce(t *testing.T) {
	dir := t.TempDir()
	want := spillOne(t, dir, 3000)
	p := gzipProfile(t)

	c := New(Config{SpillDir: dir})
	const readers = 8
	var wg sync.WaitGroup
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tr, err := c.Get(context.Background(), p, defaultTC(), 3000)
			if err != nil {
				t.Error(err)
				return
			}
			if tr.Records() != len(want) {
				t.Errorf("reader saw %d records, want %d", tr.Records(), len(want))
			}
		}()
	}
	wg.Wait()
	if st := c.Stats(); st.SpillLoads != 1 || st.Generations != 0 || st.Hits != readers-1 {
		t.Fatalf("stats = %+v; want 1 spill load, 0 generations, %d hits", st, readers-1)
	}
}

// TestCutContainerRefused: a container cut short decodes to a plausible
// prefix before its missing trailer shows; Seed must refuse it, and a miss
// that finds it as a spill file must remove it and regenerate.
func TestCutContainerRefused(t *testing.T) {
	k, whole := exportOf(t, "gzip", 5000)
	cut := whole[:len(whole)*9/10]
	if _, err := New(Config{}).Seed(k, bytes.NewReader(cut)); err == nil {
		t.Fatal("Seed accepted a container cut at 90%")
	}

	dir := t.TempDir()
	path := filepath.Join(dir, k.ID()+".rstc")
	if err := os.WriteFile(path, cut, 0o644); err != nil {
		t.Fatal(err)
	}
	c := New(Config{SpillDir: dir})
	tr, err := c.Get(context.Background(), k.Profile, k.TC, k.Limit)
	if err != nil {
		t.Fatal(err)
	}
	src, err := trace.Open(bytes.NewReader(whole))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(drain(t, tr.Source()), drain(t, src)) {
		t.Fatal("Get served records other than the whole trace")
	}
	if st := c.Stats(); st.Generations != 1 || st.SpillLoads != 0 {
		t.Fatalf("stats = %+v; want 1 generation and 0 spill loads", st)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("cut spill file still present (stat err = %v)", err)
	}
}

// TestOutOfRangeRegisterRefused: the container's 6-bit register fields
// can name registers 32..62, which no encoder writes (re-encoding turns
// them into "no register"); such a record is refused, not replayed.
func TestOutOfRangeRegisterRefused(t *testing.T) {
	for name, compress := range map[string]bool{"raw": false, "compressed": true} {
		// One ALU record: kind (2 bits), tag, class (3 bits), then dest,
		// src1 and src2 (6 bits each), the same 24 bits in both coders.
		// Written with src2 = r0 and with src2 = "no register", the two
		// containers first differ in the record's last byte: src1's low
		// two bits (10), then src2. Rewrite it to name register 45.
		alu := trace.Record{Kind: trace.KindOther, Dest: 1, Src1: 2}
		data, noReg := container(t, compress, alu), container(t, compress, func() trace.Record {
			r := alu
			r.Src2 = isa.NoReg
			return r
		}())
		i := 0
		for data[i] == noReg[i] {
			i++
		}
		data[i] = 0b10<<6 | 45
		if _, err := New(Config{}).Seed(Key{}, bytes.NewReader(data)); err == nil {
			t.Errorf("%s: Seed accepted a record naming register 45", name)
		}
		src, err := trace.Open(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		if rec, err := src.Next(); !errors.Is(err, trace.ErrBadRecord) {
			t.Errorf("%s: trace.Open read %+v, %v; want trace.ErrBadRecord", name, rec, err)
		}
	}
}

// container encodes recs as one trace container.
func container(t *testing.T, compress bool, recs ...trace.Record) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf, trace.Header{StartPC: funcsim.CodeBase}, compress)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzSeed feeds arbitrary bytes to the container decoder behind Seed and
// the spill tier: it must never panic, and a container it accepts must
// survive a WriteContainer/Seed round trip record for record.
func FuzzSeed(f *testing.F) {
	k, gzip := exportOf(f, "gzip", 1500)
	_, vpr := exportOf(f, "vpr", 1500)
	f.Add(gzip)
	f.Add(vpr)
	f.Add(gzip[:len(gzip)/2])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := New(Config{}).Seed(k, bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := tr.WriteContainer(&buf); err != nil {
			t.Fatalf("accepted container does not re-encode: %v", err)
		}
		again, err := New(Config{}).Seed(k, &buf)
		if err != nil {
			t.Fatalf("re-encoded container refused: %v", err)
		}
		if again.StartPC() != tr.StartPC() || !reflect.DeepEqual(again.recs, tr.recs) {
			t.Fatal("round trip changed the trace")
		}
	})
}

// direct returns the records of k's trace streamed straight from the
// functional simulator, with no cache in between.
func direct(t *testing.T, k Key) []trace.Record {
	t.Helper()
	src, err := k.Profile.NewSource(k.TC, k.Limit)
	if err != nil {
		t.Fatal(err)
	}
	return drain(t, src)
}

// checkTrace fails unless tr holds exactly want's records from the
// program's entry point.
func checkTrace(t *testing.T, tr *Trace, want []trace.Record) {
	t.Helper()
	if !reflect.DeepEqual(drain(t, tr.Source()), want) {
		t.Fatalf("%d records differ from the %d of direct generation", tr.Records(), len(want))
	}
	if tr.Records() != len(want) || tr.StartPC() != funcsim.CodeBase {
		t.Fatalf("%d records from %#x; want %d from %#x", tr.Records(), tr.StartPC(), len(want), funcsim.CodeBase)
	}
}

// withWrongPath is tc with wrong-path length n and predictor mode perfect.
func withWrongPath(tc funcsim.TraceConfig, n int, perfect bool) funcsim.TraceConfig {
	tc.WrongPathLen, tc.PerfectBP = n, perfect
	return tc
}

// TestDerivedTraceMatchesGeneration: on every profile, a trace derived
// from a longer trace of its family equals direct generation record for
// record, with its own Records, WrongPath and Bits. It covers rule (a)
// with predicted and perfect-predictor families, down to a zero wrong
// path, and rule (b): a perfect-predictor key (Table 1's FAST machine)
// served by a predicted trace of another wrong-path length.
func TestDerivedTraceMatchesGeneration(t *testing.T) {
	const limit = 8000
	tc := defaultTC()
	cases := []struct {
		name      string
		from, key funcsim.TraceConfig
	}{
		{"a/80-to-24", withWrongPath(tc, 80, false), withWrongPath(tc, 24, false)},
		{"a/24-to-8", withWrongPath(tc, 24, false), withWrongPath(tc, 8, false)},
		{"a/80-to-0", withWrongPath(tc, 80, false), withWrongPath(tc, 0, false)},
		{"a/perfect-80-to-24", withWrongPath(tc, 80, true), withWrongPath(tc, 24, true)},
		{"b/rb64-to-fast", func() funcsim.TraceConfig {
			c := core.DefaultConfig()
			c.RBSize = 64
			return c.TraceConfig()
		}(), core.FASTComparisonConfig().TraceConfig()},
		{"b/8-to-perfect-80", withWrongPath(tc, 8, false), withWrongPath(tc, 80, true)},
	}
	for _, name := range workload.Names() {
		p, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, tt := range cases {
			t.Run(name+"/"+tt.name, func(t *testing.T) {
				from, k := KeyFor(p, tt.from, limit), KeyFor(p, tt.key, limit)
				if !from.Serves(k) || k.Serves(from) {
					t.Fatalf("Serves: %t forward, %t back; want true, false", from.Serves(k), k.Serves(from))
				}
				c := New(Config{})
				long, err := c.Get(context.Background(), p, tt.from, limit)
				if err != nil {
					t.Fatal(err)
				}
				tr, err := c.Get(context.Background(), p, tt.key, limit)
				if err != nil {
					t.Fatal(err)
				}
				if st := c.Stats(); st.Generations != 1 || st.Derivations != 1 {
					t.Fatalf("%d generations, %d derivations; want 1 and 1", st.Generations, st.Derivations)
				}
				checkTrace(t, tr, direct(t, k))
				// Cutting a trace to its own length changes nothing.
				checkTrace(t, cut(from, long), long.recs)
			})
		}
	}
}

// TestServesRelation pins what serves what: the same profile and budget,
// and then a strictly longer wrong path with every other field equal, or
// a predicted trace for a perfect-predictor key.
func TestServesRelation(t *testing.T) {
	p := gzipProfile(t)
	tc := defaultTC()
	other := withWrongPath(tc, 80, false)
	other.Predictor.PHTSize *= 2
	k := KeyFor(p, withWrongPath(tc, 24, false), 1000)
	for _, tt := range []struct {
		name string
		s    Key
		want bool
	}{
		{"longer", KeyFor(p, withWrongPath(tc, 80, false), 1000), true},
		{"itself", k, false},
		{"shorter", KeyFor(p, withWrongPath(tc, 8, false), 1000), false},
		{"other budget", KeyFor(p, withWrongPath(tc, 80, false), 2000), false},
		{"other predictor", KeyFor(p, other, 1000), false},
		{"perfect", KeyFor(p, withWrongPath(tc, 80, true), 1000), false},
	} {
		if got := tt.s.Serves(k); got != tt.want {
			t.Errorf("%s: Serves = %t, want %t", tt.name, got, tt.want)
		}
	}
	perfect := KeyFor(p, withWrongPath(tc, 80, true), 1000)
	if !KeyFor(p, other, 1000).Serves(perfect) || perfect.Serves(k) {
		t.Error("a predicted trace must serve any perfect-predictor key, and not the reverse")
	}
}

// familyKeys is a whole family: DefaultConfig at RB 16, 32, 48 and 64,
// predicted and perfect, longest first.
func familyKeys(p workload.Profile, limit uint64) []Key {
	var keys []Key
	for _, perfect := range []bool{false, true} {
		for _, rb := range []int{64, 48, 32, 16} {
			c := core.DefaultConfig()
			c.RBSize, c.PerfectBP = rb, perfect
			keys = append(keys, KeyFor(p, c.TraceConfig(), limit))
		}
	}
	return keys
}

// waitEntries polls until c holds n entries, resident or in flight.
func waitEntries(t *testing.T, c *Cache, n int) {
	t.Helper()
	for c.Stats().Entries != n {
		runtime.Gosched()
	}
}

// TestFamilyRequestedConcurrently asks for a whole family three times per
// key from concurrent goroutines in shuffled order (run under -race).
// Every trace returned is exact, and each key is filled once. When the
// longest key is asked first, the family costs one generation.
func TestFamilyRequestedConcurrently(t *testing.T) {
	const limit = 8000
	p := gzipProfile(t)
	keys := familyKeys(p, limit)
	want := map[Key][]trace.Record{}
	for _, k := range keys {
		want[k] = direct(t, k)
	}
	for _, longestFirst := range []bool{false, true} {
		c := New(Config{})
		var reqs []Key
		for range 3 {
			reqs = append(reqs, keys...)
		}
		rng := rand.New(rand.NewSource(7))
		rng.Shuffle(len(reqs), func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })
		var wg sync.WaitGroup
		get := func(k Key) {
			defer wg.Done()
			tr, err := c.Get(context.Background(), k.Profile, k.TC, k.Limit)
			if err != nil {
				t.Error(err)
				return
			}
			if !reflect.DeepEqual(tr.recs, want[k]) {
				t.Errorf("WrongPathLen %d, PerfectBP %t: trace differs from direct generation", k.TC.WrongPathLen, k.TC.PerfectBP)
			}
		}
		if longestFirst {
			wg.Add(1)
			go get(keys[0])
			waitEntries(t, c, 1) // in flight: the rest wait on it and derive
		}
		for _, k := range reqs {
			wg.Add(1)
			go get(k)
		}
		wg.Wait()
		st := c.Stats()
		t.Logf("longest first %t: %+v", longestFirst, st)
		if st.Generations+st.Derivations != uint64(len(keys)) || st.Entries != len(keys) {
			t.Errorf("longest first %t: %d generations and %d derivations over %d entries; want %d fills",
				longestFirst, st.Generations, st.Derivations, st.Entries, len(keys))
		}
		if longestFirst && st.Generations != 1 {
			t.Errorf("longest first: %d generations, want 1", st.Generations)
		}
	}
}
