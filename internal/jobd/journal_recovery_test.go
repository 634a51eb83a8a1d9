package jobd

// Recovery edge cases for the journal's tolerant reader: every blemish a
// crash can leave on disk — a torn final line, a corrupted record, an
// empty checkpoint, a temp-file leftover from an interrupted rename —
// must be tolerated (counted and logged, never fatal) and must leave a
// journal that recovers the job correctly.

import (
	"encoding/json"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/sweepd"
)

// seedJournal writes a minimal valid job journal — spec plus n result
// records — and returns the journal and the job id.
func seedJournal(t testing.TB, dir string, n int) (*journal, string) {
	t.Helper()
	jn, err := openJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	pts := reindex(wirePoints(t, "J", []int{8}, []int{4, 8}))
	const id = "job-1"
	err = jn.writeSpec(&specRecord{ID: id, Tenant: "alice", Seq: 1,
		Job: &sweepd.WireJob{Profile: mustProfile(t, "gzip"), Instructions: 6000, Points: pts}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := jn.appendLine(id, resultLine{Result: &sweepd.WireResult{Index: i}}); err != nil {
			t.Fatal(err)
		}
	}
	return jn, id
}

func resultsFile(dir, id string) string {
	return filepath.Join(dir, id, "results.ndjson")
}

func TestRecoveryTruncatedLastLine(t *testing.T) {
	dir := t.TempDir()
	_, id := seedJournal(t, dir, 2)

	// Tear the last record in half — the crash-mid-append signature.
	file := resultsFile(dir, id)
	data, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(strings.TrimSuffix(string(data), "\n"), "\n")
	last := lines[len(lines)-1]
	torn := data[:len(data)-len(last)-1+len(last)/2]
	if err := os.WriteFile(file, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	jn := &journal{dir: dir}
	rec, err := jn.loadJob(id)
	if err != nil {
		t.Fatalf("torn tail was fatal: %v", err)
	}
	if len(rec.results) != 1 || rec.results[0].Index != 0 {
		t.Fatalf("recovered %d results, want exactly the 1 whole record", len(rec.results))
	}
	if jn.tornTails != 1 {
		t.Fatalf("tornTails = %d, want 1", jn.tornTails)
	}
	// The file was truncated back to the last good byte, so future
	// appends extend a consistent log.
	after, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	if len(after) >= len(torn) {
		t.Fatalf("file not truncated: %d bytes, had %d torn", len(after), len(torn))
	}
	if jn2 := (&journal{dir: dir}); true {
		rec2, err := jn2.loadJob(id)
		if err != nil || len(rec2.results) != 1 || jn2.tornTails != 0 {
			t.Fatalf("second load after truncation: results=%d tornTails=%d err=%v, want 1/0/nil",
				len(rec2.results), jn2.tornTails, err)
		}
	}
}

func TestRecoveryCorruptCRC(t *testing.T) {
	dir := t.TempDir()
	_, id := seedJournal(t, dir, 3)

	// Flip payload bytes inside the second record without touching its
	// CRC: a whole line whose checksum no longer matches — silent
	// corruption, not a torn write.
	file := resultsFile(dir, id)
	data, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitN(string(data), "\n", 3)
	var env journalLine
	if err := json.Unmarshal([]byte(lines[1]), &env); err != nil {
		t.Fatal(err)
	}
	env.Line = []byte(strings.Replace(string(env.Line), `"index":1`, `"index":9`, 1))
	if crc32.Checksum(env.Line, crcTable) == env.CRC {
		t.Fatal("corruption did not change the payload")
	}
	bad, err := json.Marshal(env)
	if err != nil {
		t.Fatal(err)
	}
	doctored := lines[0] + "\n" + string(bad) + "\n" + lines[2]
	if err := os.WriteFile(file, []byte(doctored), 0o644); err != nil {
		t.Fatal(err)
	}

	jn := &journal{dir: dir}
	rec, err := jn.loadJob(id)
	if err != nil {
		t.Fatalf("corrupt record was fatal: %v", err)
	}
	// Everything before the corrupt record stands; it and everything
	// after are dropped for deterministic rerun.
	if len(rec.results) != 1 {
		t.Fatalf("recovered %d results, want 1 (stop at the corrupt record)", len(rec.results))
	}
	if jn.crcErrors != 1 || jn.tornTails != 1 {
		t.Fatalf("crcErrors=%d tornTails=%d, want 1/1", jn.crcErrors, jn.tornTails)
	}
}

func TestRecoveryEmptyCheckpoint(t *testing.T) {
	dir := t.TempDir()
	jn, id := seedJournal(t, dir, 0)
	if err := jn.saveCheckpoint(id, 0, []byte("real-state")); err != nil {
		t.Fatal(err)
	}
	// An empty ckpt/<idx> — created but never filled.
	if err := os.WriteFile(filepath.Join(dir, id, "ckpt", "1"), nil, 0o644); err != nil {
		t.Fatal(err)
	}

	jn2 := &journal{dir: dir}
	rec, err := jn2.loadJob(id)
	if err != nil {
		t.Fatalf("empty checkpoint was fatal: %v", err)
	}
	if string(rec.ckpts[0]) != "real-state" {
		t.Fatal("the whole checkpoint was lost alongside the empty one")
	}
	if _, ok := rec.ckpts[1]; ok {
		t.Fatal("an empty checkpoint was handed to the engine")
	}
	if jn2.degraded != 1 {
		t.Fatalf("degraded = %d, want 1 (the empty checkpoint)", jn2.degraded)
	}
}

func TestRecoveryTempFileLeftovers(t *testing.T) {
	dir := t.TempDir()
	_, id := seedJournal(t, dir, 1)
	// Leftovers of atomic renames that never landed, in both the job dir
	// (spec rewrite) and the checkpoint dir.
	leftover := filepath.Join(dir, id, ".tmp-12345")
	if err := os.WriteFile(leftover, []byte("half a spec"), 0o644); err != nil {
		t.Fatal(err)
	}
	ckdir := filepath.Join(dir, id, "ckpt")
	if err := os.MkdirAll(ckdir, 0o755); err != nil {
		t.Fatal(err)
	}
	ckLeftover := filepath.Join(ckdir, ".tmp-67890")
	if err := os.WriteFile(ckLeftover, []byte("half a ckpt"), 0o644); err != nil {
		t.Fatal(err)
	}

	jn := &journal{dir: dir}
	rec, err := jn.loadJob(id)
	if err != nil {
		t.Fatalf("temp leftovers were fatal: %v", err)
	}
	if len(rec.results) != 1 {
		t.Fatalf("recovered %d results, want 1", len(rec.results))
	}
	if jn.degraded != 2 {
		t.Fatalf("degraded = %d, want 2 (one leftover per directory)", jn.degraded)
	}
	for _, f := range []string{leftover, ckLeftover} {
		if _, err := os.Stat(f); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("leftover %s survived recovery", f)
		}
	}
}

// TestRecoveryLegacyPlainLines: journals written before the integrity
// envelope existed carry bare resultLine records; they must still decode.
func TestRecoveryLegacyPlainLines(t *testing.T) {
	dir := t.TempDir()
	_, id := seedJournal(t, dir, 0)
	var plain []byte
	for _, line := range []resultLine{
		{Result: &sweepd.WireResult{Index: 0}},
		{Terminal: StateDone},
	} {
		data, err := json.Marshal(line)
		if err != nil {
			t.Fatal(err)
		}
		plain = append(plain, data...)
		plain = append(plain, '\n')
	}
	if err := os.WriteFile(resultsFile(dir, id), plain, 0o644); err != nil {
		t.Fatal(err)
	}

	jn := &journal{dir: dir}
	rec, err := jn.loadJob(id)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.results) != 1 || rec.terminal != StateDone {
		t.Fatalf("legacy journal decoded results=%d terminal=%q, want 1/done", len(rec.results), rec.terminal)
	}
	if jn.tornTails != 0 || jn.crcErrors != 0 || jn.degraded != 0 {
		t.Fatalf("legacy journal counted as damage: torn=%d crc=%d degraded=%d",
			jn.tornTails, jn.crcErrors, jn.degraded)
	}
}

// TestRetryAfterDerivedFromLoad: admission rejections carry Retry-After
// advice derived from live platform state — deeper queue backlogs and
// busier tenants advise longer waits — instead of the historical
// constant 1.
func TestRetryAfterDerivedFromLoad(t *testing.T) {
	// Queue-full: with MaxQueue 4 fully backed up, the advice scales with
	// depth: 1 + 4*depth/MaxQueue = 5.
	pool := &gatedPool{} // empty: nothing dispatches, everything queues
	p, err := New(Options{Pool: pool, MaxQueue: 4, TenantMaxInFlight: 100})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	pts := wirePoints(t, "RA", []int{8}, []int{4})
	req := SubmitRequest{Workload: "gzip", Instructions: 6000, Points: pts}
	for i := 0; i < 4; i++ {
		if _, err := p.Submit("alice", req); err != nil {
			t.Fatal(err)
		}
	}
	_, err = p.Submit("alice", req)
	var ra *RetryAfterError
	if !errors.As(err, &ra) || !errors.Is(err, ErrQueueFull) {
		t.Fatalf("err = %v, want a RetryAfterError wrapping ErrQueueFull", err)
	}
	if ra.Seconds != 5 {
		t.Fatalf("queue-full Retry-After = %ds, want 5 (1 + 4*4/4)", ra.Seconds)
	}

	// Tenant-busy: a tenant at its in-flight cap gets advice scaling with
	// its own backlog: 1 + queued + running = 3.
	p2, err := New(Options{Pool: &gatedPool{}, MaxQueue: 100, TenantMaxInFlight: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	for i := 0; i < 2; i++ {
		if _, err := p2.Submit("bob", req); err != nil {
			t.Fatal(err)
		}
	}
	_, err = p2.Submit("bob", req)
	if !errors.As(err, &ra) || !errors.Is(err, ErrTenantBusy) {
		t.Fatalf("err = %v, want a RetryAfterError wrapping ErrTenantBusy", err)
	}
	if ra.Seconds != 3 {
		t.Fatalf("tenant-busy Retry-After = %ds, want 3 (1 + 2 queued + 0 running)", ra.Seconds)
	}
}
