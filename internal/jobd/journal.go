// Disk journal for the job platform. Layout, one directory per job:
//
//	DIR/<id>/spec.json      the submission (atomic write, then the job is durable)
//	DIR/<id>/results.ndjson one line per completed point, plus a terminal line
//	DIR/<id>/ckpt/<index>   latest serialized checkpoint per unfinished point
//
// Everything is written crash-first: the spec and checkpoints go through
// temp-file + rename (a reader sees the old or the new bytes, never a
// torn file), and the results log carries a per-record integrity envelope
// — each line is {"crc": <crc32c>, "line": <record>} — with a tolerant
// reader: recovery verifies every checksum, stops at the first torn or
// corrupt record, truncates the file back to the last good byte (counted
// and logged, never fatal) and deterministically reruns whatever was
// dropped. fsync is opt-in (journal.sync, resimd -journal-sync): the
// default durability target is process death, the failure mode the
// platform actually recovers from; sync mode additionally flushes every
// append and rename for power-loss durability at a latency cost.
package jobd

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/sweepd"
)

// Fault-injection site keys for the journal and the HTTP door (see
// internal/faults and docs/ROBUSTNESS.md).
const (
	faultJournalAppend = "jobd.journal.append"
	faultJournalSpec   = "jobd.journal.spec"
	faultJournalCkpt   = "jobd.journal.ckpt"
	faultHTTPSubmit    = "jobd.http.submit"
)

// errTornAppend, injected at the append site, makes appendLine write half
// the record and fail without repair — the on-disk signature of a process
// dying mid-append.
var errTornAppend = errors.New("jobd: injected torn append")

// crcTable is the Castagnoli polynomial every journal record is
// checksummed with.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// specRecord is the journaled form of one submission.
type specRecord struct {
	ID        string          `json:"id"`
	Tenant    string          `json:"tenant"`
	Priority  int             `json:"priority,omitempty"`
	Seq       uint64          `json:"seq"`
	Submitted time.Time       `json:"submitted"`
	Job       *sweepd.WireJob `json:"job"`
}

// resultLine is one line of results.ndjson: either a completed point or the
// job's terminal marker.
type resultLine struct {
	Result   *sweepd.WireResult `json:"result,omitempty"`
	Terminal State              `json:"terminal,omitempty"`
	Err      string             `json:"err,omitempty"`
}

// journalLine is the integrity envelope around every results.ndjson
// record: Line carries the encoded resultLine verbatim and CRC its
// crc32-Castagnoli checksum, so recovery can tell a whole record from a
// torn or silently corrupted one. A line without the envelope is
// treated as corrupt.
type journalLine struct {
	CRC  uint32          `json:"crc"`
	Line json.RawMessage `json:"line"`
}

// recoveredJob is one job replayed from disk.
type recoveredJob struct {
	spec        *specRecord
	results     []*sweepd.WireResult
	terminal    State
	terminalErr string
	ckpts       map[int][]byte
}

type journal struct {
	dir string
	// sync makes every append and atomic rename fsync before reporting
	// success (Options.JournalSync / resimd -journal-sync).
	sync bool
	// inj, when non-nil, arms the journal's fault-injection sites.
	inj *faults.Injector
	// log, when non-nil, receives one event per tolerated recovery
	// blemish.
	log *obs.Logger

	// Recovery degradation tallies, written while load replays the
	// directory (single-threaded, before the platform serves) and read by
	// Platform.Snapshot afterwards.
	tornTails int // results.ndjson tails truncated (torn or corrupt record)
	crcErrors int // records whose integrity envelope failed its checksum
	degraded  int // other tolerated blemishes: empty checkpoints, temp-file leftovers
}

func openJournal(dir string) (*journal, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("jobd: open journal: %w", err)
	}
	return &journal{dir: dir}, nil
}

func (jn *journal) jobDir(id string) string { return filepath.Join(jn.dir, id) }

// atomicWrite writes path via a temp file in the same directory + rename.
// With sync, the temp file is flushed before the rename and the directory
// after it, so the replacement survives power loss, not just process death.
func atomicWrite(path string, data []byte, sync bool) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if sync {
		if err := tmp.Sync(); err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
			return err
		}
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if sync {
		if d, err := os.Open(filepath.Dir(path)); err == nil {
			d.Sync()
			d.Close()
		}
	}
	return nil
}

// writeSpec makes a submission durable. Once it returns, a restart
// recovers the job.
func (jn *journal) writeSpec(rec *specRecord) error {
	dir := jn.jobDir(rec.ID)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	if err := jn.inj.At(faultJournalSpec); err != nil {
		return err
	}
	return atomicWrite(filepath.Join(dir, "spec.json"), data, jn.sync)
}

// appendLine appends one result or terminal line to the job's log,
// wrapped in the CRC integrity envelope.
func (jn *journal) appendLine(id string, line resultLine) error {
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	env, err := json.Marshal(journalLine{CRC: crc32.Checksum(data, crcTable), Line: data})
	if err != nil {
		return err
	}
	env = append(env, '\n')
	f, err := os.OpenFile(filepath.Join(jn.jobDir(id), "results.ndjson"),
		os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if ierr := jn.inj.At(faultJournalAppend); ierr != nil {
		// An injected torn append models the process dying mid-write: half
		// the record lands and nothing repairs it — recovery's torn-tail
		// truncation is what cleans this up.
		if errors.Is(ierr, errTornAppend) {
			f.Write(env[:len(env)/2])
		}
		f.Close()
		return ierr
	}
	_, werr := f.Write(env)
	if werr == nil && jn.sync {
		werr = f.Sync()
	}
	cerr := f.Close()
	if werr != nil {
		return werr
	}
	return cerr
}

// saveCheckpoint persists a point's latest checkpoint, atomically
// replacing any older one.
func (jn *journal) saveCheckpoint(id string, index int, data []byte) error {
	dir := filepath.Join(jn.jobDir(id), "ckpt")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := jn.inj.At(faultJournalCkpt); err != nil {
		return err
	}
	return atomicWrite(filepath.Join(dir, strconv.Itoa(index)), data, jn.sync)
}

// dropCheckpoint removes a point's persisted checkpoint (its result is
// durable, the resume state is dead weight). Best-effort.
func (jn *journal) dropCheckpoint(id string, index int) {
	os.Remove(filepath.Join(jn.jobDir(id), "ckpt", strconv.Itoa(index)))
}

// clearCheckpoints removes a terminal job's checkpoint directory.
func (jn *journal) clearCheckpoints(id string) {
	os.RemoveAll(filepath.Join(jn.jobDir(id), "ckpt"))
}

// load replays every job directory. Unreadable entries are skipped, never
// fatal: one corrupt job must not keep the service from coming back up.
func (jn *journal) load() ([]*recoveredJob, error) {
	entries, err := os.ReadDir(jn.dir)
	if err != nil {
		return nil, fmt.Errorf("jobd: read journal: %w", err)
	}
	var out []*recoveredJob
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		rec, err := jn.loadJob(e.Name())
		if err != nil {
			// Torn spec (crash mid-submit before the rename landed) or
			// hand-damaged directory: the submission was never acknowledged
			// durable, skipping it breaks no promise.
			continue
		}
		out = append(out, rec)
	}
	return out, nil
}

func (jn *journal) loadJob(id string) (*recoveredJob, error) {
	dir := jn.jobDir(id)
	data, err := os.ReadFile(filepath.Join(dir, "spec.json"))
	if err != nil {
		return nil, err
	}
	spec := &specRecord{}
	if err := json.Unmarshal(data, spec); err != nil {
		return nil, fmt.Errorf("jobd: job %s: corrupt spec: %w", id, err)
	}
	if spec.ID != id || spec.Job == nil {
		return nil, fmt.Errorf("jobd: job %s: spec does not match its directory", id)
	}
	rec := &recoveredJob{spec: spec, ckpts: make(map[int][]byte)}

	// Temp-file leftovers from atomic renames that never landed (crash
	// between create and rename) are invisible to readers but accumulate
	// forever if never collected; sweep them here, counted.
	if ents, err := os.ReadDir(dir); err == nil {
		for _, e := range ents {
			if strings.HasPrefix(e.Name(), ".tmp-") {
				jn.degraded++
				jn.log.Event("jobd.journal_degraded", "job", id, "reason", "tmp_leftover", "name", e.Name())
				os.Remove(filepath.Join(dir, e.Name()))
			}
		}
	}

	// Results log: verify every record's integrity envelope and stop at
	// the first torn or corrupt one, truncating the file back to the last
	// good byte so future appends extend a consistent log. Everything
	// before the cut stands; everything after reruns deterministically. A
	// result naming no point of the spec counts as corrupt.
	file := filepath.Join(dir, "results.ndjson")
	if data, err := os.ReadFile(file); err == nil {
		good := 0
		for good < len(data) {
			raw := data[good:]
			next := len(data)
			if nl := bytes.IndexByte(raw, '\n'); nl >= 0 {
				raw = raw[:nl]
				next = good + nl + 1
			}
			line, ok := jn.decodeResultLine(id, raw)
			if !ok || line.Result != nil && (line.Result.Index < 0 || line.Result.Index >= len(spec.Job.Points)) {
				break
			}
			switch {
			case line.Result != nil:
				rec.results = append(rec.results, line.Result)
			case line.Terminal != "":
				rec.terminal = line.Terminal
				rec.terminalErr = line.Err
			}
			good = next
		}
		if good < len(data) {
			jn.tornTails++
			jn.log.Event("jobd.journal_torn_tail", "job", id,
				"kept_bytes", good, "dropped_bytes", len(data)-good)
			os.Truncate(file, int64(good))
		}
	}

	// Checkpoints only matter for non-terminal jobs; their writes are
	// atomic so any present file is whole. Anything else in the directory
	// — rename leftovers, an empty or foreign file — is cleaned or
	// skipped, counted, never fatal: the point just runs from scratch.
	if rec.terminal == "" {
		ckdir := filepath.Join(dir, "ckpt")
		if ents, err := os.ReadDir(ckdir); err == nil {
			for _, ce := range ents {
				idx, err := strconv.Atoi(ce.Name())
				if err != nil {
					jn.degraded++
					jn.log.Event("jobd.journal_degraded", "job", id, "reason", "foreign_ckpt", "name", ce.Name())
					if strings.HasPrefix(ce.Name(), ".tmp-") {
						os.Remove(filepath.Join(ckdir, ce.Name()))
					}
					continue
				}
				data, err := os.ReadFile(filepath.Join(ckdir, ce.Name()))
				if err != nil {
					continue
				}
				if len(data) == 0 {
					jn.degraded++
					jn.log.Event("jobd.journal_degraded", "job", id, "reason", "empty_ckpt", "point", idx)
					continue
				}
				rec.ckpts[idx] = data
			}
		}
	}
	return rec, nil
}

// decodeResultLine decodes one journal record, unwrapping and verifying
// the CRC envelope. ok=false marks the record torn, corrupt or without an
// envelope — the caller truncates from there.
func (jn *journal) decodeResultLine(id string, raw []byte) (resultLine, bool) {
	var env journalLine
	var line resultLine
	if err := json.Unmarshal(raw, &env); err != nil || env.Line == nil {
		return line, false
	}
	if crc32.Checksum(env.Line, crcTable) != env.CRC {
		jn.crcErrors++
		jn.log.Event("jobd.journal_crc_error", "job", id, "bytes", len(raw))
		return line, false
	}
	if err := json.Unmarshal(env.Line, &line); err != nil {
		return line, false
	}
	return line, true
}
