// Checkpoint/resume for the timing engine. ReSim's engines are
// deterministic — the same configuration over the same record stream
// reproduces every counter bit for bit — so a run interrupted at a known
// cycle can resume from serialized state instead of restarting from cycle 0
// (the property cycle-accurate simulators like FastSim-generated models and
// ChampSim's warmup/restore state rely on). A Checkpoint is the complete
// per-run state: pipeline and fetch state, reorder-buffer/LSQ/IFQ contents,
// rename and functional-unit occupancy, branch-predictor tables, cache
// arrays, the statistics accumulators and the trace-reader position, in a
// versioned, self-describing JSON encoding.
//
// The contract, pinned by tests at every layer: an uninterrupted run and a
// run checkpointed at a cycle boundary, torn down, and resumed over an
// identical record stream produce byte-identical final statistics.
package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"slices"

	"repro/internal/bpred"
	"repro/internal/cache"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/uarch"
)

// CheckpointVersion is the current checkpoint encoding version; decoding
// rejects other versions.
const CheckpointVersion = 1

// CheckpointedInst is the serialized form of one in-flight instruction —
// the union of the IFQ, reorder-buffer and LSQ entry fields. Structures use
// the fields they carry and leave the rest zero.
type CheckpointedInst struct {
	Seq        int64        `json:"seq"`
	Rec        trace.Record `json:"rec"`
	PC         uint32       `json:"pc,omitempty"`
	ActualNext uint32       `json:"actual_next,omitempty"`
	WrongPath  bool         `json:"wrong_path,omitempty"`
	Mispred    bool         `json:"mispred,omitempty"`

	// Reorder-buffer fields.
	State      uint8 `json:"state,omitempty"`
	Src1Seq    int64 `json:"src1_seq,omitempty"`
	Src2Seq    int64 `json:"src2_seq,omitempty"`
	Src1Rdy    bool  `json:"src1_rdy,omitempty"`
	Src2Rdy    bool  `json:"src2_rdy,omitempty"`
	CompleteAt int64 `json:"complete_at,omitempty"`

	// LSQ fields.
	Store     bool   `json:"store,omitempty"`
	Addr      uint32 `json:"addr,omitempty"`
	Size      uint32 `json:"size,omitempty"`
	EAKnownAt int64  `json:"ea_known_at,omitempty"`
	MemReady  bool   `json:"mem_ready,omitempty"`
	Forwarded bool   `json:"forwarded,omitempty"`
	MemIssued bool   `json:"mem_issued,omitempty"`
}

// Checkpoint is a complete serialized engine state, captured between major
// cycles. Restore it into a fresh engine with Restore; the engine must use
// the same configuration (guarded by ConfigDigest) over an identical record
// stream (re-attached at TracePos).
type Checkpoint struct {
	Version      int    `json:"version"`
	ConfigDigest string `json:"config_digest"`
	// Input names the record stream the checkpointed run consumed, in
	// whatever form the capturing layer can identify it (the resim Session
	// stamps "workload:<name>/n=<limit>" or "trace:<file>"). The engine
	// cannot derive it from its Source, so core.Restore does not check it;
	// layers that know their input validate it before restoring, turning a
	// resume against the wrong stream into a loud error instead of a
	// silently wrong simulation.
	Input string `json:"input,omitempty"`

	// Cycle and fetch state.
	Now           int64  `json:"now"`
	Seq           int64  `json:"seq"`
	FetchPC       uint32 `json:"fetch_pc"`
	FetchResumeAt int64  `json:"fetch_resume_at"`
	Mode          uint8  `json:"mode"`
	SrcDone       bool   `json:"src_done"`
	LastCommitAt  int64  `json:"last_commit_at"`

	// TracePos is how many records the run has irrevocably taken from its
	// source; a resumed run re-attaches to an identical source (for example
	// a fresh tracecache snapshot) by skipping this many records.
	TracePos uint64 `json:"trace_pos"`

	Counters Counters `json:"counters"`

	// Structure contents, oldest first.
	IFQ []CheckpointedInst `json:"ifq"`
	ROB []CheckpointedInst `json:"rob"`
	LSQ []CheckpointedInst `json:"lsq"`

	Rename []int64   `json:"rename"`
	FUBusy [][]int64 `json:"fu_busy"`

	BPred  *bpred.State `json:"bpred,omitempty"`
	ICache *cache.State `json:"icache,omitempty"`
	DCache *cache.State `json:"dcache,omitempty"`

	// Statistics accumulators (the occupancy side of the stats registry;
	// plain counters live in Counters).
	IFQOcc stats.Occupancy `json:"ifq_occ"`
	RBOcc  stats.Occupancy `json:"rb_occ"`
	LSQOcc stats.Occupancy `json:"lsq_occ"`
}

// Cycles returns the major-cycle number the checkpoint was captured at.
func (cp *Checkpoint) Cycles() uint64 { return cp.Counters.Cycles }

// EncodeTo writes the checkpoint's versioned JSON form to w.
func (cp *Checkpoint) EncodeTo(w io.Writer) error {
	enc := json.NewEncoder(w)
	return enc.Encode(cp)
}

// Encode returns the checkpoint's serialized bytes (the EncodeTo encoding).
func (cp *Checkpoint) Encode() ([]byte, error) {
	return json.Marshal(cp)
}

// ReadCheckpoint decodes a checkpoint written by EncodeTo or Encode,
// rejecting unknown versions.
func ReadCheckpoint(r io.Reader) (*Checkpoint, error) {
	var cp Checkpoint
	if err := json.NewDecoder(r).Decode(&cp); err != nil {
		return nil, fmt.Errorf("core: decode checkpoint: %w", err)
	}
	if cp.Version != CheckpointVersion {
		return nil, fmt.Errorf("core: checkpoint version %d, this build reads %d", cp.Version, CheckpointVersion)
	}
	return &cp, nil
}

// DecodeCheckpoint decodes serialized checkpoint bytes (Encode's output).
func DecodeCheckpoint(data []byte) (*Checkpoint, error) {
	return ReadCheckpoint(bytes.NewReader(data))
}

// CheckpointDigest fingerprints the configuration fields that shape
// simulated behavior — a checkpoint only restores into an engine whose
// digest matches, so resuming under a silently different machine fails
// loudly. MaxCycles is excluded: a resumed run may legitimately extend its
// cycle budget. The memory system is validated separately, by the
// geometry carried in the serialized cache state itself.
func (c Config) CheckpointDigest() string {
	id := fmt.Sprintf("v%d w=%d ifq=%d rb=%d lsq=%d fus=%#v rp=%d wp=%d mf=%d mp=%d pbp=%t pred=%#v org=%d",
		CheckpointVersion, c.Width, c.IFQSize, c.RBSize, c.LSQSize, c.FUs,
		c.MemReadPorts, c.MemWritePorts, c.MisfetchPenalty, c.MispredPenalty,
		c.PerfectBP, c.Predictor, c.Organization)
	sum := sha256.Sum256([]byte(id))
	return hex.EncodeToString(sum[:8])
}

// Checkpoint captures the engine's complete per-run state. It must be
// called between major cycles (never from inside Cycle); RunHooks invokes
// it at checkpoint-interval boundaries.
func (e *Engine) Checkpoint() *Checkpoint {
	cp := &Checkpoint{
		Version:      CheckpointVersion,
		ConfigDigest: e.cfg.CheckpointDigest(),

		Now:           e.now,
		Seq:           e.seq,
		FetchPC:       e.fetchPC,
		FetchResumeAt: e.fetchResumeAt,
		Mode:          uint8(e.mode),
		SrcDone:       e.srcDone,
		LastCommitAt:  e.lastCommitAt,
		TracePos:      e.src.Pos(),

		Counters: e.c,

		Rename: e.rt.Producers(),
		FUBusy: e.fus.BusyUntil(),

		ICache: e.icache.State(),
		DCache: e.dcache.State(),

		IFQOcc: e.ifqOcc,
		RBOcc:  e.rbOcc,
		LSQOcc: e.lsqOcc,
	}
	rob := e.head + int64(e.nROB) // the first IFQ seq
	for s := e.head; s < e.seq; s++ {
		en := &e.win[s&int64(len(e.win)-1)]
		ci := CheckpointedInst{
			Seq: en.seq, Rec: en.rec, PC: en.pc, ActualNext: en.actualNext,
			WrongPath: en.wrongPath, Mispred: en.mispred,
		}
		if s >= rob {
			cp.IFQ = append(cp.IFQ, ci)
			continue
		}
		ci.State, ci.CompleteAt = uint8(en.state), en.completeAt
		ci.Src1Seq, ci.Src2Seq = en.src1Seq, en.src2Seq
		ci.Src1Rdy, ci.Src2Rdy = en.src1Rdy, en.src2Rdy
		cp.ROB = append(cp.ROB, ci)
	}
	for _, lq := range e.lsq.Snapshot() {
		cp.LSQ = append(cp.LSQ, CheckpointedInst{
			Seq: lq.seq, Store: lq.store, Addr: lq.addr, Size: lq.size,
			EAKnownAt: lq.eaKnownAt, MemReady: lq.memReady,
			Forwarded: lq.forwarded, MemIssued: lq.memIssued,
		})
	}
	if e.bp != nil {
		st := e.bp.State()
		cp.BPred = &st
	}
	return cp
}

// Restore builds an engine from cfg over src and installs the checkpointed
// state: src must yield the identical record stream the checkpointed run
// consumed (the same trace file, or a tracecache snapshot of the same key) —
// Restore skips the already-consumed prefix and the engine continues from
// cp.Now exactly as the original would have. cfg must carry the same
// simulated-machine parameters (ConfigDigest) and the same memory system.
func Restore(cfg Config, src trace.Source, cp *Checkpoint) (*Engine, error) {
	if cp == nil {
		return nil, fmt.Errorf("core: nil checkpoint")
	}
	if cp.Version != CheckpointVersion {
		return nil, fmt.Errorf("core: checkpoint version %d, this build reads %d", cp.Version, CheckpointVersion)
	}
	if got := cfg.CheckpointDigest(); got != cp.ConfigDigest {
		return nil, fmt.Errorf("core: checkpoint was taken under a different configuration (digest %s, engine %s)",
			cp.ConfigDigest, got)
	}
	e, err := New(cfg, src, cp.FetchPC)
	if err != nil {
		return nil, err
	}
	if err := e.src.Skip(cp.TracePos); err != nil {
		return nil, fmt.Errorf("core: re-attach trace at record %d: %w", cp.TracePos, err)
	}

	if cp.Mode > uint8(fmStarved) {
		return nil, fmt.Errorf("core: checkpoint fetch mode %d unknown", cp.Mode)
	}
	e.now = cp.Now
	e.seq = cp.Seq
	e.fetchPC = cp.FetchPC
	e.fetchResumeAt = cp.FetchResumeAt
	e.mode = fetchMode(cp.Mode)
	e.srcDone = cp.SrcDone
	e.lastCommitAt = cp.LastCommitAt
	e.c = cp.Counters

	if len(cp.ROB) > cfg.RBSize || len(cp.IFQ) > cfg.IFQSize {
		return nil, fmt.Errorf("core: checkpoint holds %d reorder-buffer and %d IFQ entries, the machine has %d and %d",
			len(cp.ROB), len(cp.IFQ), cfg.RBSize, cfg.IFQSize)
	}
	// The window is the reorder buffer followed by the IFQ, and holds the
	// seqs fetched last, oldest first: the engine addresses it by seq.
	e.nROB = len(cp.ROB)
	e.head = cp.Seq - int64(e.nROB+len(cp.IFQ))
	for i, ci := range slices.Concat(cp.ROB, cp.IFQ) {
		if want := e.head + int64(i); ci.Seq != want {
			return nil, fmt.Errorf("core: restore instruction window: seq %d where %d belongs (the window must hold seqs %d to %d)",
				ci.Seq, want, e.head, cp.Seq-1)
		}
		en := &e.win[ci.Seq&int64(len(e.win)-1)]
		*en = robEntry{seq: ci.Seq, rec: ci.Rec, pc: ci.PC,
			actualNext: ci.ActualNext, wrongPath: ci.WrongPath, mispred: ci.Mispred}
		if i >= e.nROB {
			continue
		}
		if ci.State > uint8(stCompleted) {
			return nil, fmt.Errorf("core: restore ROB seq %d: instruction state %d unknown", ci.Seq, ci.State)
		}
		en.state, en.completeAt = instState(ci.State), ci.CompleteAt
		en.src1Seq, en.src2Seq = ci.Src1Seq, ci.Src2Seq
		en.src1Rdy, en.src2Rdy = ci.Src1Rdy, ci.Src2Rdy
	}
	lsq := make([]lsqEntry, len(cp.LSQ))
	for i, ci := range cp.LSQ {
		lsq[i] = lsqEntry{seq: ci.Seq, store: ci.Store, addr: ci.Addr, size: ci.Size,
			eaKnownAt: ci.EAKnownAt, memReady: ci.MemReady,
			forwarded: ci.Forwarded, memIssued: ci.MemIssued}
	}
	if err := e.lsq.SetContents(lsq); err != nil {
		return nil, fmt.Errorf("core: restore LSQ: %w", err)
	}

	if err := e.rt.SetProducers(cp.Rename); err != nil {
		return nil, fmt.Errorf("core: restore rename table: %w", err)
	}
	if err := e.fus.SetBusyUntil(cp.FUBusy); err != nil {
		return nil, fmt.Errorf("core: restore functional units: %w", err)
	}

	switch {
	case e.bp == nil && cp.BPred != nil:
		return nil, fmt.Errorf("core: checkpoint carries predictor state but the engine runs perfect branch prediction")
	case e.bp != nil && cp.BPred == nil:
		return nil, fmt.Errorf("core: checkpoint has no predictor state for the engine's simulated predictor")
	case e.bp != nil:
		if err := e.bp.SetState(*cp.BPred); err != nil {
			return nil, fmt.Errorf("core: restore branch predictor: %w", err)
		}
	}
	if err := e.icache.SetState(cp.ICache); err != nil {
		return nil, fmt.Errorf("core: restore instruction cache: %w", err)
	}
	if err := e.dcache.SetState(cp.DCache); err != nil {
		return nil, fmt.Errorf("core: restore data cache: %w", err)
	}

	e.ifqOcc = cp.IFQOcc
	e.rbOcc = cp.RBOcc
	e.lsqOcc = cp.LSQOcc
	if err := e.rebuildDerived(); err != nil {
		return nil, err
	}
	return e, nil
}

// rebuildDerived reconstructs the engine's event-scheduling state — LSQ
// handles, consumer lists, the ready queue and the completion heap — from
// freshly restored architectural state. Checkpoints never serialize any of
// it (the JSON format predates it and stays stable); it is all a pure
// function of the reorder-buffer, LSQ and rename contents:
//
//   - memory instructions pair with LSQ entries in age order, giving each
//     its lsq handle;
//   - a dispatched entry with a pending operand registers it on the
//     producer named by its src seq (in the reorder buffer and not yet
//     broadcast, or the operand would be ready);
//   - dispatched entries with all operands ready form the ready queue;
//   - issued entries form the completion heap, or the broadcast-overflow
//     queue when their completeAt has already passed (a Width-saturated
//     writeback deferred them).
func (e *Engine) rebuildDerived() error {
	e.clearDerived()
	// inROB reports whether seq s is a reorder-buffer resident.
	inROB := func(s int64) bool { return s >= e.head && s < e.head+int64(e.nROB) }
	li := 0
	for s := e.head; inROB(s); s++ {
		en := e.at(s)
		en.lsq = nil
		if en.rec.Kind == trace.KindMem {
			if li >= e.lsq.Len() || e.lsq.At(li).seq != en.seq {
				return fmt.Errorf("core: LSQ out of sync with reorder buffer at seq %d", en.seq)
			}
			en.lsq = e.lsq.At(li)
			li++
			if !en.rec.Store {
				e.lsqLoads++
			}
		}
		switch en.state {
		case stDispatched:
			for op, pending := range []struct {
				srcSeq int64
				rdy    bool
			}{{en.src1Seq, en.src1Rdy}, {en.src2Seq, en.src2Rdy}} {
				if pending.rdy {
					continue
				}
				if !inROB(pending.srcSeq) {
					return fmt.Errorf("core: seq %d waits on producer %d outside the reorder buffer", s, pending.srcSeq)
				}
				e.addConsumer(pending.srcSeq, s, uint8(op))
			}
			if en.src1Rdy && en.src2Rdy {
				e.readyQ = append(e.readyQ, s)
			}
		case stIssued:
			if en.completeAt <= e.now {
				e.wbReady = append(e.wbReady, s)
			} else {
				e.heapPush(en.completeAt, s)
			}
		}
	}
	if li != e.lsq.Len() {
		return fmt.Errorf("core: %d LSQ entries unmatched by reorder-buffer memory instructions", e.lsq.Len()-li)
	}
	// Every producer the restored rename table names must be a
	// reorder-buffer resident writing that register, or the first dispatch
	// reading it would register on a producer that never broadcasts it;
	// fail restore instead.
	for r, seq := range e.rt.Producers() {
		if seq == uarch.NoProducer {
			continue
		}
		if !inROB(seq) || int(e.at(seq).rec.Dest) != r {
			return fmt.Errorf("core: rename table names seq %d as r%d's producer, but no resident instruction writes it", seq, r)
		}
	}
	return nil
}
