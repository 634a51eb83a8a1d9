// Package bpred implements the ReSim branch predictor block: a direction
// predictor, a branch target buffer (BTB) and a return address stack (RAS),
// all parameterizable (paper §III). The paper generates VHDL for the desired
// predictor from user parameters with a script; the analog here is Config +
// New + Describe, and the storage-bit accounting that internal/fpga uses to
// budget BRAMs (Table 4 places 71% of ReSim's BRAMs in the BP).
//
// The evaluated configuration (paper §V.C): RAS 16 entries, direct-mapped
// BTB with 512 entries, and a two-level direction predictor with BHT size 4,
// history register length 8 and a 4096-entry PHT.
package bpred

import (
	"fmt"
	"math/bits"
	"strings"
)

// DirKind selects the direction predictor style.
type DirKind uint8

// Direction predictor kinds.
const (
	DirTwoLevel DirKind = iota // BHT of history registers indexing a PHT
	DirBimodal                 // per-PC 2-bit counters
	DirTaken                   // static always-taken
	DirNotTaken                // static always-not-taken
	DirCombined                // bimodal + two-level with a meta chooser
)

// String names the direction predictor kind.
func (k DirKind) String() string {
	switch k {
	case DirTwoLevel:
		return "2lev"
	case DirBimodal:
		return "bimod"
	case DirTaken:
		return "taken"
	case DirNotTaken:
		return "nottaken"
	case DirCombined:
		return "comb"
	}
	return fmt.Sprintf("DirKind(%d)", uint8(k))
}

// Config holds the full set of user parameters the paper's generation
// script accepts.
type Config struct {
	Dir DirKind

	// Two-level parameters (paper defaults: 4 / 8 / 4096).
	BHTSize  int  // number of branch history registers (power of two)
	HistLen  int  // bits of history per register
	PHTSize  int  // number of 2-bit pattern history counters (power of two)
	XORIndex bool // PHT index = history XOR pc bits (gshare style) instead of concatenation

	// Bimodal parameter.
	BimodSize int // number of 2-bit counters (power of two)

	// Combined-predictor parameter: 2-bit meta counters choosing between
	// the bimodal and two-level components per branch.
	MetaSize int // power of two; used when Dir == DirCombined

	// BTB geometry (paper default: 512 entries, direct mapped).
	BTBEntries int
	BTBAssoc   int
	// BTBTagBits bounds the stored tag width; 0 keeps full tags. Partial
	// tags are what make misfetches possible (a direct branch hits an
	// aliased entry and fetches the wrong target, §III).
	BTBTagBits int

	// RAS depth (paper default: 16).
	RASSize int
}

// Default returns the configuration evaluated in the paper.
func Default() Config {
	return Config{
		Dir:        DirTwoLevel,
		BHTSize:    4,
		HistLen:    8,
		PHTSize:    4096,
		BimodSize:  2048,
		BTBEntries: 512,
		BTBAssoc:   1,
		RASSize:    16,
	}
}

// Validate reports configuration errors (non-power-of-two table sizes, etc).
func (c Config) Validate() error {
	pow2 := func(name string, v int) error {
		if v <= 0 || v&(v-1) != 0 {
			return fmt.Errorf("bpred: %s must be a positive power of two, got %d", name, v)
		}
		return nil
	}
	if c.Dir == DirTwoLevel || c.Dir == DirCombined {
		if err := pow2("BHTSize", c.BHTSize); err != nil {
			return err
		}
		if err := pow2("PHTSize", c.PHTSize); err != nil {
			return err
		}
		if c.HistLen <= 0 || c.HistLen > 30 {
			return fmt.Errorf("bpred: HistLen out of range: %d", c.HistLen)
		}
	}
	if c.Dir == DirBimodal || c.Dir == DirCombined {
		if err := pow2("BimodSize", c.BimodSize); err != nil {
			return err
		}
	}
	if c.Dir == DirCombined {
		if err := pow2("MetaSize", c.MetaSize); err != nil {
			return err
		}
	}
	if c.BTBEntries > 0 {
		if err := pow2("BTBEntries", c.BTBEntries); err != nil {
			return err
		}
		if c.BTBAssoc <= 0 || c.BTBEntries%c.BTBAssoc != 0 {
			return fmt.Errorf("bpred: BTBAssoc %d does not divide %d entries", c.BTBAssoc, c.BTBEntries)
		}
	}
	if c.BTBTagBits < 0 || c.BTBTagBits > 30 {
		return fmt.Errorf("bpred: BTBTagBits out of range: %d", c.BTBTagBits)
	}
	if c.RASSize < 0 {
		return fmt.Errorf("bpred: negative RASSize")
	}
	return nil
}

// StorageBits returns the predictor's total state in bits; internal/fpga
// maps this onto Block RAMs ("We used Block RAMs only in the Branch
// Predictor", Table 4).
func (c Config) StorageBits() int {
	bits := 0
	switch c.Dir {
	case DirTwoLevel:
		bits += c.BHTSize * c.HistLen // history registers
		bits += c.PHTSize * 2         // 2-bit counters
	case DirBimodal:
		bits += c.BimodSize * 2
	case DirCombined:
		bits += c.BHTSize*c.HistLen + c.PHTSize*2 + c.BimodSize*2 + c.MetaSize*2
	}
	if c.BTBEntries > 0 {
		// Each BTB entry: 32-bit target + tag + valid. Full tags are
		// budgeted at 20 bits.
		tag := 20
		if c.BTBTagBits > 0 {
			tag = c.BTBTagBits
		}
		bits += c.BTBEntries * (32 + tag + 1)
	}
	bits += c.RASSize * 32
	return bits
}

// Predictor is a concrete branch predictor instance.
type Predictor struct {
	cfg Config //resim:ckpt-exempt immutable configuration; SetState validates restored table geometry against it

	bht  []uint32 // history registers
	pht  []uint8  // 2-bit saturating counters
	bim  []uint8  // bimodal counters
	meta []uint8  // combined-predictor chooser counters

	btbTags  []uint32
	btbTgts  []uint32
	btbValid []bool
	btbLRU   []uint8 // per-set round-robin pointer for assoc > 1
	btbSets  int     //resim:ckpt-exempt geometry derived from cfg by New; the BTB tables restore by length-checked copy
	btbAssoc int     //resim:ckpt-exempt geometry derived from cfg by New

	ras    []uint32
	rasTop int // index of next free slot (stack grows up, wraps)
	rasCnt int
}

// New builds a predictor from cfg. It panics on invalid configuration;
// callers constructing configs at runtime should Validate first.
func New(cfg Config) *Predictor {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	p := &Predictor{cfg: cfg}
	if cfg.Dir == DirTwoLevel || cfg.Dir == DirCombined {
		p.bht = make([]uint32, cfg.BHTSize)
		p.pht = make([]uint8, cfg.PHTSize)
		for i := range p.pht {
			p.pht[i] = 2 // weakly taken, sim-outorder's reset state
		}
	}
	if cfg.Dir == DirBimodal || cfg.Dir == DirCombined {
		p.bim = make([]uint8, cfg.BimodSize)
		for i := range p.bim {
			p.bim[i] = 2
		}
	}
	if cfg.Dir == DirCombined {
		p.meta = make([]uint8, cfg.MetaSize)
		for i := range p.meta {
			p.meta[i] = 2 // weakly prefer the two-level component
		}
	}
	if cfg.BTBEntries > 0 {
		p.btbAssoc = cfg.BTBAssoc
		p.btbSets = cfg.BTBEntries / cfg.BTBAssoc
		n := cfg.BTBEntries
		p.btbTags = make([]uint32, n)
		p.btbTgts = make([]uint32, n)
		p.btbValid = make([]bool, n)
		p.btbLRU = make([]uint8, p.btbSets)
	}
	if cfg.RASSize > 0 {
		p.ras = make([]uint32, cfg.RASSize)
	}
	return p
}

func (p *Predictor) phtIndex(pc uint32) int {
	h := p.bht[(pc>>2)&uint32(p.cfg.BHTSize-1)]
	mask := uint32(p.cfg.PHTSize - 1)
	if p.cfg.XORIndex {
		return int((h ^ (pc >> 2)) & mask)
	}
	// Concatenate: history in the high bits, pc bits below.
	lowBits := uint(bits.TrailingZeros32(uint32(p.cfg.PHTSize))) - uint(p.cfg.HistLen)
	if int(lowBits) < 0 || p.cfg.HistLen >= bits.TrailingZeros32(uint32(p.cfg.PHTSize)) {
		return int(h & mask)
	}
	return int((h<<lowBits | (pc >> 2 & (1<<lowBits - 1))) & mask)
}

func (p *Predictor) predictTwoLevel(pc uint32) bool {
	return p.pht[p.phtIndex(pc)] >= 2
}

func (p *Predictor) predictBimodal(pc uint32) bool {
	return p.bim[(pc>>2)&uint32(p.cfg.BimodSize-1)] >= 2
}

// PredictDir returns the direction prediction for a conditional branch at pc.
func (p *Predictor) PredictDir(pc uint32) bool {
	switch p.cfg.Dir {
	case DirTwoLevel:
		return p.predictTwoLevel(pc)
	case DirBimodal:
		return p.predictBimodal(pc)
	case DirCombined:
		if p.meta[(pc>>2)&uint32(p.cfg.MetaSize-1)] >= 2 {
			return p.predictTwoLevel(pc)
		}
		return p.predictBimodal(pc)
	case DirTaken:
		return true
	default:
		return false
	}
}

// UpdateDir trains the direction predictor with the resolved outcome.
// ReSim performs this update when the branch commits (paper §III: "Commit
// ... updates the Branch Predictor in case of branch").
func (p *Predictor) UpdateDir(pc uint32, taken bool) {
	bump := func(c uint8) uint8 {
		if taken {
			if c < 3 {
				return c + 1
			}
			return 3
		}
		if c > 0 {
			return c - 1
		}
		return 0
	}
	updateTwoLevel := func() {
		idx := p.phtIndex(pc)
		p.pht[idx] = bump(p.pht[idx])
		b := (pc >> 2) & uint32(p.cfg.BHTSize-1)
		p.bht[b] = (p.bht[b]<<1 | b2u(taken)) & (1<<uint(p.cfg.HistLen) - 1)
	}
	updateBimodal := func() {
		idx := (pc >> 2) & uint32(p.cfg.BimodSize-1)
		p.bim[idx] = bump(p.bim[idx])
	}
	switch p.cfg.Dir {
	case DirTwoLevel:
		updateTwoLevel()
	case DirBimodal:
		updateBimodal()
	case DirCombined:
		// Train the chooser toward whichever component was right (only
		// when they disagree), then train both components.
		tl, bm := p.predictTwoLevel(pc), p.predictBimodal(pc)
		if tl != bm {
			mi := (pc >> 2) & uint32(p.cfg.MetaSize-1)
			if tl == taken {
				if p.meta[mi] < 3 {
					p.meta[mi]++
				}
			} else if p.meta[mi] > 0 {
				p.meta[mi]--
			}
		}
		updateTwoLevel()
		updateBimodal()
	}
}

func b2u(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

// btbTag derives the stored tag for pc: the index bits are stripped and the
// remainder truncated to BTBTagBits when partial tags are configured.
func (p *Predictor) btbTag(pc uint32) uint32 {
	tag := (pc >> 2) / uint32(p.btbSets)
	if b := p.cfg.BTBTagBits; b > 0 {
		tag &= 1<<uint(b) - 1
	}
	return tag
}

// LookupBTB returns the predicted target for pc, if present.
func (p *Predictor) LookupBTB(pc uint32) (target uint32, hit bool) {
	if p.btbSets == 0 {
		return 0, false
	}
	set := int(pc>>2) & (p.btbSets - 1)
	base := set * p.btbAssoc
	tag := p.btbTag(pc)
	for w := 0; w < p.btbAssoc; w++ {
		if p.btbValid[base+w] && p.btbTags[base+w] == tag {
			return p.btbTgts[base+w], true
		}
	}
	return 0, false
}

// UpdateBTB installs or refreshes the target for pc.
func (p *Predictor) UpdateBTB(pc, target uint32) {
	if p.btbSets == 0 {
		return
	}
	set := int(pc>>2) & (p.btbSets - 1)
	base := set * p.btbAssoc
	tag := p.btbTag(pc)
	// Hit: refresh in place.
	for w := 0; w < p.btbAssoc; w++ {
		if p.btbValid[base+w] && p.btbTags[base+w] == tag {
			p.btbTgts[base+w] = target
			return
		}
	}
	// Miss: fill an invalid way, else round-robin replace.
	victim := -1
	for w := 0; w < p.btbAssoc; w++ {
		if !p.btbValid[base+w] {
			victim = w
			break
		}
	}
	if victim < 0 {
		victim = int(p.btbLRU[set]) % p.btbAssoc
		p.btbLRU[set]++
	}
	p.btbTags[base+victim] = tag
	p.btbTgts[base+victim] = target
	p.btbValid[base+victim] = true
}

// PushRAS records a return address at a call (performed at fetch; wrong-path
// calls corrupt the stack exactly as the modeled hardware would).
func (p *Predictor) PushRAS(ret uint32) {
	if len(p.ras) == 0 {
		return
	}
	p.ras[p.rasTop] = ret
	p.rasTop = (p.rasTop + 1) % len(p.ras)
	if p.rasCnt < len(p.ras) {
		p.rasCnt++
	}
}

// PopRAS returns the predicted return address, if the stack is non-empty.
func (p *Predictor) PopRAS() (uint32, bool) {
	if len(p.ras) == 0 || p.rasCnt == 0 {
		return 0, false
	}
	p.rasTop = (p.rasTop - 1 + len(p.ras)) % len(p.ras)
	p.rasCnt--
	return p.ras[p.rasTop], true
}

// RASDepth returns the current stack depth.
func (p *Predictor) RASDepth() int { return p.rasCnt }

// State is the predictor's complete mutable state in a self-describing,
// serializable form (every table the generated hardware would hold in BRAM).
// Capture it with (*Predictor).State and reinstall it with SetState; the
// round trip is lossless, so a restored predictor produces bit-identical
// predictions — the property engine checkpoint/resume is built on.
type State struct {
	BHT  []uint32 `json:"bht,omitempty"`
	PHT  []uint8  `json:"pht,omitempty"`
	Bim  []uint8  `json:"bim,omitempty"`
	Meta []uint8  `json:"meta,omitempty"`

	BTBTags  []uint32 `json:"btb_tags,omitempty"`
	BTBTgts  []uint32 `json:"btb_tgts,omitempty"`
	BTBValid []bool   `json:"btb_valid,omitempty"`
	BTBLRU   []uint8  `json:"btb_lru,omitempty"`

	RAS    []uint32 `json:"ras,omitempty"`
	RASTop int      `json:"ras_top,omitempty"`
	RASCnt int      `json:"ras_cnt,omitempty"`
}

// State captures the predictor's mutable state. The returned slices are
// copies; mutating them does not affect the predictor.
func (p *Predictor) State() State {
	return State{
		BHT: cp(p.bht), PHT: cp(p.pht), Bim: cp(p.bim), Meta: cp(p.meta),
		BTBTags: cp(p.btbTags), BTBTgts: cp(p.btbTgts),
		BTBValid: cp(p.btbValid), BTBLRU: cp(p.btbLRU),
		RAS: cp(p.ras), RASTop: p.rasTop, RASCnt: p.rasCnt,
	}
}

// SetState restores state captured from a predictor with the same
// configuration. Table geometry is validated field by field so a checkpoint
// taken under a different predictor configuration fails loudly.
func (p *Predictor) SetState(s State) error {
	check := func(name string, got, want int) error {
		if got != want {
			return fmt.Errorf("bpred: restore %s has %d entries, predictor holds %d", name, got, want)
		}
		return nil
	}
	for _, c := range []struct {
		name      string
		got, want int
	}{
		{"BHT", len(s.BHT), len(p.bht)},
		{"PHT", len(s.PHT), len(p.pht)},
		{"bimodal", len(s.Bim), len(p.bim)},
		{"meta", len(s.Meta), len(p.meta)},
		{"BTB tags", len(s.BTBTags), len(p.btbTags)},
		{"BTB targets", len(s.BTBTgts), len(p.btbTgts)},
		{"BTB valid", len(s.BTBValid), len(p.btbValid)},
		{"BTB LRU", len(s.BTBLRU), len(p.btbLRU)},
		{"RAS", len(s.RAS), len(p.ras)},
	} {
		if err := check(c.name, c.got, c.want); err != nil {
			return err
		}
	}
	if len(p.ras) > 0 && (s.RASTop < 0 || s.RASTop >= len(p.ras) || s.RASCnt < 0 || s.RASCnt > len(p.ras)) {
		return fmt.Errorf("bpred: restore RAS top %d / count %d out of range for %d entries", s.RASTop, s.RASCnt, len(p.ras))
	}
	copy(p.bht, s.BHT)
	copy(p.pht, s.PHT)
	copy(p.bim, s.Bim)
	copy(p.meta, s.Meta)
	copy(p.btbTags, s.BTBTags)
	copy(p.btbTgts, s.BTBTgts)
	copy(p.btbValid, s.BTBValid)
	copy(p.btbLRU, s.BTBLRU)
	copy(p.ras, s.RAS)
	p.rasTop, p.rasCnt = s.RASTop, s.RASCnt
	return nil
}

// cp returns a copy of s (nil stays nil, so State omits absent tables).
func cp[T any](s []T) []T {
	if s == nil {
		return nil
	}
	out := make([]T, len(s))
	copy(out, s)
	return out
}

// Describe emits a VHDL-entity-like summary of the generated predictor,
// mirroring the paper's script that "produces VHDL code for the desired
// Branch Predictor according to the user parameters".
func (c Config) Describe() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "entity branch_predictor is\n  generic (\n")
	fmt.Fprintf(&sb, "    DIR_KIND    : string  := %q;\n", c.Dir.String())
	if c.Dir == DirTwoLevel || c.Dir == DirCombined {
		fmt.Fprintf(&sb, "    BHT_SIZE    : integer := %d;\n", c.BHTSize)
		fmt.Fprintf(&sb, "    HIST_LEN    : integer := %d;\n", c.HistLen)
		fmt.Fprintf(&sb, "    PHT_SIZE    : integer := %d;\n", c.PHTSize)
	}
	if c.Dir == DirBimodal || c.Dir == DirCombined {
		fmt.Fprintf(&sb, "    BIMOD_SIZE  : integer := %d;\n", c.BimodSize)
	}
	if c.Dir == DirCombined {
		fmt.Fprintf(&sb, "    META_SIZE   : integer := %d;\n", c.MetaSize)
	}
	fmt.Fprintf(&sb, "    BTB_ENTRIES : integer := %d;\n", c.BTBEntries)
	fmt.Fprintf(&sb, "    BTB_ASSOC   : integer := %d;\n", c.BTBAssoc)
	fmt.Fprintf(&sb, "    RAS_SIZE    : integer := %d\n", c.RASSize)
	fmt.Fprintf(&sb, "  );\nend branch_predictor; -- %d state bits\n", c.StorageBits())
	return sb.String()
}
