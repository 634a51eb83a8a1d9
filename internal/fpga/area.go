package fpga

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/bpred"
	"repro/internal/cache"
	"repro/internal/core"
)

// Area is an FPGA resource triple.
type Area struct {
	Slices int
	LUTs   int
	BRAMs  int
}

// Add returns the component-wise sum.
func (a Area) Add(b Area) Area {
	return Area{a.Slices + b.Slices, a.LUTs + b.LUTs, a.BRAMs + b.BRAMs}
}

// StageArea is one row of Table 4: a pipeline stage or storage structure
// with its resource cost.
type StageArea struct {
	Name  string
	Cache bool // true for I-C / D-C (excluded from the headline total, §V)
	Area  Area
}

// Breakdown is the full Table 4 estimate for one configuration.
type Breakdown struct {
	Stages []StageArea
}

// refTotalSlices and refTotalLUTs are the published totals for the reference
// configuration (Table 4, xc4vlx40).
const (
	refTotalSlices = 12273
	refTotalLUTs   = 17175
)

// reference per-stage fractions from Table 4. Order matches the paper's
// columns: fetch disp issue lsq wb cmt RT RB LSQ BP D-C I-C.
var refStages = []struct {
	name               string
	cache              bool
	sliceFrac, lutFrac float64
}{
	{"fetch", false, 0.25, 0.23},
	{"disp", false, 0.09, 0.05},
	{"issue", false, 0.05, 0.07},
	{"lsq", false, 0.14, 0.19}, // the Lsq_refresh stage logic
	{"wb", false, 0.03, 0.04},
	{"cmt", false, 0.02, 0.02},
	{"RT", false, 0.03, 0.04},
	{"RB", false, 0.13, 0.14},
	{"LSQ", false, 0.06, 0.04}, // the LSQ storage structure
	{"BP", false, 0.02, 0.02},
	{"D-C", true, 0.17, 0.15},
	{"I-C", true, 0.01, 0.01},
}

// referenceConfig is the configuration Table 4 was measured at: the 4-wide
// processor of §V.C with the 32K L1 caches present.
func referenceConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.ICache = cache.Side{L1: cache.L1Config32K("il1")}
	cfg.DCache = cache.Side{L1: cache.L1Config32K("dl1")}
	return cfg
}

// bram18Kbits is the Virtex-4 block RAM capacity the estimator budgets
// against.
const bram18Kbits = 18 * 1024

// scale returns the first-order area scaling of each stage relative to the
// reference configuration. The estimator is calibrated to reproduce Table 4
// exactly at the reference point; away from it, each structure scales with
// the parameters that dominate its hardware cost (entries for storage,
// width for per-slot logic, quadratic in LSQ depth for the disambiguation
// comparators).
func scale(name string, cfg, ref core.Config) float64 {
	n := float64(cfg.Width) / float64(ref.Width)
	ifq := float64(cfg.IFQSize) / float64(ref.IFQSize)
	rb := float64(cfg.RBSize) / float64(ref.RBSize)
	lsq := float64(cfg.LSQSize) / float64(ref.LSQSize)
	switch name {
	case "fetch":
		return 0.6*n + 0.4*ifq
	case "disp":
		return n
	case "issue":
		return 0.5*n + 0.5*rb
	case "lsq":
		return 0.5*lsq + 0.5*lsq*lsq
	case "wb", "cmt":
		return n
	case "RT":
		return 0.5 + 0.5*n
	case "RB":
		return rb * (0.5 + 0.5*n)
	case "LSQ":
		return lsq
	case "BP":
		if cfg.PerfectBP {
			return 0.25 // trivial always-correct redirect logic
		}
		ras := 1.0
		if ref.Predictor.RASSize > 0 {
			ras = float64(cfg.Predictor.RASSize) / float64(ref.Predictor.RASSize)
		}
		return 0.7 + 0.3*ras
	case "D-C":
		return cacheTagScale(cfg.DCache.L1) / cacheTagScale(ref.DCache.L1)
	case "I-C":
		if cfg.ICache.Perfect() {
			return 0
		}
		return 1
	}
	return 1
}

// cacheTagScale is proportional to the distributed-RAM tag state of an L1
// (ReSim stores no data: "we need to provide only the hit/miss indication",
// §V); perfect memory (the zero Config) has none. An L2 behind the L1 is
// outside the modeled design.
func cacheTagScale(cfg cache.Config) float64 {
	if cfg == (cache.Config{}) {
		return 0
	}
	tagBits := 32 - math.Log2(float64(cfg.Sets())) - math.Log2(float64(cfg.BlockBytes))
	return float64(cfg.Sets()*cfg.Assoc) * (tagBits + 2) // tag + valid + dirty
}

// bpBRAMs counts the branch predictor's block RAMs: each logical memory
// (PHT or bimodal table, BTB tags, BTB targets, BHT, RAS) synthesizes to its
// own BRAM(s). At the paper's configuration this yields 5 BRAMs — 71% of the
// design's 7 (Table 4: "We used Block RAMs only in the Branch Predictor").
func bpBRAMs(cfg core.Config) int {
	if cfg.PerfectBP {
		return 0
	}
	p := cfg.Predictor
	var memories []int
	switch p.Dir {
	case bpred.DirTwoLevel: // BHT + PHT
		memories = append(memories, p.BHTSize*p.HistLen, p.PHTSize*2)
	case bpred.DirBimodal:
		memories = append(memories, p.BimodSize*2)
	case bpred.DirCombined:
		memories = append(memories, p.BHTSize*p.HistLen, p.PHTSize*2,
			p.BimodSize*2, p.MetaSize*2)
	}
	if p.BTBEntries > 0 {
		tag := 20
		if p.BTBTagBits > 0 {
			tag = p.BTBTagBits
		}
		memories = append(memories, p.BTBEntries*tag, p.BTBEntries*32)
	}
	if p.RASSize > 0 {
		memories = append(memories, p.RASSize*32)
	}
	total := 0
	for _, bits := range memories {
		n := (bits + bram18Kbits - 1) / bram18Kbits
		if n < 1 {
			n = 1
		}
		total += n
	}
	return total
}

// icacheBRAMs counts the I-cache tag BRAMs: one control/state BRAM plus the
// tag array (2 at the 32K configuration, 29% of 7 in Table 4). The D-cache
// tags use distributed RAM (hence its 17% slice share and zero BRAMs).
func icacheBRAMs(cfg core.Config) int {
	if cfg.ICache.Perfect() {
		return 0
	}
	tagBits := int(cacheTagScale(cfg.ICache.L1))
	return 1 + (tagBits+bram18Kbits-1)/bram18Kbits
}

// EstimateArea produces the Table 4 breakdown for cfg. The model is
// calibrated so the reference configuration reproduces the published totals
// (12273 slices, 17175 LUTs, 7 BRAMs on xc4vlx40); other configurations use
// the first-order scalings documented on scale.
func EstimateArea(cfg core.Config) (Breakdown, error) {
	if err := cfg.Validate(); err != nil {
		return Breakdown{}, err
	}
	ref := referenceConfig()
	var b Breakdown
	for _, rs := range refStages {
		s := scale(rs.name, cfg, ref)
		st := StageArea{
			Name:  rs.name,
			Cache: rs.cache,
			Area: Area{
				Slices: int(math.Round(rs.sliceFrac * refTotalSlices * s)),
				LUTs:   int(math.Round(rs.lutFrac * refTotalLUTs * s)),
			},
		}
		switch rs.name {
		case "BP":
			st.Area.BRAMs = bpBRAMs(cfg)
		case "I-C":
			st.Area.BRAMs = icacheBRAMs(cfg)
		}
		b.Stages = append(b.Stages, st)
	}
	return b, nil
}

// Total sums every stage, caches included.
func (b Breakdown) Total() Area {
	var t Area
	for _, s := range b.Stages {
		t = t.Add(s.Area)
	}
	return t
}

// TotalExcludingCaches sums the non-cache stages; the paper's headline total
// "does not include instruction and data caches".
func (b Breakdown) TotalExcludingCaches() Area {
	var t Area
	for _, s := range b.Stages {
		if !s.Cache {
			t = t.Add(s.Area)
		}
	}
	return t
}

// FitsIn reports whether the design fits dev, and how many whole instances
// do — the multi-core direction in the paper's conclusions ("it is possible
// to fit multiple ReSim instances in a single FPGA"). Estimates are in
// Virtex-4 slice units; the device's V4-equivalent capacity is used.
func (b Breakdown) FitsIn(dev Device) (fits bool, instances int) {
	t := b.Total()
	if t.Slices == 0 {
		return true, 0
	}
	instances = dev.V4Capacity() / t.Slices
	if t.BRAMs > 0 {
		if byBRAM := dev.BRAMs / t.BRAMs; byBRAM < instances {
			instances = byBRAM
		}
	}
	return instances >= 1, instances
}

// Render formats the breakdown in the shape of Table 4: per-stage
// percentages of the total design plus absolute totals.
func (b Breakdown) Render() string {
	t := b.Total()
	var sb strings.Builder
	sb.WriteString("Stage-Structures Area (%) of Total Design\n")
	fmt.Fprintf(&sb, "%-12s", "resource")
	for _, s := range b.Stages {
		fmt.Fprintf(&sb, "%7s", s.Name)
	}
	fmt.Fprintf(&sb, " | %10s\n", "Total")
	row := func(name string, pick func(Area) int, total int) {
		fmt.Fprintf(&sb, "%-12s", name)
		for _, s := range b.Stages {
			pct := 0.0
			if total > 0 {
				pct = 100 * float64(pick(s.Area)) / float64(total)
			}
			fmt.Fprintf(&sb, "%6.0f%%", pct)
		}
		fmt.Fprintf(&sb, " | %10d\n", total)
	}
	row("Slices", func(a Area) int { return a.Slices }, t.Slices)
	row("4-input LUTs", func(a Area) int { return a.LUTs }, t.LUTs)
	row("BRAMs", func(a Area) int { return a.BRAMs }, t.BRAMs)
	ex := b.TotalExcludingCaches()
	fmt.Fprintf(&sb, "Total excluding I-C/D-C: %d slices, %d LUTs, %d BRAMs\n",
		ex.Slices, ex.LUTs, ex.BRAMs)
	return sb.String()
}
